"""Built-in fastsim dispatch entries.

Each entry pairs a conservative matcher with the :mod:`repro.fastsim`
sampler whose success distribution coincides with the reference
engine's for that scenario shape; the agreement is asserted
sampler-by-sampler in ``tests/test_fastsim_agreement.py``.  Importing
this module (done by ``repro.montecarlo``) registers all entries.  See
:mod:`repro.montecarlo.dispatch` for the full registry table.
"""

from __future__ import annotations

import numpy as np

from repro.core.flooding import FastFlooding
from repro.core.radio_repeat import ADOPT_ANY, ADOPT_MAJORITY, RadioRepeat
from repro.core.simple_malicious import SimpleMalicious
from repro.core.simple_omission import SimpleOmission
from repro.engine.protocol import MESSAGE_PASSING, RADIO, Algorithm
from repro.failures.adversaries import (
    ComplementAdversary,
    RadioWorstCaseAdversary,
    RandomFlipAdversary,
    SlowingAdversary,
)
from repro.failures.base import FailureModel, OmissionFailures
from repro.failures.equalizing import EqualizingStarAdversary
from repro.failures.malicious import MaliciousFailures, Restriction
from repro.fastsim.equalizing import sample_equalizing_star
from repro.fastsim.layered import sample_layered_omission
from repro.fastsim.schedule_repeat import (
    sample_radio_repeat_malicious,
    sample_radio_repeat_omission,
)
from repro.fastsim.tree_chain import (
    sample_flooding_success,
    sample_simple_malicious_mp,
    sample_simple_malicious_radio_tree,
    sample_simple_omission,
)
from repro.montecarlo.dispatch import register_sampler
from repro.radio.layered_broadcast import LayeredScheduleBroadcast
from repro.rng import RngStream

__all__ = ["register_builtin_samplers"]


def _omission_rates(failure: FailureModel):
    """Scalar ``p`` or the per-node ``p_v`` vector of an omission model.

    The samplers whose success law factorises per node (simple
    omission, flooding) consume either form directly; matchers that
    cannot handle heterogeneous rates gate on :func:`_uniform_p`
    instead.
    """
    vector = failure.p_vector
    return failure.p if vector is None else vector


def _uniform_p(failure: FailureModel):
    """The uniform rate, or ``None`` when the model carries ``p_v``."""
    return None if failure.p_vector is not None else failure.p


def _is_tree_topology(algorithm: Algorithm) -> bool:
    """Whether the algorithm's topology is itself a tree.

    The engine-exact radio malicious sampler conditions siblings on
    their parent's shared flip count; that factorisation needs the
    listeners' remaining closed neighbourhoods to be disjoint, which
    holds exactly when the graph has no non-tree edges.
    """
    return algorithm.topology.size == algorithm.topology.order - 1


def _match_simple_omission(algorithm: Algorithm,
                           failure: FailureModel) -> bool:
    return (
        isinstance(algorithm, SimpleOmission)
        and type(failure) is OmissionFailures
        and algorithm.source_message != algorithm.default
    )


def _sample_simple_omission(algorithm: Algorithm, failure: FailureModel,
                            trials: int, stream: RngStream) -> np.ndarray:
    return sample_simple_omission(
        algorithm.tree, algorithm.phase_length, _omission_rates(failure),
        trials, stream,
    )


def _match_simple_malicious_mp(algorithm: Algorithm,
                               failure: FailureModel) -> bool:
    return (
        isinstance(algorithm, SimpleMalicious)
        and algorithm.model == MESSAGE_PASSING
        and isinstance(failure, MaliciousFailures)
        and type(failure.adversary) in (ComplementAdversary, RandomFlipAdversary)
        and algorithm.source_message == 1
        and algorithm.default == 0
    )


def _sample_simple_malicious_mp(algorithm: Algorithm, failure: FailureModel,
                                trials: int, stream: RngStream) -> np.ndarray:
    return sample_simple_malicious_mp(
        algorithm.tree, algorithm.phase_length, failure.p, trials, stream
    )


def _match_simple_malicious_radio(algorithm: Algorithm,
                                  failure: FailureModel) -> bool:
    return (
        isinstance(algorithm, SimpleMalicious)
        and algorithm.model == RADIO
        and isinstance(failure, MaliciousFailures)
        and type(failure.adversary) is RadioWorstCaseAdversary
        and failure.restriction is Restriction.FULL
        and algorithm.source_message == 1
        and algorithm.default == 0
        and _is_tree_topology(algorithm)
    )


def _sample_simple_malicious_radio(algorithm: Algorithm,
                                   failure: FailureModel, trials: int,
                                   stream: RngStream) -> np.ndarray:
    return sample_simple_malicious_radio_tree(
        algorithm.tree, algorithm.phase_length, failure.p, trials, stream
    )


def _match_flooding(algorithm: Algorithm, failure: FailureModel) -> bool:
    return (
        isinstance(algorithm, FastFlooding)
        and type(failure) is OmissionFailures
        and algorithm.source_message != algorithm.default
    )


def _sample_flooding(algorithm: Algorithm, failure: FailureModel,
                     trials: int, stream: RngStream) -> np.ndarray:
    return sample_flooding_success(
        algorithm.tree, algorithm.rounds, _omission_rates(failure), trials,
        stream,
    )


def _match_radio_repeat_omission(algorithm: Algorithm,
                                 failure: FailureModel) -> bool:
    # The informing-group law is derived for one shared rate; a
    # heterogeneous model falls through to the batchsim tier.
    return (
        isinstance(algorithm, RadioRepeat)
        and algorithm.rule == ADOPT_ANY
        and type(failure) is OmissionFailures
        and _uniform_p(failure) is not None
        and algorithm.source_message != algorithm.default
    )


def _sample_radio_repeat_omission(algorithm: Algorithm, failure: FailureModel,
                                  trials: int, stream: RngStream) -> np.ndarray:
    return sample_radio_repeat_omission(
        algorithm.base_schedule, algorithm.phase_length, failure.p, trials,
        stream,
    )


def _match_radio_repeat_malicious(algorithm: Algorithm,
                                  failure: FailureModel) -> bool:
    # The complement/flip adversaries never add or drop transmissions,
    # so their behaviour is identical under every restriction level.
    return (
        isinstance(algorithm, RadioRepeat)
        and algorithm.rule == ADOPT_MAJORITY
        and isinstance(failure, MaliciousFailures)
        and type(failure.adversary) in (ComplementAdversary, RandomFlipAdversary)
        and algorithm.source_message == 1
        and algorithm.default == 0
    )


def _sample_radio_repeat_malicious(algorithm: Algorithm,
                                   failure: FailureModel, trials: int,
                                   stream: RngStream) -> np.ndarray:
    return sample_radio_repeat_malicious(
        algorithm.base_schedule, algorithm.phase_length, failure.p, trials,
        stream,
    )


def _equalizing_star_attack(failure: FailureModel):
    """``(adversary, effective rate)`` for an equalizing-star attack.

    Recognises the native adversary (effective rate = raw ``p``) and
    the Theorem 2.4 slowing reduction (effective rate = the slowing
    target, provided the wrapper was derived for this failure model's
    ``p`` — otherwise the realised rate would differ).  ``None`` for
    anything else.
    """
    if not isinstance(failure, MaliciousFailures):
        return None
    if failure.restriction is not Restriction.FULL:
        return None
    adversary = failure.adversary
    if isinstance(adversary, SlowingAdversary):
        inner = adversary.inner
        if (type(inner) is EqualizingStarAdversary
                and adversary.raw_rate == failure.p):
            return inner, adversary.effective_rate
        return None
    if type(adversary) is EqualizingStarAdversary:
        return adversary, failure.p
    return None


def _match_equalizing_star(algorithm: Algorithm,
                           failure: FailureModel) -> bool:
    attack = _equalizing_star_attack(failure)
    if attack is None:
        return False
    adversary, _ = attack
    if not (isinstance(algorithm, SimpleMalicious)
            and algorithm.model == RADIO):
        return False
    topology = algorithm.topology
    center = adversary.center
    return (
        # A star with the adversary's center at its root ...
        topology.size == topology.order - 1
        and 0 <= center < topology.order
        and topology.degree(center) == topology.order - 1
        # ... attacked through the leaf the algorithm broadcasts from.
        and algorithm.source == adversary.source
        and algorithm.source != center
        and algorithm.source_message in (0, 1)
        and algorithm.default == 0
    )


def _sample_equalizing_star(algorithm: Algorithm, failure: FailureModel,
                            trials: int, stream: RngStream) -> np.ndarray:
    _, rate = _equalizing_star_attack(failure)
    return sample_equalizing_star(
        algorithm.topology.order, algorithm.phase_length, rate,
        algorithm.source_message, trials, stream,
    )


def _match_layered_omission(algorithm: Algorithm,
                            failure: FailureModel) -> bool:
    # Per-step survivor counts are binomial in one shared rate; a
    # heterogeneous model falls through to the batchsim tier.
    return (
        isinstance(algorithm, LayeredScheduleBroadcast)
        and type(failure) is OmissionFailures
        and _uniform_p(failure) is not None
        and algorithm.source_message != algorithm.default
    )


def _sample_layered_omission(algorithm: Algorithm, failure: FailureModel,
                             trials: int, stream: RngStream) -> np.ndarray:
    return sample_layered_omission(
        algorithm.graph, algorithm.step_positions, failure.p, trials, stream,
        source_steps=algorithm.source_steps,
    )


def register_builtin_samplers() -> None:
    """Register every built-in (algorithm, failure) -> sampler entry.

    Every built-in sampler draws either in a single vectorised call
    with the trial count as the leading axis or from named child
    streams owned by one draw site each, which is how each meets the
    registry's prefix contract (property-tested in
    ``tests/test_sequential.py``).
    """
    register_sampler(
        "simple-omission", _match_simple_omission, _sample_simple_omission,
    )
    register_sampler(
        "simple-malicious-mp", _match_simple_malicious_mp,
        _sample_simple_malicious_mp,
    )
    register_sampler(
        "simple-malicious-radio", _match_simple_malicious_radio,
        _sample_simple_malicious_radio,
    )
    register_sampler("flooding", _match_flooding, _sample_flooding)
    register_sampler(
        "radio-repeat-omission", _match_radio_repeat_omission,
        _sample_radio_repeat_omission,
    )
    register_sampler(
        "radio-repeat-malicious", _match_radio_repeat_malicious,
        _sample_radio_repeat_malicious,
    )
    register_sampler(
        "equalizing-star", _match_equalizing_star, _sample_equalizing_star,
    )
    register_sampler(
        "layered-omission", _match_layered_omission, _sample_layered_omission,
    )


register_builtin_samplers()
