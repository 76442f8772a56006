"""Builtin wire-scenario families for the simulation service.

Each family maps the wire triple ``(scenario name, p, n)`` — plus
optional family-specific ``params`` — to a picklable
``(algorithm_factory, failure_model)`` pair via
:func:`repro.experiments.registry.register_family`.  Builders are pure
functions of the wire spec, which is what
:func:`repro.montecarlo.scenario_fingerprint` hashes, so every
family's results are exactly memoisable; picklability lets the same
factory shard across worker processes.

The catalog covers **every registered experiment E01–E15** (each
family carries its ``experiments`` tag; the completeness is pinned by
``tests/test_serve_catalog.py``), spanning all three service regimes:

* fastsim-dispatched families (``simple-omission``, ``flooding``,
  ``equalizing-star``, ``layered-omission``, ...) — answered
  instantly, no coalescing needed;
* batchsim/engine Monte-Carlo families (``windowed-malicious``,
  ``kucera-flip``, ``equalizing-mp``, ...) — the expensive queries the
  coalescer collapses and the LRU memoises;
* the one **exact** family (``layered-opt``, E10) — no Monte-Carlo at
  all: the build returns a zero-argument ``compute`` whose
  verdict (the Lemma 3.3 exhaustive search) the service runs once and
  serves memo-only.

Families validate their parameters and raise ``ValueError`` on
out-of-range input; the wire protocol maps that to a client error.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Tuple

from repro._validation import check_probability
from repro.analysis.thresholds import radio_malicious_threshold  # noqa: F401  (re-export convenience)
from repro.core import (
    ADOPT_ANY,
    ADOPT_MAJORITY,
    FastFlooding,
    PrimeScheduleBroadcast,
    RadioRepeat,
    RoundRobinBroadcast,
    SimpleMalicious,
    SimpleOmission,
)
from repro.core.flooding import flooding_rounds
from repro.core.hello import HelloProtocolAlgorithm
from repro.core.kucera import KuceraBroadcast
from repro.core.parameters import (
    mp_malicious_phase_length,
    omission_phase_length,
    radio_malicious_phase_length,
)
from repro.core.windowed import WindowedMalicious
from repro.engine import MESSAGE_PASSING, RADIO
from repro.experiments.registry import FAMILY_EXACT, register_family
from repro.failures import (
    ComplementAdversary,
    GarbageAdversary,
    MaliciousFailures,
    OmissionFailures,
    RandomFlipAdversary,
    Restriction,
    SilentAdversary,
)
from repro.failures.adversaries import RadioWorstCaseAdversary
from repro.failures.equalizing import EqualizingMpAdversary, EqualizingStarAdversary
from repro.graphs import binary_tree, grid, line, star, two_node
from repro.graphs.layered import layered_graph
from repro.radio.closed_form import layered_schedule, line_schedule
from repro.radio.exact import layered_min_layer2_steps
from repro.radio.layered_broadcast import LayeredScheduleBroadcast

import numpy as np

__all__ = ["MAX_NODES"]

#: Ceiling on the node count a single wire query may request — a
#: serving-layer guard, not a simulation limit (batch memory scales
#: with ``trials x rounds x n``).
MAX_NODES = 4096

FactoryAndFailures = Tuple[Callable[[], Any], Any]


def _check_n(n: Any, minimum: int, meaning: str,
             maximum: int = MAX_NODES) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n ({meaning}) must be an int, got {n!r}")
    if not minimum <= n <= maximum:
        raise ValueError(
            f"n ({meaning}) must lie in [{minimum}, {maximum}], got {n}"
        )
    return n


# -- omission families (Theorem 2.1) -----------------------------------


@register_family(
    "simple-omission",
    "Simple-Omission on a depth-d binary tree under omission failures "
    "(Theorem 2.1); fastsim-served",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E01",),
)
def _build_simple_omission(p: float, n: int, *,
                           phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    depth = _check_n(n, 1, "binary-tree depth", maximum=11)
    topology = binary_tree(depth)
    if phase_length:
        m = _check_n(phase_length, 1, "phase_length")
    else:
        m = omission_phase_length(topology.order, p)
    factory = partial(SimpleOmission, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, OmissionFailures(p)


@register_family(
    "simple-omission-radio",
    "Simple-Omission on a depth-d binary tree in the radio model "
    "(Theorem 2.1, radio variant); fastsim-served",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E02",),
)
def _build_simple_omission_radio(p: float, n: int, *,
                                 phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    depth = _check_n(n, 1, "binary-tree depth", maximum=11)
    topology = binary_tree(depth)
    if phase_length:
        m = _check_n(phase_length, 1, "phase_length")
    else:
        m = omission_phase_length(topology.order, p)
    factory = partial(SimpleOmission, topology, 0, 1, RADIO, m)
    return factory, OmissionFailures(p)


@register_family(
    "hetero-omission",
    "Simple-Omission on a binary tree with per-node failure rates "
    "ramping linearly up to p (E15 ablation); batchsim Monte-Carlo",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E15",),
)
def _build_hetero_omission(p: float, n: int, *, p_low: float = 0.0,
                           phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    p_low = check_probability(p_low, "p_low", allow_zero=True)
    if p_low > p:
        raise ValueError(f"p_low must not exceed p, got {p_low} > {p}")
    depth = _check_n(n, 1, "binary-tree depth", maximum=11)
    topology = binary_tree(depth)
    if phase_length:
        m = _check_n(phase_length, 1, "phase_length")
    else:
        m = omission_phase_length(topology.order, p)
    rates = np.round(np.linspace(p_low, p, topology.order), 4)
    factory = partial(SimpleOmission, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, OmissionFailures(p_v=rates)


# -- malicious families (Theorems 2.2 / 2.4) ---------------------------


@register_family(
    "simple-malicious-mp",
    "Simple-Malicious on a depth-d binary tree vs the complement "
    "adversary, message passing (Theorem 2.2); fastsim-served",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E03",),
)
def _build_simple_malicious_mp(p: float, n: int, *,
                               phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    depth = _check_n(n, 1, "binary-tree depth", maximum=11)
    topology = binary_tree(depth)
    if phase_length:
        m = _check_n(phase_length, 1, "phase_length")
    else:
        m = mp_malicious_phase_length(topology.order, p)
    factory = partial(SimpleMalicious, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, MaliciousFailures(p, ComplementAdversary())


@register_family(
    "equalizing-mp",
    "Two-node Simple-Malicious vs the history-dependent equalizing "
    "adversary (Theorem 2.3 impossibility); scalar-engine Monte-Carlo",
    size_meaning="phase length m (the graph is always the 2-node link)",
    experiments=("E04",),
)
def _build_equalizing_mp(p: float, n: int) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    m = _check_n(n, 1, "phase length", maximum=256)
    factory = partial(SimpleMalicious, two_node(), 0, 1, MESSAGE_PASSING, m)
    return factory, MaliciousFailures(p, EqualizingMpAdversary(source=0))


@register_family(
    "malicious-radio-star",
    "Simple-Malicious on a leaf-sourced star vs the radio worst-case "
    "adversary (Theorem 2.4 threshold); batchsim Monte-Carlo",
    size_meaning="star degree delta (order delta+1)",
    experiments=("E05",),
)
def _build_malicious_radio_star(p: float, n: int, *,
                                phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    delta = _check_n(n, 2, "star degree", maximum=MAX_NODES - 1)
    topology = star(delta, source_is_center=False)
    if phase_length:
        m = _check_n(phase_length, 1, "phase_length")
    else:
        m = radio_malicious_phase_length(topology.order, p, delta)
    factory = partial(SimpleMalicious, topology, 0, 1, RADIO, m)
    return factory, MaliciousFailures(p, RadioWorstCaseAdversary())


@register_family(
    "equalizing-star",
    "Leaf-sourced star vs the adaptive equalizing-star adversary "
    "(Theorem 2.4 impossibility side); fastsim-served",
    size_meaning="star degree delta (order delta+1)",
    experiments=("E06",),
)
def _build_equalizing_star(p: float, n: int, *,
                           phase_length: int = 15) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    delta = _check_n(n, 2, "star degree", maximum=MAX_NODES - 1)
    m = _check_n(phase_length, 1, "phase_length")
    topology = star(delta, source_is_center=False)
    factory = partial(SimpleMalicious, topology, 0, 1, RADIO, m)
    return factory, MaliciousFailures(
        p, EqualizingStarAdversary(source=0, center=1))


@register_family(
    "windowed-malicious",
    "Windowed Simple-Malicious on a k x k grid vs the complement "
    "adversary (Section 2.2); batchsim Monte-Carlo",
    size_meaning="grid side k (order k^2)",
    experiments=("E14",),
)
def _build_windowed_malicious(p: float, n: int) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    side = _check_n(n, 2, "grid side")
    if side * side > MAX_NODES:
        raise ValueError(f"grid side must satisfy k^2 <= {MAX_NODES}")
    factory = partial(WindowedMalicious, grid(side, side), 0, 1, p=p)
    return factory, MaliciousFailures(p, ComplementAdversary())


# -- flooding / composition families (Section 3) -----------------------


@register_family(
    "flooding",
    "Fast flooding on a line under omission failures (Theorem 3.1); "
    "fastsim-served",
    size_meaning="line length",
    experiments=("E08",),
)
def _build_flooding(p: float, n: int, *,
                    rounds: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    length = _check_n(n, 2, "line length")
    topology = line(length)
    kwargs = {}
    if rounds:
        kwargs["rounds"] = _check_n(rounds, 1, "rounds")
    factory = partial(FastFlooding, topology, 0, 1, p=p, **kwargs)
    return factory, OmissionFailures(p)


@register_family(
    "grid-flooding",
    "Fast flooding on a k x k grid under omission failures "
    "(Theorem 3.1 on general graphs); batchsim Monte-Carlo",
    size_meaning="grid side k (order k^2)",
    experiments=("E07",),
)
def _build_grid_flooding(p: float, n: int, *,
                         rounds: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    side = _check_n(n, 2, "grid side")
    if side * side > MAX_NODES:
        raise ValueError(f"grid side must satisfy k^2 <= {MAX_NODES}")
    topology = grid(side, side)
    kwargs = {}
    if rounds:
        kwargs["rounds"] = _check_n(rounds, 1, "rounds")
    factory = partial(FastFlooding, topology, 0, 1, p=p, **kwargs)
    return factory, OmissionFailures(p)


@register_family(
    "kucera-flip",
    "Kucera composition plan on a line vs the random bit-flip "
    "adversary (Theorem 3.2); batchsim Monte-Carlo",
    size_meaning="line length",
    experiments=("E09",),
)
def _build_kucera_flip(p: float, n: int) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    length = _check_n(n, 2, "line length", maximum=64)
    factory = partial(KuceraBroadcast, line(length), 0, 1, p=p)
    return factory, MaliciousFailures(p, RandomFlipAdversary(),
                                      Restriction.FLIP)


# -- radio lower-bound families (Section 3.3) --------------------------


def _layered_opt_verdict(m: int) -> bool:
    """The Lemma 3.3 claim for ``G(m)``, checked exhaustively.

    The exhaustive layer-2 search must need exactly ``m`` steps, and
    the constructive schedule must achieve the matching ``m + 1``
    total.
    """
    graph = layered_graph(m)
    constructive = layered_schedule(graph).length == m + 1
    exhaustive = layered_min_layer2_steps(graph) == m
    return constructive and exhaustive


@register_family(
    "layered-opt",
    "Exact optimal broadcast time of the lower-bound graph G(m) "
    "(Lemma 3.3, exhaustive search); combinatorial, served memo-only "
    "with p=0, trials=1, seed=0",
    size_meaning="bit-node count m of G(m) (exhaustive up to m=5)",
    experiments=("E10",),
    kind=FAMILY_EXACT,
)
def _build_layered_opt(p: float, n: int) -> FactoryAndFailures:
    if p != 0.0:
        raise ValueError(
            f"layered-opt is purely combinatorial; p must be 0, got {p}"
        )
    m = _check_n(n, 2, "bit-node count m", maximum=5)
    return partial(_layered_opt_verdict, m), None


def _uniform_layer2_schedule(m: int, budget: int):
    """Spread a layer-2 step budget evenly over bit-node singletons."""
    return [{(index % m) + 1} for index in range(budget)]


@register_family(
    "layered-omission",
    "Layered-graph schedule broadcast G(m) under omission failures "
    "(Theorem 3.3 lower-bound graph); fastsim-served",
    size_meaning="bit-node count m of G(m) (order 2^m + m + 1)",
    experiments=("E11",),
)
def _build_layered_omission(p: float, n: int, *,
                            budget: int = 0,
                            source_steps: int = 1) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    m = _check_n(n, 2, "bit-node count m", maximum=10)
    graph = layered_graph(m)
    steps = _uniform_layer2_schedule(
        m, _check_n(budget, 1, "budget") if budget else 2 * m)
    factory = partial(LayeredScheduleBroadcast, graph, steps,
                      _check_n(source_steps, 1, "source_steps"))
    return factory, OmissionFailures(p)


@register_family(
    "radio-repeat",
    "Schedule-repetition broadcast on a line (adopt-any under omission "
    "failures, adopt-majority vs the complement adversary; Section "
    "3.3); fastsim-served",
    size_meaning="line length",
    experiments=("E12",),
)
def _build_radio_repeat(p: float, n: int, *,
                        rule: str = "any") -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    length = _check_n(n, 2, "line length", maximum=64)
    if rule not in (ADOPT_ANY, ADOPT_MAJORITY):
        raise ValueError(
            f"rule must be {ADOPT_ANY!r} or {ADOPT_MAJORITY!r}, got {rule!r}"
        )
    schedule = line_schedule(line(length))
    algorithm = RadioRepeat(schedule, 1, rule=rule, p=p)
    factory = partial(RadioRepeat, schedule, 1, rule,
                      algorithm.phase_length)
    if rule == ADOPT_ANY:
        return factory, OmissionFailures(p)
    return factory, MaliciousFailures(p, ComplementAdversary())


# -- timing-channel and label-schedule families ------------------------


@register_family(
    "hello",
    "Two-node timing-channel broadcast vs a limited malicious "
    "adversary (Section 4 feasibility); batchsim Monte-Carlo",
    size_meaning="half-round count m (the protocol runs 2m rounds)",
    experiments=("E13",),
)
def _build_hello(p: float, n: int, *,
                 adversary: str = "silent") -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    m = _check_n(n, 1, "half-round count m", maximum=4096)
    adversaries = {"silent": SilentAdversary, "garbage": GarbageAdversary}
    if adversary not in adversaries:
        raise ValueError(
            f"adversary must be one of {sorted(adversaries)}, got "
            f"{adversary!r}"
        )
    factory = partial(HelloProtocolAlgorithm, two_node(), 0, m)
    return factory, MaliciousFailures(p, adversaries[adversary](),
                                      Restriction.LIMITED)


@register_family(
    "round-robin",
    "Round-robin label-schedule broadcast on a binary tree under "
    "omission failures (E14 variant); batchsim Monte-Carlo",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E14",),
)
def _build_round_robin(p: float, n: int, *,
                       cycles: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    depth = _check_n(n, 1, "binary-tree depth", maximum=8)
    topology = binary_tree(depth)
    if cycles:
        cycles = _check_n(cycles, 1, "cycles")
    else:
        cycles = flooding_rounds(topology.order, depth, p)
    factory = partial(RoundRobinBroadcast, topology, 0, 1, cycles=cycles)
    return factory, OmissionFailures(p)


@register_family(
    "prime-schedule",
    "Prime label-schedule broadcast on a line under omission failures "
    "(E14 variant); batchsim Monte-Carlo",
    size_meaning="line length",
    experiments=("E14",),
)
def _build_prime_schedule(p: float, n: int, *,
                          rounds: int = 2500) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    length = _check_n(n, 2, "line length", maximum=64)
    rounds = _check_n(rounds, 1, "rounds", maximum=100_000)
    factory = partial(PrimeScheduleBroadcast, line(length), 0, 1,
                      rounds=rounds)
    return factory, OmissionFailures(p)
