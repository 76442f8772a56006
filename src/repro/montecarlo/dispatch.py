"""Fastsim sampler registry and auto-dispatch.

The engine is the semantic ground truth but simulates every round of
every node; the :mod:`repro.fastsim` samplers exploit algorithm
structure to draw the success event directly, thousands of trials per
numpy call.  This module is the bridge: a registry mapping *scenario
shapes* — an (algorithm, failure model) combination recognised by a
matcher predicate — to the vectorised sampler that reproduces the
engine's success law for that shape.

:class:`repro.montecarlo.trials.TrialRunner` consults the registry and
transparently dispatches to a matching sampler, falling back to the
next backend tier otherwise.  Matchers must be *conservative*: a
sampler is only offered when its distribution provably coincides with
the engine's (see ``tests/test_fastsim_agreement.py``), so dispatch
never changes what is being estimated, only how fast.

Backend tiers
-------------
Dispatch walks three tiers, most specialised first; the tier taken is
reported as ``TrialResult.backend``, and the *sharding* column says how
``workers=N`` maps onto processes (``TrialResult.workers`` reports the
count actually used — both sharded tiers run on the runner's shard
executor, :mod:`repro.montecarlo.executors`):

==================  ==============================  ====================  ====================
tier / backend tag  eligibility                     what runs             process sharding
==================  ==============================  ====================  ====================
``fastsim:<name>``  first registry entry whose      one closed-form       none — a single
                    matcher accepts the scenario    vectorised draw of    vectorised call;
                    (table below); default success  the success law       ``workers`` is
                    predicate only                  (root stream)         ignored (reports 1)
``batchsim``        no sampler matched; failure     the vectorised        contiguous trial
                    model is history-oblivious      multi-trial engine:   chunks, one
                    and ``supports_batch(model)``   all trials advance    ``BatchExecution``
                    (fault-free, omission with      together on stacked   per worker process
                    ``p`` or per-node ``p_v``,      ``(n, B)`` arrays;    (floor of 128
                    simple-malicious with a         indicators are        trials per chunk —
                    batchable oblivious adversary   **bit-identical**     small batches stay
                    at every restriction level      to the engine tier    in-process);
                    the adversary *certifies* —     (per-trial streams    chunk→result merge
                    incl. LIMITED/FLIP — and the    ``root.child("mc",    in index order, so
                    slowing reduction via           i)``)                 bit-identical for
                    per-trial adversary-stream                            any worker count
                    replay); the algorithm
                    implements ``batch_program()``
                    / ``batch_payloads()`` (lift
                    table below); default success
                    predicate only
``engine``          history-dependent failure       scalar reference      contiguous trial
                    models (the adaptive            executions, one       shards (4 per
                    equalizing adversaries,         trial at a time       worker, for load
                    nested slowing wrappers),                             balancing) across
                    custom success predicates,                            worker processes;
                    algorithms without a batch                            bit-identical for
                    program — or callers that                             any worker count
                    deliberately pin it
                    (``use_fastsim=False,
                    use_batchsim=False``) for
                    engine-validation columns
==================  ==============================  ====================  ====================

Every algorithm family in the library implements the batch interface,
so the engine tier is *only* auto-dispatched for history-dependent
failure models and custom success predicates.  The batchsim lift
families, by registered name and the algorithm classes they batch
(behaviour summaries live in one place — the
:func:`repro.batchsim.programs.registered_lifts` registry, rendered by
``python -m repro.experiments describe``; this list is pinned against
that registry by ``tests/test_docs_sync.py``):

==================  ==================================================
lift                algorithm classes
==================  ==================================================
tree-phase          ``SimpleOmission`` / ``SimpleMalicious``
radio-repeat        ``RadioRepeat``
flooding            ``FastFlooding``
layered-schedule    ``LayeredScheduleBroadcast``
slot-schedule       ``RoundRobinBroadcast`` / ``PrimeScheduleBroadcast``
hello               ``HelloProtocolAlgorithm``
windowed            ``WindowedMalicious``
kucera-plan         ``KuceraBroadcast``
==================  ==================================================

The batchsim tier's trial-for-trial agreement with the engine is
property-tested in ``tests/test_batchsim.py``; because the two tiers
share per-trial streams, promoting a scenario from ``engine`` to
``batchsim`` can never change an experiment's numbers, only its
wall-clock.

Built-in entries (registered by :mod:`repro.montecarlo.samplers`, in
lookup order):

========================  ==================================================
entry                     scenario shape it matches
========================  ==================================================
simple-omission           ``SimpleOmission`` (either model) + plain
                          ``OmissionFailures``, ``Ms != default``
simple-malicious-mp       ``SimpleMalicious`` (message passing) +
                          ``MaliciousFailures`` with the complement or
                          random-flip adversary, ``Ms = 1``, default 0
simple-malicious-radio    ``SimpleMalicious`` (radio) +
                          ``MaliciousFailures(RadioWorstCaseAdversary)``,
                          full restriction, ``Ms = 1``, default 0, on a
                          *tree topology* (sibling listeners share their
                          parent's phase faults; non-tree edges would
                          correlate their remaining neighbourhoods)
flooding                  ``FastFlooding`` + plain ``OmissionFailures``,
                          ``Ms != default``
radio-repeat-omission     ``RadioRepeat`` with the ``any`` adoption rule
                          (Omission-Radio, Thm 3.4) + plain
                          ``OmissionFailures``, ``Ms != default``
radio-repeat-malicious    ``RadioRepeat`` with the ``majority`` rule
                          (Malicious-Radio, Thm 3.4) +
                          ``MaliciousFailures`` with the complement or
                          random-flip adversary, ``Ms = 1``, default 0
equalizing-star           ``SimpleMalicious`` (radio) on a star whose
                          source is a leaf +
                          ``EqualizingStarAdversary`` targeting that
                          source/center — native, or wrapped in the
                          matching ``SlowingAdversary`` reduction
                          (Thm 2.4 impossibility); bit messages,
                          default 0, full restriction
layered-omission          ``LayeredScheduleBroadcast`` on ``G(m)``
                          (Lemma 3.4 / Thm 3.3 schedules) + plain
                          ``OmissionFailures``, ``Ms != default``
========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine.protocol import Algorithm
from repro.failures.base import FailureModel
from repro.obs import get_registry
from repro.rng import RngStream

__all__ = [
    "SamplerEntry",
    "register_sampler",
    "unregister_sampler",
    "find_sampler",
    "registered_samplers",
]

Matcher = Callable[[Algorithm, FailureModel], bool]
Sampler = Callable[[Algorithm, FailureModel, int, RngStream], np.ndarray]


@dataclass(frozen=True)
class SamplerEntry:
    """One registered vectorised sampler.

    Attributes
    ----------
    name:
        Registry key, also reported as ``TrialResult.backend``
        (``"fastsim:<name>"``).
    matches:
        Predicate deciding whether this sampler reproduces the engine's
        success distribution for a given (algorithm, failure model).
    sample:
        ``(algorithm, failure, trials, stream) -> bool ndarray`` of
        per-trial success indicators.  Every sampler must honour the
        **prefix contract**: for any ``m < N`` and the same fresh root
        stream, ``sample(..., N, stream)[:m]`` is bit-identical to
        ``sample(..., m, stream)``.  A sampler meets it by making every
        vectorised draw either (a) a single call whose *leading* axis
        is the trial count (numpy generators fill C-order, so trial
        ``i``'s values occupy the same bit-stream positions for every
        budget), or (b) a call on a *named child stream* of the root
        that is consumed by no other draw site.  Sequential runs
        (:meth:`repro.montecarlo.TrialRunner.run_until`) extend a
        fastsim batch by re-drawing the grown prefix, which is sound
        only under this contract.  Property-pinned for every registered
        entry in ``tests/test_sequential.py``.
    """

    name: str
    matches: Matcher
    sample: Sampler


_REGISTRY: Dict[str, SamplerEntry] = {}


def register_sampler(name: str, matches: Matcher,
                     sample: Sampler) -> SamplerEntry:
    """Register a vectorised sampler under ``name``.

    Registration order is lookup order; the first matching entry wins.
    ``sample`` must honour the prefix contract (see
    :class:`SamplerEntry`): sequential runs rely on it, and the property
    suite catches a sampler that breaks it only after a sequential sweep
    already mis-stopped.
    """
    if name in _REGISTRY:
        raise ValueError(f"duplicate sampler name {name!r}")
    entry = SamplerEntry(name=name, matches=matches, sample=sample)
    _REGISTRY[name] = entry
    return entry


def unregister_sampler(name: str) -> None:
    """Remove a registered sampler (primarily for tests)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown sampler {name!r}")
    del _REGISTRY[name]


def find_sampler(algorithm: Algorithm,
                 failure_model: FailureModel) -> Optional[SamplerEntry]:
    """First registered sampler matching the scenario, or ``None``.

    Every probe outcome is counted in the metrics registry
    (``mc.dispatch.match`` labelled by entry, or
    ``mc.dispatch.fallthrough`` when no sampler matched), so dispatch
    coverage of a live workload — which scenarios collapse into the
    fastsim tier and which fall through — is observable.  Probes run
    once per :class:`~repro.montecarlo.trials.TrialRunner`, so the
    counters track distinct runner shapes, not per-trial volume.
    """
    for entry in _REGISTRY.values():
        if entry.matches(algorithm, failure_model):
            get_registry().counter("mc.dispatch.match",
                                   entry=entry.name).inc()
            return entry
    get_registry().counter("mc.dispatch.fallthrough").inc()
    return None


def registered_samplers() -> List[SamplerEntry]:
    """All registered samplers in lookup order."""
    return list(_REGISTRY.values())
