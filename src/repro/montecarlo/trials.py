"""Batched Monte-Carlo trial running with reproducible sharding.

Every feasibility theorem in the paper is a statement about a success
*probability*, so each experiment ends up running the same loop: derive
a per-trial random stream, execute, count successes.  This module
centralises that loop and makes it fast through a three-tier dispatch
(``fastsim sampler → batchsim → scalar engine``; see
:mod:`repro.montecarlo.dispatch` for the tier table):

* when a registered fastsim sampler matches the scenario, the whole
  batch collapses into one vectorised draw — the sampler consumes the
  *root* stream directly (deterministic per root seed and identical to
  calling the sampler by hand, but a different bit pattern than the
  engine path);
* otherwise, when the scenario is history-oblivious and the algorithm
  implements the batch interface (every algorithm family in the
  library does), the :mod:`repro.batchsim` engine executes all trials
  together on node-major ``(n, B)`` arrays — and with ``workers > 1`` on
  a large enough batch, the trial index range is partitioned into
  contiguous chunks executed by one ``BatchExecution`` per worker
  process; trial ``i`` still consumes ``root.child("mc", i)``, so the
  indicators are **bit-identical** to the scalar engine path for any
  worker count;
* the scalar engine fallback — reached only for history-dependent
  failure models (the adaptive equalizing adversaries), custom success
  predicates, or when a caller deliberately pins it — instantiates the
  algorithm **once per shard** (protocols carry all per-run state),
  takes the engine's trace-free no-history fast path, and can shard
  across processes; trial ``i`` always draws from
  ``root.child("mc", i)``, so the per-trial indicator vector is
  bit-identical for any worker count — and identical to
  :func:`repro.analysis.estimation.estimate_success` under the same
  root stream.

Both sharded paths hand their shards to the runner's
:class:`~repro.montecarlo.executors.ShardExecutor` (in-process, local
process pool or remote workers): shard-ordered merging, and
first-exception propagation with cancellation.  A
:meth:`TrialRunner.from_spec` runner's shards carry only its catalog
spec (:func:`run_spec_shard`), the only shards remote workers run.

Besides fixed budgets (:meth:`TrialRunner.run`), the runner offers a
**sequential mode** (:meth:`TrialRunner.run_until`): the batch grows in
powers of two, each extension folding into a :class:`RunningTally`,
until the Chernoff–Hoeffding or empirical-Bernstein interval width
drops below a target.  Both modes execute trial ranges through one
core: ``run(T)`` is the range ``[0, T)`` and each extension the range
``[prev, next)``.  The stopping rule is a pure function of the
per-trial indicator prefix, so a sequential run's indicators are
exactly the prefix of a fixed-budget run under the same root seed — on
all three tiers and for any worker count.

Example::

    runner = TrialRunner(lambda: SimpleOmission(g, 0, 1, RADIO, p=0.3),
                         OmissionFailures(0.3))
    result = runner.run(trials=10_000, seed_or_stream=7)
    result.estimate, result.stats().describe(), result.backend
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro._validation import check_positive_int, check_probability
from repro.analysis.estimation import (
    MonteCarloResult,
    clopper_pearson,
    empirical_bernstein_interval,
    hoeffding_interval,
    wilson_interval,
)
from repro.batchsim.engine import BatchExecution, batch_execution
from repro.engine.protocol import Algorithm
from repro.engine.simulator import ExecutionResult, run_execution
from repro.failures.base import FailureModel, FaultFree
from repro.montecarlo.dispatch import SamplerEntry, find_sampler
from repro.montecarlo.executors import ShardExecutor, make_executor
from repro.montecarlo.fingerprint import canonical_spec
from repro.obs import get_registry
from repro.rng import RngStream, as_stream, derive_seed

__all__ = ["TrialRunner", "TrialResult", "RunningTally",
           "SequentialResult", "SequentialStep", "SEQUENTIAL_BOUNDS",
           "ENGINE_BACKEND", "BATCHSIM_BACKEND", "MIN_BATCHSIM_SHARD",
           "run_spec_shard"]

AlgorithmFactory = Callable[[], Algorithm]
SuccessPredicate = Callable[[ExecutionResult], bool]
_Tiers = Tuple[Optional[SamplerEntry], Optional[BatchExecution], Algorithm]

ENGINE_BACKEND = "engine"
BATCHSIM_BACKEND = "batchsim"


#: Interval estimators by name: the one counts→interval table behind
#: :class:`RunningTally`, :class:`TrialResult` and the sequential
#: stopping rule (whose bound names are keys here).
_INTERVALS = {
    "wilson": wilson_interval,
    "hoeffding": hoeffding_interval,
    "bernstein": empirical_bernstein_interval,
    "clopper_pearson": clopper_pearson,
}


def _interval(name: str, successes: int, trials: int,
              confidence: float) -> Tuple[float, float]:
    """The ``name`` interval on the counts; ``(0, 1)`` at zero trials.

    Zero trials support no claim narrower than all of ``[0, 1]``, and
    the sequential stopping rule consults the tally before its first
    extension, so the empty case answers instead of raising.
    """
    if trials == 0:
        return 0.0, 1.0
    return _INTERVALS[name](successes, trials, confidence)


class RunningTally:
    """Streaming success/trial counts with on-demand intervals.

    Shards report in as they complete; the tally can answer the point
    estimate and Wilson / Chernoff–Hoeffding / empirical-Bernstein /
    Clopper–Pearson intervals at any moment without storing indicators.
    "Any moment" includes before the first batch lands: an empty tally
    answers the degenerate all-of-``[0, 1]`` interval instead of
    raising (the sequential stopping rule consults the tally at trial
    count zero).
    """

    __slots__ = ("_successes", "_trials")

    def __init__(self) -> None:
        self._successes = 0
        self._trials = 0

    def update(self, indicators: np.ndarray) -> None:
        """Fold one batch of boolean indicators into the tally."""
        self._successes += int(np.count_nonzero(indicators))
        self._trials += int(len(indicators))

    @property
    def successes(self) -> int:
        """Successful trials so far."""
        return self._successes

    @property
    def trials(self) -> int:
        """Trials folded in so far."""
        return self._trials

    @property
    def estimate(self) -> float:
        """Point estimate ``successes / trials`` (0.0 before any trial)."""
        return self._successes / self._trials if self._trials else 0.0

    def wilson(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Wilson score interval on the current counts (``(0, 1)`` empty)."""
        return _interval("wilson", self._successes, self._trials, confidence)

    def hoeffding(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Chernoff–Hoeffding interval on the current counts (``(0, 1)`` empty)."""
        return _interval("hoeffding", self._successes, self._trials,
                         confidence)

    def bernstein(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Empirical-Bernstein interval on the counts (``(0, 1)`` empty).

        The Maurer–Pontil bound of
        :func:`repro.analysis.estimation.empirical_bernstein_interval`:
        variance-adaptive, so on decisive counts it shrinks like
        ``1/t`` where Hoeffding only manages ``1/sqrt(t)`` — the
        preferred stopping bound for sequential threshold sweeps.
        """
        return _interval("bernstein", self._successes, self._trials,
                         confidence)

    def clopper_pearson(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Exact Clopper–Pearson interval on the counts (``(0, 1)`` empty)."""
        return _interval("clopper_pearson", self._successes, self._trials,
                         confidence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningTally({self._successes}/{self._trials})"


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one :meth:`TrialRunner.run` batch.

    Attributes
    ----------
    indicators:
        Per-trial success booleans, in trial order.  On the engine and
        batchsim backends trial ``i`` used stream
        ``root.child("mc", i)`` (the two are bit-identical); a fastsim
        backend drew the whole vector from the root stream in one
        vectorised call (same law, different bit pattern).
    backend:
        ``"engine"``, ``"batchsim"`` or ``"fastsim:<sampler name>"``.
    workers:
        Process count the batch **actually** ran with (1 =
        in-process), which can be less than the runner's ``workers=``
        request: a fastsim draw is always a single vectorised call, and
        the sharded tiers fall back in-process when the batch is too
        small to amortise process startup.
    seed:
        Root seed the per-trial streams were derived from.
    timings:
        Optional wall-clock breakdown of the batch in seconds —
        ``{"probe": dispatch-probe time, "run": execution time,
        "total": probe + run}`` for fixed budgets, ``{"total": ...}``
        for sequential runs.  Pure observability: excluded from
        equality and repr, and never part of the determinism contract
        (two bit-identical results may carry different timings).
    """

    indicators: np.ndarray
    backend: str
    workers: int
    seed: int
    confidence: float = 0.99
    timings: Optional[Mapping[str, float]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def trials(self) -> int:
        """Number of trials run."""
        return int(len(self.indicators))

    @property
    def successes(self) -> int:
        """Number of successful trials."""
        return int(np.count_nonzero(self.indicators))

    @property
    def estimate(self) -> float:
        """Point estimate of the success probability (0.0 when empty).

        A zero-length indicator vector — directly constructable, and
        what a sequential run whose target was met before the first
        extension produces — mirrors :class:`RunningTally`'s empty
        guard instead of dividing by zero.
        """
        return self.successes / self.trials if self.trials else 0.0

    def stats(self, confidence: Optional[float] = None) -> MonteCarloResult:
        """Counts plus exact Clopper–Pearson interval.

        An empty result carries the degenerate all-of-``[0, 1]``
        interval — zero trials support no narrower claim.
        """
        confidence = self.confidence if confidence is None else confidence
        lower, upper = self._interval_at("clopper_pearson", confidence)
        return MonteCarloResult(
            successes=self.successes, trials=self.trials,
            confidence=confidence, lower=lower, upper=upper,
        )

    def wilson(self, confidence: Optional[float] = None) -> Tuple[float, float]:
        """Wilson score interval on the batch counts (``(0, 1)`` empty)."""
        return self._interval_at("wilson", confidence)

    def hoeffding(self, confidence: Optional[float] = None) -> Tuple[float, float]:
        """Chernoff–Hoeffding interval on the batch counts (``(0, 1)`` empty)."""
        return self._interval_at("hoeffding", confidence)

    def bernstein(self, confidence: Optional[float] = None) -> Tuple[float, float]:
        """Empirical-Bernstein interval on the batch counts (``(0, 1)`` empty)."""
        return self._interval_at("bernstein", confidence)

    def _interval_at(self, name: str,
                     confidence: Optional[float]) -> Tuple[float, float]:
        confidence = self.confidence if confidence is None else confidence
        return _interval(name, self.successes, self.trials, confidence)

    def describe(self) -> str:
        """Human-readable one-liner for tables and logs."""
        return f"{self.stats().describe()} [{self.backend}]"


#: The stopping bounds ``TrialRunner.run_until`` accepts, mapping the
#: bound name to the ``RunningTally`` interval method it consults.
#: ``"hoeffding"`` is distribution-free with a trials-only margin;
#: ``"bernstein"`` (Maurer–Pontil) adapts to the empirical variance and
#: is the one that lets adaptive sweeps leave decisive cells early.
SEQUENTIAL_BOUNDS = ("hoeffding", "bernstein")


@dataclass(frozen=True)
class SequentialStep:
    """One extension of a sequential run: the state after it folded in.

    Attributes
    ----------
    trials, successes:
        Cumulative counts once this extension's indicators landed.
    width:
        The stopping-bound interval width at those counts — what the
        stopping rule compared against ``target_width``.
    """

    trials: int
    successes: int
    width: float


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of one :meth:`TrialRunner.run_until` sequential run.

    Wraps the final :class:`TrialResult` (whose indicators are exactly
    the prefix of a fixed-budget run under the same root seed) together
    with the per-extension trace the stopping rule walked.

    Attributes
    ----------
    result:
        The final batch over every trial actually run.
    steps:
        One :class:`SequentialStep` per extension, in order; empty when
        the target was already met at trial count zero (a
        ``target_width`` of 1.0).
    target_width:
        The interval width the run was asked to reach.
    bound:
        Stopping bound consulted (``"hoeffding"`` or ``"bernstein"``).
    met:
        Whether the final width reached the target — ``False`` means
        the run exhausted ``max_trials`` first, and the interval is
        honest but wider than asked.
    """

    result: TrialResult
    steps: Tuple[SequentialStep, ...]
    target_width: float
    bound: str
    met: bool

    @property
    def indicators(self) -> np.ndarray:
        """Per-trial success booleans of the final batch."""
        return self.result.indicators

    @property
    def trials(self) -> int:
        """Total trials actually run."""
        return self.result.trials

    @property
    def successes(self) -> int:
        """Total successful trials."""
        return self.result.successes

    @property
    def estimate(self) -> float:
        """Point estimate of the success probability."""
        return self.result.estimate

    @property
    def backend(self) -> str:
        """Backend tag the extensions ran on."""
        return self.result.backend

    @property
    def workers(self) -> int:
        """Largest process count any extension actually used."""
        return self.result.workers

    @property
    def seed(self) -> int:
        """Root seed shared by every extension."""
        return self.result.seed

    @property
    def width(self) -> float:
        """Final stopping-bound interval width (1.0 before any trial)."""
        return self.steps[-1].width if self.steps else 1.0

    def stats(self, confidence: Optional[float] = None) -> MonteCarloResult:
        """Counts plus exact Clopper–Pearson interval (final batch)."""
        return self.result.stats(confidence)

    def describe(self) -> str:
        """Human-readable one-liner for tables and logs."""
        verdict = "met" if self.met else "NOT met"
        return (f"{self.result.describe()} after {len(self.steps)} "
                f"extension(s): {self.bound} width {self.width:.4f} "
                f"(target {self.target_width:.4f} {verdict})")


def _backend(tiers: _Tiers) -> str:
    """The backend tag a dispatch triple runs on."""
    entry, batch, _ = tiers
    if entry is not None:
        return f"fastsim:{entry.name}"
    return BATCHSIM_BACKEND if batch is not None else ENGINE_BACKEND


def _default_metadata(algorithm: Algorithm) -> Dict[str, Any]:
    """``algorithm.metadata()`` when offered, else empty."""
    metadata = getattr(algorithm, "metadata", None)
    if callable(metadata):
        return metadata()
    return {}


def _trial_stream(root_seed: int, index: int) -> RngStream:
    """The canonical stream of trial ``index`` — ``root.child("mc", i)``."""
    return RngStream(derive_seed(root_seed, "mc", index), ("mc", index))


def _run_engine(algorithm: Algorithm,
                failure_model: FailureModel,
                success: Optional[SuccessPredicate],
                root_seed: int, start: int, stop: int) -> np.ndarray:
    """Run trials ``start..stop-1`` serially on the scalar engine,
    reusing one built ``algorithm`` for every trial."""
    metadata = _default_metadata(algorithm)
    indicators = np.empty(stop - start, dtype=bool)
    for offset, index in enumerate(range(start, stop)):
        result = run_execution(
            algorithm, failure_model, _trial_stream(root_seed, index),
            metadata=metadata, record_trace=False,
        )
        if success is None:
            indicators[offset] = result.is_successful_broadcast()
        else:
            indicators[offset] = success(result)
    return indicators


def _run_shard(factory: AlgorithmFactory,
               failure_model: FailureModel,
               success: Optional[SuccessPredicate],
               tier: str, root_seed: int,
               start: int, stop: int) -> np.ndarray:
    """Run trials ``start..stop-1`` of a scenario on ``tier``.

    The one shard entrypoint of both sharded tiers; top-level
    (picklable) so process pools can call it.  The shard builds the
    algorithm once and, because every trial derives its stream from
    ``(root_seed, index)`` alone, returns exactly the corresponding
    slice of an in-process run — shards merged in index order are
    bit-identical for any worker count.
    """
    if tier == ENGINE_BACKEND:
        return _run_engine(factory(), failure_model, success, root_seed,
                           start, stop)
    if tier != BATCHSIM_BACKEND:
        raise ValueError(
            f"shard tier must be {BATCHSIM_BACKEND!r} or "
            f"{ENGINE_BACKEND!r}, got {tier!r}")
    execution = batch_execution(factory(), failure_model)
    if execution is None:
        # The parent only shards scenarios its own probe accepted; a
        # worker-side rejection means the factory is not a pure
        # scenario description (e.g. it randomises eligibility).
        raise RuntimeError(
            "scenario failed the batchsim eligibility probe inside a "
            "worker process although the parent accepted it"
        )
    return execution.run_range(start, stop, root_seed)


def _resolve_spec(spec: str) -> Tuple[AlgorithmFactory, FailureModel]:
    """Resolve a canonical ``[family, p, n, params]`` JSON spec through
    the catalog; ``ValueError`` for any other string, and what the
    catalog raises for an unknown family or bad parameters."""
    from repro.experiments import registry

    try:
        family, p, n, params = json.loads(spec)
        if canonical_spec(family, p, n, params) != spec:
            raise ValueError(f"{spec[:200]!r} is not canonical")
    except (TypeError, ValueError) as error:
        raise ValueError(f"shard spec is not a canonical [family, p, n, "
                         f"params] array: {error}") from error
    return registry.resolve_scenario(family, p, n, params)


def run_spec_shard(spec: str, tier: str, root_seed: int,
                   start: int, stop: int) -> np.ndarray:
    """Run trials ``start..stop-1`` of a canonical catalog spec on
    ``tier``: the shard entrypoint of :meth:`TrialRunner.from_spec`
    runners on every executor, remote workers included."""
    return _run_shard(*_resolve_spec(spec), None, tier, root_seed,
                      start, stop)


def _record_batch(backend: str, trials: int, seconds: float) -> None:
    """Report one executed batch to the process-wide metrics registry.

    Two series per backend tier: the monotone trial counter
    ``mc.trials`` and the batch-latency histogram ``mc.run.seconds``.
    Recording is inert — counters and histograms consume no randomness
    — so instrumented runs stay bit-identical to uninstrumented ones.
    """
    registry = get_registry()
    registry.counter("mc.trials", backend=backend).inc(trials)
    registry.histogram("mc.run.seconds", backend=backend).observe(seconds)


def _shard_bounds(trials: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(trials)`` into ``shards`` contiguous near-even runs."""
    bounds = np.linspace(0, trials, shards + 1, dtype=int)
    return [
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


#: Minimum trials per batchsim process chunk.  One batchsim trial costs
#: a sliver of a numpy call, so a chunk must hold a few hundred trials
#: before the fork + eligibility-reprobe startup (milliseconds) is
#: amortised; below the floor the batch stays in-process.  An eighth
#: of the engine's ``MAX_CHUNK_TRIALS`` keeps every spawned worker's
#: first vectorised call reasonably full.
MIN_BATCHSIM_SHARD = 128


class TrialRunner:
    """Batched Monte-Carlo runner with three-tier auto-dispatch.

    Parameters
    ----------
    algorithm_factory:
        Zero-argument callable building the algorithm under test,
        invoked once per shard (not per trial).  It is pickled only to
        shard onto a ``local-process`` pool (so not a lambda there);
        remote shards need a :meth:`from_spec` runner.
    failure_model:
        The failure model shared by all trials (default
        :class:`~repro.failures.base.FaultFree`).  Failure randomness
        comes from the per-trial streams, so sharing the instance keeps
        trials independent.
    success:
        Optional predicate mapping an :class:`ExecutionResult` to a
        success boolean.  Default: ``result.is_successful_broadcast()``.
        Supplying a custom predicate disables fastsim dispatch — the
        samplers only reproduce the broadcast-success law.
    workers:
        Process count for the sharded paths — scalar-engine trial
        shards *and* batchsim trial chunks.  ``1`` runs in-process;
        batchsim runs never cut chunks smaller than
        :data:`MIN_BATCHSIM_SHARD` trials (so batches under two
        chunks' worth stay in-process, and mid-sized batches may use
        fewer processes than requested).  The per-trial indicators are
        bit-identical either way, and :attr:`TrialResult.workers`
        reports the count actually used.
    executor:
        Execution substrate for the sharded paths: ``None`` (default)
        resolves from ``workers`` exactly as before — in-process at
        ``workers=1``, a local process pool otherwise; a spec string
        (``"in-process"``, ``"local-process[:N]"``,
        ``"remote:host:port,..."``) or a
        :class:`~repro.montecarlo.executors.ShardExecutor` instance
        selects a backend explicitly (instances are shared, so a
        service can schedule many runners onto one substrate).  The
        shard-floor heuristics size shard lists against the executor's
        worker count, and by the bit-identity invariant the indicators
        do not depend on the choice.
    use_fastsim:
        Allow dispatching to a registered vectorised sampler when one
        matches the scenario.  Fallback to the next tier is automatic.
    use_batchsim:
        Allow dispatching to the vectorised :mod:`repro.batchsim`
        engine when the scenario is eligible and no fastsim sampler
        matched.  Its indicators are bit-identical to the scalar
        engine's, so disabling it (together with ``use_fastsim``) is
        only needed to time or pin the scalar path itself.
    """

    def __init__(self, algorithm_factory: AlgorithmFactory,
                 failure_model: Optional[FailureModel] = None,
                 *,
                 success: Optional[SuccessPredicate] = None,
                 workers: int = 1,
                 executor: Optional[Union[str, ShardExecutor]] = None,
                 use_fastsim: bool = True,
                 use_batchsim: bool = True):
        if not callable(algorithm_factory):
            raise TypeError(
                f"algorithm_factory must be callable, got "
                f"{type(algorithm_factory).__name__}"
            )
        if failure_model is not None and not isinstance(failure_model, FailureModel):
            raise TypeError(
                f"failure_model must be a FailureModel, got "
                f"{type(failure_model).__name__}"
            )
        self._factory = algorithm_factory
        self._failure_model = failure_model if failure_model is not None else FaultFree()
        self._success = success
        self._workers = check_positive_int(workers, "workers")
        self._executor = make_executor(executor, workers=self._workers)
        # Every sharding heuristic keys off the substrate's parallel
        # capacity, not the (possibly defaulted) workers argument, so
        # an explicit executor sizes shard lists correctly.
        self._parallelism = self._executor.worker_count()
        self._use_fastsim = bool(use_fastsim)
        self._use_batchsim = bool(use_batchsim)
        # The dispatch probe, cached by :meth:`_tiers`.
        self._probe: Optional[_Tiers] = None
        self._spec: Optional[str] = None

    @classmethod
    def from_spec(cls, family: str, p: float, n: int,
                  params: Optional[Mapping[str, Any]] = None, *,
                  workers: int = 1,
                  executor: Optional[Union[str, ShardExecutor]] = None,
                  use_fastsim: bool = True,
                  use_batchsim: bool = True) -> "TrialRunner":
        """The runner of the catalog scenario ``(family, p, n, params)``,
        resolved from its canonical JSON (:attr:`spec`) exactly as each
        of its :func:`run_spec_shard` shards resolves it.  Raises like
        :func:`~repro.experiments.registry.resolve_scenario`."""
        spec = canonical_spec(family, p, n, params or {})
        runner = cls(*_resolve_spec(spec), workers=workers,
                     executor=executor, use_fastsim=use_fastsim,
                     use_batchsim=use_batchsim)
        runner._spec = spec
        return runner

    @property
    def spec(self) -> Optional[str]:
        """The canonical wire spec of a :meth:`from_spec` runner (what
        its shards carry), ``None`` for a factory-built one."""
        return self._spec

    @property
    def algorithm_factory(self) -> AlgorithmFactory:
        """The scenario's algorithm factory (what shards rebuild from)."""
        return self._factory

    @property
    def failure_model(self) -> FailureModel:
        """The shared failure model."""
        return self._failure_model

    @property
    def workers(self) -> int:
        """Requested process count for the sharded paths (engine shards
        and batchsim chunks); :attr:`TrialResult.workers` reports what a
        run actually used."""
        return self._workers

    @property
    def shard_executor(self) -> ShardExecutor:
        """The resolved execution substrate behind the sharded paths."""
        return self._executor

    def dispatch_entry(self) -> Optional[SamplerEntry]:
        """The fastsim sampler this runner would dispatch to, if any."""
        return self._tiers()[0]

    def dispatch_backend(self) -> str:
        """The backend tag ``run()`` and ``run_until()`` report."""
        return _backend(self._tiers())

    def _tiers(self) -> _Tiers:
        """The ``(sampler entry, batch execution, algorithm)`` dispatch triple.

        Probed once per runner, so the factory, the registry scan and
        the batchsim eligibility check run once no matter how many
        batches follow — algorithms are immutable (all per-run state
        lives in their protocols) and safe to share, so the engine tier
        reuses the probed algorithm too.  A custom success predicate
        disables both vectorised tiers: they only reproduce the
        broadcast-success law.
        """
        if self._probe is None:
            algorithm = self._factory()
            vectorised = self._success is None
            entry = (find_sampler(algorithm, self._failure_model)
                     if vectorised and self._use_fastsim else None)
            batch = (batch_execution(algorithm, self._failure_model)
                     if vectorised and self._use_batchsim and entry is None
                     else None)
            self._probe = (entry, batch, algorithm)
        return self._probe

    def run(self, trials: int, seed_or_stream=0,
            confidence: float = 0.99,
            progress: Optional[Callable[[RunningTally], None]] = None
            ) -> TrialResult:
        """Run ``trials`` independent trials and collect the indicators.

        Parameters
        ----------
        trials:
            Number of independent trials.
        seed_or_stream:
            Root randomness.  On the engine and batchsim paths trial
            ``i`` draws from ``root.child("mc", i)`` regardless of
            worker count or batch chunking; a dispatched fastsim
            sampler consumes the root stream directly.  Either way the
            result is a pure function of the root seed.
        confidence:
            Default confidence level stored on the result.
        progress:
            Optional callback receiving the :class:`RunningTally` as
            each shard folds in, in shard order (sharded engine and
            batchsim paths), or once (fastsim and in-process paths).
        """
        trials = check_positive_int(trials, "trials")
        confidence = check_probability(confidence, "confidence",
                                       allow_zero=False)
        stream = as_stream(seed_or_stream)
        probe_start = time.perf_counter()
        tiers = self._tiers()
        run_start = time.perf_counter()
        indicators, workers = self._run_range(
            tiers, 0, trials, stream, RunningTally(), progress
        )
        run_seconds = time.perf_counter() - run_start
        probe_seconds = run_start - probe_start
        backend = _backend(tiers)
        _record_batch(backend, trials, run_seconds)
        return TrialResult(
            indicators=indicators, backend=backend,
            workers=workers, seed=stream.seed, confidence=confidence,
            timings={"probe": probe_seconds, "run": run_seconds,
                     "total": probe_seconds + run_seconds},
        )

    def run_until(self, target_width: float, max_trials: int,
                  seed_or_stream=0, confidence: float = 0.99, *,
                  bound: str = "hoeffding",
                  initial_trials: int = 512,
                  progress: Optional[Callable[[RunningTally], None]] = None
                  ) -> SequentialResult:
        """Grow the batch in powers of two until the interval is narrow.

        Budgets run ``initial_trials → 2·initial_trials → …``, capped
        at ``max_trials``; after each extension folds into the running
        tally, the run stops as soon as the ``bound`` interval width at
        ``confidence`` drops to ``target_width`` or below.  The
        stopping rule is a pure function of the per-trial indicator
        prefix, so determinism and bit-identity carry over from
        :meth:`run`: the indicators of a sequential run are **exactly
        the prefix** of a fixed-budget run under the same root seed, on
        every backend and for any worker count, and the stopping point
        itself is deterministic per root seed.

        Per tier, extensions work as follows.  Engine and batchsim
        extensions execute the absolute trial range ``[prev, next)`` —
        trial ``i`` draws from ``root.child("mc", i)`` whatever the
        range bounds, so prefix identity is free.  A dispatched fastsim
        sampler re-draws the whole grown prefix from a fresh root
        stream and folds in only the tail, which every sampler's prefix
        contract (:class:`repro.montecarlo.dispatch.SamplerEntry`)
        makes exact.

        Parameters
        ----------
        target_width:
            Stop once ``upper - lower`` of the stopping bound is at or
            below this; in ``(0, 1]`` (1.0 is met by the empty tally,
            yielding a zero-trial result).
        max_trials:
            Hard budget cap.  When it is hit before the target, the
            result reports ``met=False`` with the honest final width.
        bound:
            ``"hoeffding"`` (trials-only margin) or ``"bernstein"``
            (Maurer–Pontil, variance-adaptive — decisive cells stop
            after a few hundred trials).
        initial_trials:
            First extension's budget (default 512).
        progress:
            As in :meth:`run`: called with the running tally as each
            shard of each extension folds in.

        Returns
        -------
        A :class:`SequentialResult`: the final :class:`TrialResult`
        plus one :class:`SequentialStep` per extension.
        """
        target_width = check_probability(target_width, "target_width",
                                         allow_zero=False, allow_one=True)
        max_trials = check_positive_int(max_trials, "max_trials")
        initial_trials = check_positive_int(initial_trials, "initial_trials")
        confidence = check_probability(confidence, "confidence",
                                       allow_zero=False)
        if bound not in SEQUENTIAL_BOUNDS:
            raise ValueError(
                f"bound must be one of {SEQUENTIAL_BOUNDS}, got {bound!r}"
            )
        root_seed = as_stream(seed_or_stream).seed
        tiers = self._tiers()
        backend = _backend(tiers)
        tally = RunningTally()
        steps: List[SequentialStep] = []
        pieces: List[np.ndarray] = []
        used_workers = 1
        budget = 0
        total_seconds = 0.0
        width = self._bound_width(tally, bound, confidence)
        while width > target_width and budget < max_trials:
            next_budget = min(
                initial_trials if budget == 0 else 2 * budget, max_trials
            )
            extension_start = time.perf_counter()
            # A fresh root stream per extension: a fastsim sampler
            # re-draws the whole grown prefix and keeps only the tail.
            part, workers = self._run_range(
                tiers, budget, next_budget, as_stream(root_seed), tally,
                progress,
            )
            extension_seconds = time.perf_counter() - extension_start
            total_seconds += extension_seconds
            _record_batch(backend, int(len(part)), extension_seconds)
            pieces.append(part)
            used_workers = max(used_workers, workers)
            budget = next_budget
            width = self._bound_width(tally, bound, confidence)
            steps.append(SequentialStep(
                trials=tally.trials, successes=tally.successes, width=width,
            ))
        indicators = (np.concatenate(pieces) if pieces
                      else np.zeros(0, dtype=bool))
        result = TrialResult(
            indicators=indicators, backend=backend,
            workers=used_workers, seed=root_seed, confidence=confidence,
            timings={"total": total_seconds},
        )
        return SequentialResult(
            result=result, steps=tuple(steps), target_width=target_width,
            bound=bound, met=width <= target_width,
        )

    def _run_range(self, tiers: _Tiers, start: int, stop: int,
                   stream: RngStream, tally: RunningTally,
                   progress: Optional[Callable[[RunningTally], None]]
                   ) -> Tuple[np.ndarray, int]:
        """Run trials ``start..stop-1`` on ``tiers``; the one range core.

        :meth:`run` is the range ``[0, T)`` and every :meth:`run_until`
        extension is ``[prev, next)``.  Engine and batchsim trial ``i``
        draws from ``root.child("mc", i)`` whatever the range bounds, so
        ranges concatenate bit-identically; a fastsim sampler draws
        ``stop`` trials from ``stream`` and keeps ``[start, stop)``.
        Shards fold into ``tally`` in order as they land.  Returns the
        range's indicators and the worker count it actually used.
        """
        entry, batch, algorithm = tiers
        fold = self._fold_shard(tally, progress)
        if entry is not None:
            indicators = np.asarray(
                entry.sample(algorithm, self._failure_model, stop, stream),
                dtype=bool,
            )[start:]
            fold(0, indicators)
            return indicators, 1
        root_seed = stream.seed
        length = stop - start
        bounds = _shard_bounds(length,
                               self._shard_count(length, batch is not None))
        if len(bounds) <= 1:
            if batch is not None:
                indicators = batch.run_range(start, stop, root_seed)
            else:
                indicators = _run_engine(
                    algorithm, self._failure_model, self._success,
                    root_seed, start, stop,
                )
            fold(0, indicators)
            return indicators, 1
        if self._spec is not None:
            function, head = run_spec_shard, (self._spec,)
        else:
            function, head = _run_shard, (
                self._factory, self._failure_model, self._success)
        tier = _backend(tiers)
        parts = self._executor.run_sharded(
            function,
            [head + (tier, root_seed, lo + start, hi + start)
             for lo, hi in bounds],
            on_result=fold,
        )
        return np.concatenate(parts), min(self._parallelism, len(bounds))

    @staticmethod
    def _bound_width(tally: RunningTally, bound: str,
                     confidence: float) -> float:
        """Interval width of the stopping bound on the current counts."""
        lower, upper = _interval(bound, tally.successes, tally.trials,
                                 confidence)
        return upper - lower

    @staticmethod
    def _fold_shard(tally: RunningTally,
                    progress: Optional[Callable[[RunningTally], None]]
                    ) -> Callable[[int, np.ndarray], None]:
        """The executor's in-order shard callback: fold counts as they land."""

        def fold(index: int, part: np.ndarray) -> None:
            tally.update(part)
            if progress is not None:
                progress(tally)

        return fold

    def _shard_count(self, trials: int, batchsim: bool) -> int:
        """Shards for a range of ``trials`` on the executor's workers.

        Batchsim chunks have uniform per-trial cost, so one chunk per
        worker, never under :data:`MIN_BATCHSIM_SHARD` trials, minimises
        the per-process eligibility-reprobe overhead.  Engine trials
        vary in cost, so a few shards per worker balance the load.
        """
        if self._parallelism == 1:
            return 1
        if batchsim:
            return min(self._parallelism,
                       max(1, trials // MIN_BATCHSIM_SHARD))
        return min(trials, self._parallelism * 4)
