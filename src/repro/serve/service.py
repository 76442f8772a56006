"""The always-on simulation service (in-process API).

:class:`SimulationService` is the asyncio serving layer over the
experiment machinery: clients submit :class:`Query` objects naming a
registered scenario family (:mod:`repro.serve.catalog`) plus
``(p, n, trials, seed)``, and the service answers with an exact
:class:`Answer`.  The wire protocol (:mod:`repro.serve.protocol`) and
the synthetic traffic generator (:mod:`repro.serve.traffic`) both
drive this same API.

Every query kind — a fixed-budget Monte-Carlo :class:`Query`, an exact
(combinatorial) :class:`Query`, and an adaptive :class:`SequentialQuery`
— runs through one pipeline, fed by a small per-kind plan::

    validate       field and range checks for the query kind
    resolve        canonical spec -> (factory, failure model) ->
                   TrialRunner (memoised on the spec); the plan names
                   the blocking run
    fingerprint    scenario_fingerprint(spec, trials, seed)
    cache          exact LRU hit?  ->  answer (source="cache")
    admit          fresh work takes a bounded run slot
                   (serve/admission.py) or sheds with `overloaded`
    coalesce       single flight per key: concurrent identical
                   queries await one run on the thread executor and
                   get the same result object; fastsim misses skip
                   this step (one closed-form draw is cheaper than
                   the bookkeeping)
    memoise        completed results enter the LRU and, when a
                   memo journal is configured (serve/persistence.py),
                   the on-disk journal — restarts rehydrate it

The kinds differ only in their plan.  A :class:`SequentialQuery`
(:meth:`SimulationService.submit_until`) drives
:meth:`TrialRunner.run_until`, coalesces on ``(fingerprint,
target_width)`` and is memo-keyed on the scenario alone — because
sequential indicators are bit-identical *prefixes* of each other, a
cached stricter run answers any wider-target query by truncation,
byte-identically.  A purely combinatorial family (``kind="exact"``,
E10) runs its zero-argument ``compute`` instead of a Monte-Carlo batch
and is served as a single-indicator ``backend="exact"`` result.

A scenario has one identity: its **canonical spec**, the sorted-key
JSON of ``[family, p, n, params]`` (:meth:`SimulationService._spec`).
It keys the runner memo and is what the fingerprint hashes.
Everything rests on the repo's determinism invariant: a result is a
pure function of ``(spec, seed, trials)``, so the cache is exact and
coalesced waiters lose nothing — bit-identical indicators either way.

Every query runs under a ``serve.query`` span (:mod:`repro.obs`)
whose resolve / fingerprint / cache / run / coalesce phases are child
spans, so per-phase latency histograms (``serve.query.seconds``,
``serve.run.seconds``, ...) and the slow-query log come for free.  The
instrumentation is inert by construction — wall-clock reads only,
never the experiment RNG — so answers stay bit-identical with metrics
on or off.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import Counter
from concurrent.futures import Executor
from dataclasses import dataclass, field
from hashlib import sha256
from functools import partial
from typing import (Any, Callable, Dict, Mapping, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from repro._validation import check_positive_int
from repro.experiments.registry import (
    FAMILY_EXACT,
    Param,
    ScenarioFamily,
    get_family,
    resolve_scenario,
)
from repro.montecarlo import (
    ShardExecutor,
    TrialResult,
    TrialRunner,
    make_executor,
    scenario_fingerprint,
)
from repro.montecarlo.fingerprint import canonical_spec
from repro.montecarlo.trials import SEQUENTIAL_BOUNDS, SequentialResult
from repro.obs import span
from repro.serve.admission import AdmissionController
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.coalescer import Coalescer
from repro.serve.errors import OverloadedError, QueryError
from repro.serve.persistence import MemoJournal

__all__ = ["Query", "SequentialQuery", "Answer", "SequentialAnswer",
           "SimulationService", "ServiceStats", "QueryError",
           "OverloadedError"]

#: Source tags an :class:`Answer` can carry.
SOURCE_COMPUTED = "computed"
SOURCE_COALESCED = "coalesced"
SOURCE_CACHE = "cache"

#: Backend tag of purely combinatorial (``kind="exact"``) answers.
BACKEND_EXACT = "exact"

#: Sequential-run constants baked into the ``run_until`` memo key.
#: Pinning them keeps the key space one-dimensional in ``target_width``
#: — which is exactly what lets a stricter cached run serve every wider
#: target by prefix truncation.
SEQUENTIAL_CONFIDENCE = 0.99
SEQUENTIAL_INITIAL_TRIALS = 512


@dataclass(frozen=True)
class Query:
    """One simulation request.

    Attributes
    ----------
    scenario:
        Registered scenario-family name (see
        ``repro.experiments.registry.all_families()``).
    p:
        Transmission-failure probability handed to the family builder.
    n:
        Family-specific size parameter (each family documents what it
        selects — line length, grid side, tree depth).
    trials:
        Monte-Carlo trial count; with ``seed`` it completes the
        fingerprint, so distinct trial counts are distinct cache
        entries (as they must be — indicators differ in length).
        Exact (combinatorial) families require ``trials=1``.
    seed:
        Root seed of the per-trial streams (``0`` for exact families).
    params:
        Optional family-specific extras (e.g. ``phase_length``).
    """

    scenario: str
    p: float
    n: int
    trials: int
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SequentialQuery:
    """One adaptive request: run until the interval is narrow enough.

    Drives :meth:`TrialRunner.run_until` — the budget doubles from
    ``512`` until the ``bound`` interval width at 99% confidence
    reaches ``target_width``, capped at ``max_trials`` (the ``met``
    flag on the answer is honest about which happened).
    """

    scenario: str
    p: float
    n: int
    target_width: float
    max_trials: int
    seed: int = 0
    bound: str = "hoeffding"
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Answer:
    """The service's reply: the exact result plus serving metadata."""

    query: Query
    result: TrialResult
    fingerprint: str
    source: str
    elapsed: float

    @property
    def estimate(self) -> float:
        """Success-probability point estimate."""
        return self.result.estimate

    @property
    def successes(self) -> int:
        """Successful trials."""
        return self.result.successes

    @property
    def trials(self) -> int:
        """Trials run."""
        return self.result.trials

    @property
    def backend(self) -> str:
        """Dispatch backend that produced the indicators."""
        return self.result.backend

    def indicators_digest(self) -> str:
        """SHA-256 over the raw indicator bytes.

        What the wire protocol sends instead of the vector itself:
        clients can assert byte-identity of replays (cache hits,
        coalesced answers, cross-server reruns) without shipping
        ``trials`` booleans.
        """
        return sha256(self.result.indicators.tobytes()).hexdigest()


@dataclass(frozen=True)
class SequentialAnswer:
    """The adaptive reply: the sequential trace plus serving metadata."""

    query: SequentialQuery
    sequential: SequentialResult
    fingerprint: str
    source: str
    elapsed: float

    @property
    def result(self) -> TrialResult:
        """The final batch over every trial actually run."""
        return self.sequential.result

    @property
    def estimate(self) -> float:
        """Success-probability point estimate."""
        return self.result.estimate

    @property
    def met(self) -> bool:
        """Whether the target width was reached within the cap."""
        return self.sequential.met

    @property
    def width(self) -> float:
        """The final stopping-bound interval width (1.0 pre-extension)."""
        steps = self.sequential.steps
        return steps[-1].width if steps else 1.0

    def indicators_digest(self) -> str:
        """SHA-256 over the raw indicator bytes (see :class:`Answer`)."""
        return sha256(self.result.indicators.tobytes()).hexdigest()


@dataclass(frozen=True)
class ServiceStats:
    """Counters since service creation (all monotone except gauges).

    ``uptime_seconds`` is wall clock since the service object was
    built; the three ``coalesce_*`` fields surface the single-flight
    coalescer's tallies (``coalesce_inflight`` is the only
    non-monotone value here — keys being computed right now);
    ``overloaded`` counts queries shed by admission control.
    """

    queries: int
    computed: int
    coalesced_hits: int
    cache_hits: int
    fastsim_answers: int
    errors: int
    cache: CacheStats
    uptime_seconds: float = 0.0
    coalesce_inflight: int = 0
    coalesce_started: int = 0
    coalesce_joined: int = 0
    overloaded: int = 0
    #: The shard substrate batches are scheduled onto: backend name,
    #: worker count and (for the remote backend) the peer list — the
    #: deployment-at-a-glance block the ``stats`` wire op exposes.
    executor: Mapping[str, Any] = field(default_factory=dict)

    @property
    def shared_work_rate(self) -> float:
        """Queries answered without a fresh execution (coalesced or
        cached) over all successful queries — the duplicate-heavy-load
        metric the service exists to maximise."""
        answered = self.queries - self.errors
        if answered <= 0:
            return 0.0
        return (self.coalesced_hits + self.cache_hits) / answered


#: The query fields besides the scenario spec and the trial count,
#: declared like family params.
_SEED = Param("int", low=0, high=float("inf"))
_TARGET_WIDTH = Param("number", low=0, high=1, open=(True, False))
_BOUND = Param("choice", choices=SEQUENTIAL_BOUNDS)
#: An exact family's one batch shape: any other would fragment the memo
#: across keys whose answers are identical by construction.
_EXACT_FIELDS = (("trials", Param("int", low=1, high=1)),
                 ("seed", Param("int", low=0, high=0)))


class _Plan(NamedTuple):
    """What one query kind contributes to the shared serving pipeline."""

    #: ``scenario_fingerprint`` arguments: canonical spec, trials and
    #: seed.
    key: Tuple[str, int, int]
    #: The fingerprint's ``extra`` discriminator.
    extra: Any
    #: The blocking cache-miss run, hosted on the thread executor.
    compute: Callable[[], Union[TrialResult, SequentialResult]]
    #: ``serve.run`` span tag.
    tier: str
    #: Admission op class.
    op: str = "query"
    #: ``run_until`` target width; ``None`` for fixed-budget kinds.
    target: Optional[float] = None
    #: The Monte-Carlo runner, whose fastsim misses skip coalescing.
    runner: Optional[TrialRunner] = None


def _exact_result(compute: Callable[[], object]) -> TrialResult:
    """An exact family's verdict as a single-indicator result."""
    return TrialResult(indicators=np.array([bool(compute())], dtype=bool),
                       backend=BACKEND_EXACT, workers=1, seed=0)


def _truncate_sequential(cached: SequentialResult,
                         target_width: float) -> Optional[SequentialResult]:
    """Serve ``target_width`` from a cached (stricter) run, if valid.

    Sequential indicators are bit-identical prefixes: a run asked for a
    *wider* target walks the same extension trace and stops at the
    first step whose width clears it, so the cached run's prefix up to
    that step IS the fresh answer.  A cached run that exhausted its cap
    (``met=False``) is the full trace any target would produce.
    Returns ``None`` when the cached run stopped early of what
    ``target_width`` needs — the caller recomputes (and the stricter
    fresh run then replaces the cache entry, extending it).
    """
    for index, step in enumerate(cached.steps):
        if step.width <= target_width:
            result = dataclasses.replace(
                cached.result,
                indicators=cached.result.indicators[:step.trials],
                timings=None,
            )
            return SequentialResult(
                result=result, steps=cached.steps[:index + 1],
                target_width=target_width, bound=cached.bound, met=True,
            )
    if not cached.met:
        # Capped run: a stricter target runs the identical trace and
        # caps too — only the honest `met` recomputation (still False
        # here: no step cleared the target) differs.
        return SequentialResult(
            result=cached.result, steps=cached.steps,
            target_width=target_width, bound=cached.bound, met=False,
        )
    return None


class SimulationService:
    """Always-on query service over the scenario-family catalog.

    Parameters
    ----------
    workers:
        Process count handed to every :class:`TrialRunner` (sharded
        batchsim/engine execution under the hood).
    cache_capacity:
        LRU capacity of the exact result memo (``0`` disables
        memoisation — the cache becomes a pure pass-through).
    max_trials:
        Per-query trial ceiling — a serving-layer guard against a
        single wire query monopolising the machine.  Also caps a
        sequential query's ``max_trials``.
    executor:
        Optional *thread* executor hosting the blocking batch runs;
        ``None`` uses the event loop's default thread pool.
    shard_executor:
        The shard substrate every resolved runner schedules its
        batches onto: ``None`` resolves from ``workers`` (in-process
        or local pool, the historical behaviour), a spec string
        (e.g. ``"remote:host:port,host:port"`` — the
        ``--executor-workers`` serve flag) or a pre-built
        :class:`~repro.montecarlo.executors.ShardExecutor` schedules
        Monte-Carlo work onto an explicit substrate, e.g. a remote
        worker fleet.  One instance is shared by every runner; cache,
        coalescing and admission semantics are untouched because by
        the bit-identity invariant answers do not depend on placement.
    memo_path:
        Optional path to the persistent memo journal
        (:mod:`repro.serve.persistence`).  On construction the journal
        is replayed into the LRU, so a restarted server serves warm
        queries from cache, byte-identically; every fresh compute is
        appended.
    admission:
        Optional pre-built :class:`AdmissionController` (for per-op
        limit maps); ``None`` builds one from the three knobs below.
    max_concurrent_runs:
        Fresh executions allowed in flight per op class.
    max_queued_runs:
        Runs allowed to wait per op class before the service sheds
        with a structured ``overloaded`` error.
    retry_after_ms:
        Base retry hint carried by ``overloaded`` errors.

    The service is single-loop: all bookkeeping (cache, coalescer,
    journal, admission counters) happens on the event-loop thread,
    while batch execution runs on executor threads (and, for sharded
    runs, worker processes).
    """

    def __init__(self, *, workers: int = 1, cache_capacity: int = 256,
                 max_trials: int = 1_000_000,
                 executor: Optional[Executor] = None,
                 shard_executor: Optional[Union[str, ShardExecutor]] = None,
                 memo_path: Optional[str] = None,
                 admission: Optional[AdmissionController] = None,
                 max_concurrent_runs: int = 8,
                 max_queued_runs: int = 64,
                 retry_after_ms: float = 250.0):
        self._workers = check_positive_int(workers, "workers")
        self._shard_executor = make_executor(shard_executor,
                                             workers=self._workers)
        self._trials = Param("int", low=1, high=check_positive_int(
            max_trials, "max_trials"))
        self._cache = ResultCache(cache_capacity)
        self._coalescer = Coalescer()
        self._executor = executor
        self._admission = admission if admission is not None else (
            AdmissionController(
                max_waiting=max_queued_runs,
                retry_after_ms=retry_after_ms,
                default_limit=max_concurrent_runs,
            )
        )
        self._journal: Optional[MemoJournal] = None
        if memo_path is not None:
            self._journal = MemoJournal(memo_path)
            for key, value in self._journal.load():
                self._cache.put(key, value)
        # Scenario resolution is itself worth memoising: building a
        # runner validates the spec and re-probes dispatch (builds the
        # algorithm, scans the registry, checks batchsim eligibility).
        # Keyed by the canonical spec, bounded like the result cache;
        # an exact family's entry is its ``compute``.
        self._runners: Dict[str, Any] = {}
        self._queries = 0
        self._answers: "Counter[str]" = Counter()
        self._fastsim_answers = 0
        self._errors: "Counter[str]" = Counter()
        self._started_monotonic = time.monotonic()

    @property
    def workers(self) -> int:
        """Process count each runner shards over."""
        return self._workers

    @property
    def shard_executor(self) -> ShardExecutor:
        """The shared shard substrate every runner schedules onto."""
        return self._shard_executor

    @property
    def admission(self) -> AdmissionController:
        """The run-queue admission controller."""
        return self._admission

    @property
    def journal(self) -> Optional[MemoJournal]:
        """The persistent memo journal, when one is configured."""
        return self._journal

    @property
    def errors(self) -> Mapping[str, int]:
        """Failed queries by error code."""
        return self._errors

    def stats(self) -> ServiceStats:
        """Current counter snapshot."""
        return ServiceStats(
            queries=self._queries, computed=self._answers[SOURCE_COMPUTED],
            coalesced_hits=self._answers[SOURCE_COALESCED],
            cache_hits=self._answers[SOURCE_CACHE],
            fastsim_answers=self._fastsim_answers,
            errors=sum(self._errors.values()),
            cache=self._cache.stats(),
            uptime_seconds=time.monotonic() - self._started_monotonic,
            coalesce_inflight=self._coalescer.inflight(),
            coalesce_started=self._coalescer.started,
            coalesce_joined=self._coalescer.joined,
            overloaded=self._errors.get("overloaded", 0),
            executor=self._shard_executor.describe(),
        )

    def close(self) -> None:
        """Flush and close the memo journal (idempotent)."""
        if self._journal is not None:
            self._journal.close()

    # -- resolution ----------------------------------------------------

    def _family(self, scenario: str) -> ScenarioFamily:
        if not isinstance(scenario, str) or not scenario:
            raise QueryError("bad-request",
                             "scenario must be a non-empty string")
        try:
            return get_family(scenario)
        except KeyError as error:
            raise QueryError("unknown-scenario",
                             str(error.args[0])) from error

    @staticmethod
    def _spec(query: Union[Query, SequentialQuery]) -> str:
        """The query's canonical spec: its one scenario identity.

        Two spellings of one scenario (an omitted param vs. its
        explicit default) get distinct specs — a lost cache hit, never
        a wrong answer.  What JSON cannot encode (NaN, a numpy array, a
        non-numeric ``p``) is a ``bad-parameters`` error.
        """
        try:
            return canonical_spec(query.scenario, query.p, query.n,
                                  query.params)
        except (TypeError, ValueError) as error:
            raise QueryError("bad-parameters",
                             f"scenario spec is not canonical: {error}"
                             ) from error

    def _resolve(self, query: Union[Query, SequentialQuery], spec: str,
                 family: ScenarioFamily) -> Any:
        """The ``TrialRunner`` for this query's scenario, or an exact
        family's ``compute``, memoised on its canonical ``spec``: a hit
        neither validates nor builds."""
        resolved = self._runners.get(spec)
        if resolved is None:
            try:
                if family.kind == FAMILY_EXACT:
                    resolved = resolve_scenario(query.scenario, query.p,
                                                query.n, query.params)[0]
                else:
                    resolved = TrialRunner.from_spec(
                        query.scenario, query.p, query.n, query.params,
                        workers=self._workers,
                        executor=self._shard_executor)
            except (TypeError, ValueError) as error:
                raise QueryError("bad-parameters", str(error)) from error
            if len(self._runners) >= max(self._cache.capacity, 1):
                self._runners.pop(next(iter(self._runners)))
            self._runners[spec] = resolved
        return resolved

    def _check_fields(self, query: Union[Query, SequentialQuery],
                      fields: Tuple[Tuple[str, Param], ...],
                      context: str = "") -> None:
        """``bad-request`` unless each named query field is legal."""
        try:
            for name, param in fields:
                param.check(name, getattr(query, name))
        except ValueError as error:
            raise QueryError("bad-request", f"{context}{error}") from error

    # -- plans ---------------------------------------------------------

    def _plan(self, query: Union[Query, SequentialQuery]) -> _Plan:
        """Validate and resolve ``query`` into its kind's pipeline plan."""
        family = self._family(query.scenario)
        exact = family.kind == FAMILY_EXACT
        if isinstance(query, SequentialQuery):
            if exact:
                raise QueryError(
                    "bad-request",
                    f"scenario {query.scenario!r} is exact "
                    f"(combinatorial); run_until does not apply"
                )
            self._check_fields(query, (
                ("target_width", _TARGET_WIDTH),
                ("max_trials", self._trials), ("bound", _BOUND),
                ("seed", _SEED)))
        else:
            self._check_fields(query, (("trials", self._trials),
                                       ("seed", _SEED)))
            if exact:
                self._check_fields(query, _EXACT_FIELDS, (
                    f"scenario {query.scenario!r} is exact "
                    f"(combinatorial); "))
        spec = self._spec(query)
        resolved = self._resolve(query, spec, family)
        if isinstance(query, SequentialQuery):
            target = float(query.target_width)
            return _Plan(
                key=(spec, query.max_trials, query.seed),
                extra=("run_until", query.bound, SEQUENTIAL_CONFIDENCE,
                       SEQUENTIAL_INITIAL_TRIALS),
                compute=partial(resolved.run_until, target,
                                query.max_trials, query.seed,
                                SEQUENTIAL_CONFIDENCE, bound=query.bound,
                                initial_trials=SEQUENTIAL_INITIAL_TRIALS),
                tier="run_until", op="run_until", target=target,
            )
        if exact:
            return _Plan(key=(spec, 1, 0), extra="exact-search",
                         compute=partial(_exact_result, resolved),
                         tier="exact")
        return _Plan(
            key=(spec, query.trials, query.seed),
            extra=None,
            compute=partial(resolved.run, query.trials, query.seed),
            tier="montecarlo", runner=resolved,
        )

    def fingerprint(self, query: Union[Query, SequentialQuery]) -> str:
        """The canonical memo key this query resolves to.

        A ``run_until`` key deliberately **excludes** ``target_width``:
        every target over the same ``(scenario, seed, bound,
        max_trials)`` shares one key, because sequential indicator
        vectors are bit-identical prefixes of each other — the cache
        keeps the strictest run seen and truncates it for wider
        targets.
        """
        plan = self._plan(query)
        return scenario_fingerprint(*plan.key, extra=plan.extra)

    # -- memo ----------------------------------------------------------

    def _memoise(self, fingerprint: str,
                 result: Union[TrialResult, SequentialResult]) -> None:
        self._cache.put(fingerprint, result)
        if self._journal is None:
            return
        self._journal.append(fingerprint, result)
        # Compact once superseded records dominate the file.  With a
        # pass-through cache (capacity 0) the journal *is* the memo, so
        # compacting against the empty cache would erase it — skip.
        if (self._cache.capacity > 0
                and self._journal.record_count
                > max(32, 2 * self._cache.capacity)):
            self._journal.compact(self._cache.items())

    # -- serving -------------------------------------------------------

    async def submit(self, query: Query) -> Answer:
        """Answer one query (exactly; see the module docstring's flow).

        Raises :class:`QueryError` for client-side problems (including
        :class:`OverloadedError` when admission control sheds the run).
        """
        return await self._serve(query)

    async def submit_until(self, query: SequentialQuery) -> SequentialAnswer:
        """Answer one adaptive query via :meth:`TrialRunner.run_until`.

        Coalesces concurrent identical queries on ``(fingerprint,
        target_width)``; the memo key excludes the target, so any
        cached stricter run serves a wider target by prefix truncation
        (byte-identical, per the sequential prefix invariant).
        """
        return await self._serve(query)

    async def _serve(self, query: Union[Query, SequentialQuery]
                     ) -> Union[Answer, SequentialAnswer]:
        """The one pipeline every query kind runs through."""
        start = time.perf_counter()
        self._queries += 1
        try:
            with span("serve.query", scenario=query.scenario):
                with span("serve.resolve"):
                    plan = self._plan(query)
                with span("serve.fingerprint"):
                    fingerprint = scenario_fingerprint(*plan.key,
                                                       extra=plan.extra)
                with span("serve.cache"):
                    cached = self._cache.get(fingerprint)
                if plan.target is None:
                    answer = Answer
                    served = (cached if isinstance(cached, TrialResult)
                              else None)
                else:
                    answer = SequentialAnswer
                    served = (_truncate_sequential(cached, plan.target)
                              if isinstance(cached, SequentialResult)
                              else None)
                if served is not None:
                    self._answers[SOURCE_CACHE] += 1
                    return answer(query, served, fingerprint, SOURCE_CACHE,
                                  time.perf_counter() - start)
                # Fastsim tier: one closed-form vectorised draw — cheaper
                # than coalescing bookkeeping would save, so it runs
                # uncoalesced, but it is still fresh work and takes an
                # admission slot.
                fastsim = (plan.runner is not None
                           and plan.runner.dispatch_entry() is not None)
                tier = "fastsim" if fastsim else plan.tier

                async def compute() -> Any:
                    async with self._admission.admit(plan.op):
                        with span("serve.run", tier=tier):
                            loop = asyncio.get_running_loop()
                            return await loop.run_in_executor(
                                self._executor, plan.compute)

                if fastsim:
                    result, coalesced = await compute(), False
                    self._fastsim_answers += 1
                else:
                    # run_until flights are per target; its memo key is not.
                    flight = (fingerprint if plan.target is None
                              else (fingerprint, plan.target))
                    with span("serve.coalesce"):
                        result, coalesced = await self._coalescer.run(
                            flight, compute)
                if not coalesced:
                    self._memoise(fingerprint, result)
                source = SOURCE_COALESCED if coalesced else SOURCE_COMPUTED
                self._answers[source] += 1
                return answer(query, result, fingerprint, source,
                              time.perf_counter() - start)
        except Exception as error:
            # Anything else reaches the client as ``internal``.
            code = error.code if isinstance(error, QueryError) else "internal"
            self._errors[code] += 1
            raise

