"""Seeded synthetic traffic for exercising the simulation service.

Real serving load for this repo is duplicate-heavy: threshold-curve
dashboards and sweep notebooks keep re-asking for the same
``(scenario, p, n, trials, seed)`` cells.  The generator reproduces
that shape — it draws each query from a small *pool* of distinct
queries, so with ``queries >> pool_size`` most requests are duplicates
and the coalescer/cache should absorb them.

Everything is seeded (``random.Random``), so a traffic run is
reproducible: same seed, same query sequence.  The generator can drive
the in-process :class:`~repro.serve.service.SimulationService` API
directly or a live TCP server via the wire protocol.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro._validation import check_positive_int
from repro.obs import Histogram
from repro.serve.protocol import query_many
from repro.serve.service import (
    OverloadedError,
    Query,
    QueryError,
    SimulationService,
)

__all__ = ["TrafficReport", "make_query_pool", "run_inprocess",
           "run_over_wire"]

#: Default Monte-Carlo scenario cells the pool draws from.  Small sizes
#: and trial counts keep a burst cheap while still forcing real
#: batchsim executions (these families have no fastsim closed form).
_MONTE_CARLO_CELLS: Tuple[Tuple[str, float, int], ...] = (
    ("windowed-malicious", 0.2, 2),
    ("windowed-malicious", 0.4, 2),
    ("kucera-flip", 0.3, 4),
    ("kucera-flip", 0.1, 6),
)


@dataclass
class TrafficReport:
    """What a traffic run observed (the smoke test's assertion surface).

    ``p50_seconds`` / ``p95_seconds`` are per-query latency
    percentiles, bucket-interpolated from an
    :class:`repro.obs.Histogram` over the same fixed latency buckets
    the serving metrics use — so the traffic summary and a Prometheus
    dashboard quantile over ``serve_query_seconds_bucket`` agree on
    resolution.  Both are 0.0 when no query succeeded.
    """

    queries: int
    elapsed: float
    sources: Dict[str, int] = field(default_factory=dict)
    errors: int = 0
    distinct_fingerprints: int = 0
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0
    #: Errors that were admission-control sheds (a subset of
    #: ``errors``): the server answered ``overloaded`` instead of
    #: queueing unboundedly.  Non-zero under a saturating burst is the
    #: backpressure working, not a bug.
    overloaded: int = 0

    @property
    def qps(self) -> float:
        """Answered queries per second of wall clock."""
        if self.elapsed <= 0:
            return 0.0
        return self.queries / self.elapsed

    @property
    def shared_answers(self) -> int:
        """Answers served without a fresh execution."""
        return (self.sources.get("coalesced", 0)
                + self.sources.get("cache", 0))

    @property
    def shared_rate(self) -> float:
        """Fraction of successful answers that were coalesced or cached."""
        answered = self.queries - self.errors
        if answered <= 0:
            return 0.0
        return self.shared_answers / answered

    def describe(self) -> str:
        """One human-readable summary line per metric."""
        parts = [
            f"queries={self.queries}",
            f"elapsed={self.elapsed:.3f}s",
            f"qps={self.qps:.1f}",
            f"p50={self.p50_seconds * 1000.0:.1f}ms",
            f"p95={self.p95_seconds * 1000.0:.1f}ms",
            f"errors={self.errors}",
            f"overloaded={self.overloaded}",
            f"distinct={self.distinct_fingerprints}",
            f"shared_rate={self.shared_rate:.2f}",
        ]
        for source in sorted(self.sources):
            parts.append(f"{source}={self.sources[source]}")
        return " ".join(parts)


def make_query_pool(pool_size: int, *, trials: int = 256,
                    seed: int = 0) -> List[Query]:
    """``pool_size`` distinct Monte-Carlo queries, deterministically.

    Cells cycle through :data:`_MONTE_CARLO_CELLS`; once the cells are
    exhausted, later pool entries vary the root seed, so every entry
    has a distinct fingerprint.
    """
    check_positive_int(pool_size, "pool_size")
    pool: List[Query] = []
    for index in range(pool_size):
        scenario, p, n = _MONTE_CARLO_CELLS[index % len(_MONTE_CARLO_CELLS)]
        pool.append(Query(
            scenario=scenario, p=p, n=n, trials=trials,
            seed=seed + index // len(_MONTE_CARLO_CELLS),
        ))
    return pool


def _draw_sequence(pool: List[Query], queries: int,
                   seed: int) -> List[Query]:
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(queries)]


async def run_inprocess(service: SimulationService, *, queries: int = 64,
                        pool_size: int = 4, trials: int = 256,
                        seed: int = 0,
                        concurrency: int = 8) -> TrafficReport:
    """Fire a duplicate-heavy burst at the in-process API.

    ``concurrency`` identical queries in flight at once is what makes
    coalescing observable: duplicates that arrive while their twin is
    still executing join its flight; duplicates that arrive later hit
    the cache.
    """
    check_positive_int(queries, "queries")
    check_positive_int(concurrency, "concurrency")
    pool = make_query_pool(pool_size, trials=trials, seed=seed)
    sequence = _draw_sequence(pool, queries, seed)
    gate = asyncio.Semaphore(concurrency)
    sources: Dict[str, int] = {}
    errors = 0
    overloaded = 0
    latencies = Histogram()

    async def one(query: Query) -> None:
        nonlocal errors, overloaded
        async with gate:
            try:
                answer = await service.submit(query)
            except OverloadedError:
                errors += 1
                overloaded += 1
                return
            except QueryError:
                errors += 1
                return
            sources[answer.source] = sources.get(answer.source, 0) + 1
            latencies.observe(answer.elapsed)

    start = time.perf_counter()
    await asyncio.gather(*(one(query) for query in sequence))
    elapsed = time.perf_counter() - start
    distinct = len({service.fingerprint(query) for query in pool})
    return TrafficReport(
        queries=queries, elapsed=elapsed, sources=sources, errors=errors,
        distinct_fingerprints=distinct,
        p50_seconds=latencies.percentile(0.5) if latencies.count else 0.0,
        p95_seconds=latencies.percentile(0.95) if latencies.count else 0.0,
        overloaded=overloaded,
    )


async def run_over_wire(host: str, port: int, *, queries: int = 64,
                        pool_size: int = 4, trials: int = 256,
                        seed: int = 0,
                        connections: int = 4) -> TrafficReport:
    """Fire the same burst at a live server over TCP.

    The sequence is split round-robin over ``connections`` pipelined
    connections (:func:`~repro.serve.protocol.query_many`); each
    connection sends all its request lines up front, so server-side the
    duplicates overlap and coalesce.
    """
    check_positive_int(queries, "queries")
    check_positive_int(connections, "connections")
    pool = make_query_pool(pool_size, trials=trials, seed=seed)
    sequence = _draw_sequence(pool, queries, seed)
    batches: List[List[Query]] = [[] for _ in range(connections)]
    for index, query in enumerate(sequence):
        batches[index % connections].append(query)

    start = time.perf_counter()
    all_responses = await asyncio.gather(*(query_many(host, port, [
        {"id": index, "scenario": query.scenario, "p": query.p,
         "n": query.n, "trials": query.trials, "seed": query.seed}
        for index, query in enumerate(batch)]) for batch in batches))
    elapsed = time.perf_counter() - start
    sources: Dict[str, int] = {}
    errors = 0
    overloaded = 0
    fingerprints = set()
    latencies = Histogram()
    for responses in all_responses:
        for response in responses:
            if not response.get("ok"):
                errors += 1
                if response.get("error") == "overloaded":
                    overloaded += 1
                continue
            source = response.get("source", "unknown")
            sources[source] = sources.get(source, 0) + 1
            fingerprints.add(response.get("fingerprint"))
            latencies.observe(float(response.get("elapsed_ms", 0.0)) / 1000.0)
    return TrafficReport(
        queries=queries, elapsed=elapsed, sources=sources, errors=errors,
        distinct_fingerprints=len(fingerprints),
        p50_seconds=latencies.percentile(0.5) if latencies.count else 0.0,
        p95_seconds=latencies.percentile(0.95) if latencies.count else 0.0,
        overloaded=overloaded,
    )
