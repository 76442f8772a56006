"""Benchmarks of the always-on simulation service.

Two claims are asserted, not just timed:

* under duplicate-heavy load (many clients re-asking for the same
  threshold-curve cells) the service absorbs at least half the
  queries through coalescing + exact memoisation instead of
  recomputing them — the acceptance bar the serving layer exists to
  clear;
* a cached replay returns **byte-identical** indicators to the cold
  run it memoised (the cache is exact, not approximate).

``test_serve_qps`` is the sustained-throughput number the rolling
benchmark history (``diff_bench.py --history``) tracks: mean seconds
per duplicate-heavy burst, lower is better, with the derived
queries/second in ``extra_info``.

``test_serve_warm_restart_hit_rate`` times the journal-rehydrated
path: a service is killed and rebuilt against the same ``--memo-path``
journal, and the replayed burst must be answered entirely from the
rehydrated cache (hit rate 1.0, zero recomputation).

``test_serve_hit_cost_flat_in_trials`` asserts that a wire cache hit
costs the same whatever its ``trials``: the memo keeps each result's
digest and success count, so a hit never touches the indicators.
"""

import asyncio
import json
import tempfile
import time
from pathlib import Path

from repro.serve import Query, SimulationServer, SimulationService
from repro.serve.traffic import run_inprocess
from repro.wire import decode_line

#: One burst of the benchmark workload: heavily duplicated Monte-Carlo
#: queries, small trial counts (the serving overhead is the subject,
#: not the simulation itself).
BURST_QUERIES = 40
BURST_POOL = 4
BURST_TRIALS = 64
BURST_CONCURRENCY = 8


def _burst():
    """One cold service handling one duplicate-heavy burst."""
    service = SimulationService()
    report = asyncio.run(run_inprocess(
        service, queries=BURST_QUERIES, pool_size=BURST_POOL,
        trials=BURST_TRIALS, seed=0, concurrency=BURST_CONCURRENCY,
    ))
    return service, report


def test_serve_qps(benchmark):
    """Sustained queries/second with coalescing under duplicate load."""
    service, report = benchmark(_burst)
    assert report.errors == 0
    assert report.queries == BURST_QUERIES
    assert report.distinct_fingerprints == BURST_POOL
    # >= 50% of the duplicate-heavy burst must be answered by shared
    # work (coalesced onto an in-flight run or replayed from cache).
    assert report.shared_rate >= 0.5, report.describe()
    stats = service.stats()
    assert stats.computed <= BURST_POOL, (
        f"{stats.computed} executions for {BURST_POOL} distinct queries"
    )
    benchmark.extra_info["qps"] = round(report.qps, 1)
    benchmark.extra_info["shared_rate"] = round(report.shared_rate, 3)


def test_serve_cached_replay_is_exact(benchmark):
    """Cache hits are byte-identical to the cold run and far cheaper."""
    query = Query("windowed-malicious", 0.25, 2, 256, seed=13)
    service = SimulationService()
    cold = asyncio.run(service.submit(query))
    assert cold.source == "computed"

    def replay():
        return asyncio.run(service.submit(query))

    answer = benchmark(replay)
    assert answer.source == "cache"
    assert answer.result.indicators.tobytes() == \
        cold.result.indicators.tobytes()
    # And a fresh service recomputes the very same bytes cold.
    fresh = asyncio.run(SimulationService().submit(query))
    assert fresh.indicators_digest() == cold.indicators_digest()


def test_serve_warm_restart_hit_rate(benchmark):
    """A journal-rehydrated restart answers the whole burst from cache."""
    with tempfile.TemporaryDirectory() as tmp:
        memo_path = Path(tmp) / "memo.ndjson"
        cold = SimulationService(memo_path=memo_path)
        cold_report = asyncio.run(run_inprocess(
            cold, queries=BURST_QUERIES, pool_size=BURST_POOL,
            trials=BURST_TRIALS, seed=0, concurrency=BURST_CONCURRENCY,
        ))
        assert cold_report.errors == 0
        cold.close()

        def warm_burst():
            """Rebuild from the journal, then replay the same burst."""
            warm = SimulationService(memo_path=memo_path)
            report = asyncio.run(run_inprocess(
                warm, queries=BURST_QUERIES, pool_size=BURST_POOL,
                trials=BURST_TRIALS, seed=0, concurrency=BURST_CONCURRENCY,
            ))
            stats = warm.stats()
            warm.close()
            return report, stats

        report, stats = benchmark(warm_burst)
        assert report.errors == 0
        hits = report.sources.get("cache", 0)
        hit_rate = hits / report.queries
        # Every query in the replayed burst must be served by the
        # rehydrated journal — zero recomputation after restart.
        assert hit_rate == 1.0, report.describe()
        assert stats.computed == 0, (
            f"warm restart recomputed {stats.computed} queries"
        )
        benchmark.extra_info["warm_hit_rate"] = round(hit_rate, 3)
        benchmark.extra_info["warm_cache_hits"] = stats.cache_hits


#: Hits per timed batch and batches per trial count (best of).
HIT_BATCH = 50
HIT_REPEATS = 20


def test_serve_hit_cost_flat_in_trials(benchmark):
    """A hit at a million trials costs under twice a hit at 512."""
    server = SimulationServer(SimulationService())
    loop = asyncio.new_event_loop()

    def line(trials):
        return json.dumps({"scenario": "simple-omission", "p": 0.1, "n": 3,
                           "trials": trials, "seed": 1}).encode() + b"\n"

    async def hits(request, count):
        for _ in range(count):
            payload = await server.handle(decode_line(request))
        return payload

    def best_hit_seconds(trials):
        request = line(trials)
        assert loop.run_until_complete(
            hits(request, 1))["source"] == "computed"
        best = float("inf")
        for _ in range(HIT_REPEATS):
            started = time.perf_counter()
            payload = loop.run_until_complete(hits(request, HIT_BATCH))
            best = min(best, time.perf_counter() - started)
        assert payload["source"] == "cache"
        assert payload["trials"] == trials
        return best / HIT_BATCH

    try:
        small = best_hit_seconds(512)
        large = best_hit_seconds(1_000_000)
        million = line(1_000_000)
        benchmark(lambda: loop.run_until_complete(hits(million, 1)))
    finally:
        loop.close()
    benchmark.extra_info["hit_us_512"] = round(small * 1e6, 1)
    benchmark.extra_info["hit_us_1e6"] = round(large * 1e6, 1)
    assert large / small < 2.0, (
        f"a hit at 1e6 trials took {large * 1e6:.0f} us, "
        f"{large / small:.1f}x the {small * 1e6:.0f} us at 512")
