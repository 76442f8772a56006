"""Command-line front end: ``python -m repro.serve``.

Subcommands::

    serve    run the TCP server until interrupted (the default)
    traffic  fire a seeded duplicate-heavy burst at a running server
    smoke    start a server, fire an in-process burst, assert that
             coalescing/caching actually shared work and that the
             ``metrics`` wire op exposes the core series (query
             latency histogram, cache lookups, per-backend trial
             counts), shut down — exit status 0 iff healthy (what CI
             runs)
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.serve.protocol import SimulationServer, query_one
from repro.serve.service import SimulationService
from repro.serve.traffic import run_over_wire


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on broadcast-simulation service.",
    )
    sub = parser.add_subparsers(dest="command")

    serve = sub.add_parser("serve", help="run the TCP server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7641,
                       help="TCP port (default 7641; 0 picks a free one)")
    serve.add_argument("--workers", type=int, default=1,
                       help="processes each Monte-Carlo run shards over")
    serve.add_argument("--cache-capacity", type=int, default=256,
                       help="exact-memo LRU entries (0 disables caching)")
    serve.add_argument("--memo-path", default=None,
                       help="persistent memo journal; replayed on start "
                            "so a restarted server answers warm queries "
                            "from cache, byte-identically")
    serve.add_argument("--max-concurrent-runs", type=int, default=8,
                       help="fresh executions in flight per op before "
                            "runs queue")
    serve.add_argument("--max-queued-runs", type=int, default=64,
                       help="queued runs per op before the server sheds "
                            "with a structured 'overloaded' error")
    serve.add_argument("--executor", default=None,
                       metavar="SPEC",
                       help="shard substrate spec: 'in-process', "
                            "'local-process[:N]' or "
                            "'remote:host:port,...' (default: resolved "
                            "from --workers)")
    serve.add_argument("--executor-workers", default=None,
                       metavar="HOST:PORT,...",
                       help="shorthand for --executor remote:...: "
                            "schedule Monte-Carlo batches onto these "
                            "repro.distrib workers (cache/coalesce/"
                            "admission semantics unchanged — answers "
                            "are placement-independent)")

    traffic = sub.add_parser(
        "traffic", help="fire a seeded burst at a running server")
    traffic.add_argument("--host", default="127.0.0.1")
    traffic.add_argument("--port", type=int, default=7641)
    traffic.add_argument("--queries", type=int, default=64)
    traffic.add_argument("--pool-size", type=int, default=4,
                         help="distinct queries the burst draws from")
    traffic.add_argument("--trials", type=int, default=256)
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--connections", type=int, default=4)

    smoke = sub.add_parser(
        "smoke", help="self-contained server health check (CI)")
    smoke.add_argument("--queries", type=int, default=48)
    smoke.add_argument("--pool-size", type=int, default=3)
    smoke.add_argument("--trials", type=int, default=128)
    smoke.add_argument("--seed", type=int, default=0)
    return parser


async def _serve(args: argparse.Namespace) -> int:
    if args.executor is not None and args.executor_workers is not None:
        print("--executor and --executor-workers are mutually exclusive",
              flush=True)
        return 2
    shard_executor = args.executor
    if args.executor_workers is not None:
        shard_executor = f"remote:{args.executor_workers}"
    service = SimulationService(
        workers=args.workers, cache_capacity=args.cache_capacity,
        shard_executor=shard_executor,
        memo_path=args.memo_path,
        max_concurrent_runs=args.max_concurrent_runs,
        max_queued_runs=args.max_queued_runs,
    )
    server = SimulationServer(service, args.host, args.port)
    host, port = await server.start()
    substrate = service.shard_executor.describe()
    peers = substrate.get("peers")
    print(f"repro.serve shard executor {substrate['backend']} "
          f"({substrate['workers']} workers"
          f"{': ' + ', '.join(peers) if peers else ''})", flush=True)
    if service.journal is not None:
        print(f"repro.serve memo journal {service.journal.path} "
              f"({service.journal.records_loaded} records rehydrated, "
              f"{service.journal.records_dropped} corrupt dropped)",
              flush=True)
    print(f"repro.serve listening on {host}:{port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        service.close()
    return 0


async def _traffic(args: argparse.Namespace) -> int:
    report = await run_over_wire(
        args.host, args.port, queries=args.queries,
        pool_size=args.pool_size, trials=args.trials, seed=args.seed,
        connections=args.connections,
    )
    print(report.describe(), flush=True)
    return 0 if report.errors == 0 else 1


def _check_metrics(response: dict) -> List[str]:
    """Assert the ``metrics`` wire op exposed the core serving series."""
    if not response.get("ok"):
        return [f"metrics op failed: {response}"]
    snapshot = response.get("metrics", {})
    counters = snapshot.get("counters", [])
    histograms = snapshot.get("histograms", [])

    def counter_total(name: str) -> float:
        return sum(entry["value"] for entry in counters
                   if entry["name"] == name)

    failures = []
    query_observations = sum(
        entry["count"] for entry in histograms
        if entry["name"] == "serve.query.seconds"
    )
    if query_observations < 1:
        failures.append("metrics: no serve.query.seconds observations")
    lookups = (counter_total("serve.cache.hits")
               + counter_total("serve.cache.misses"))
    if lookups < 1:
        failures.append("metrics: no serve.cache lookups recorded")
    batch_trials = sum(
        entry["value"] for entry in counters
        if entry["name"] == "mc.trials"
        and entry.get("labels", {}).get("backend") == "batchsim"
    )
    if batch_trials < 1:
        failures.append("metrics: no mc.trials{backend=batchsim} recorded")
    return failures


async def _smoke(args: argparse.Namespace) -> int:
    """Start, burst over the wire, assert shared work, shut down."""
    service = SimulationService()
    server = SimulationServer(service)
    host, port = await server.start()
    print(f"smoke: server on {host}:{port}", flush=True)
    try:
        report = await run_over_wire(
            host, port, queries=args.queries, pool_size=args.pool_size,
            trials=args.trials, seed=args.seed,
        )
        metrics_response = await query_one(host, port, {"op": "metrics"})
    finally:
        await server.close()
    print(f"smoke: {report.describe()}", flush=True)
    failures = []
    if report.errors:
        failures.append(f"{report.errors} queries errored")
    failures.extend(_check_metrics(metrics_response))
    if report.shared_answers < 1:
        failures.append("no query was coalesced or served from cache")
    if report.distinct_fingerprints >= report.queries:
        failures.append("burst was not duplicate-heavy")
    stats = service.stats()
    computed_cells = stats.computed
    if computed_cells > report.distinct_fingerprints:
        failures.append(
            f"{computed_cells} executions for "
            f"{report.distinct_fingerprints} distinct queries — "
            f"duplicates were not shared"
        )
    if failures:
        for failure in failures:
            print(f"smoke: FAIL {failure}", flush=True)
        return 1
    print("smoke: OK (clean shutdown, duplicates shared)", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command or "serve"
    if command == "serve":
        if args.command is None:  # bare ``python -m repro.serve``
            args = _build_parser().parse_args(["serve"])
        runner = _serve
    elif command == "traffic":
        runner = _traffic
    else:
        runner = _smoke
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
