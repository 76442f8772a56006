"""CLI entrypoints of the distributed worker substrate.

``python -m repro.distrib worker``
    Run one stateless shard worker bound to ``--host``/``--port``
    (port 0 picks a free port; the banner prints the real one).  A
    worker serves any number of sweeps from any number of clients and
    holds no state between requests, so a fleet is just N of these
    behind ``--executor remote:host:port,...``.

``python -m repro.distrib smoke``
    Self-contained fault-tolerance smoke (the CI ``distrib-smoke``
    job): spawn two loopback workers — one rigged to die mid-sweep via
    ``--die-after-runs`` — run a sharded sweep through the remote
    executor, and exit non-zero unless (a) the rigged worker really
    died, (b) the sweep survived via shard retry, and (c) the
    indicators are byte-identical to an in-process run of the same
    scenario and seed.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
import time
from typing import List, Optional

from repro.distrib.worker import ShardWorker


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib",
        description="distributed shard workers for sharded Monte-Carlo runs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    worker = commands.add_parser(
        "worker", help="run one stateless NDJSON shard worker")
    worker.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default loopback; the "
                             "worker runs only catalog specs, but bind "
                             "non-loopback on trusted networks only)")
    worker.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0: pick a free port and "
                             "print it)")
    worker.add_argument("--die-after-runs", type=int, default=None,
                        metavar="N",
                        help="fault injection: serve N run ops, then "
                             "hard-exit on the next one (no reply) — "
                             "what an OOM kill looks like to the client")

    commands.add_parser(
        "smoke",
        help="two loopback workers, one rigged to die; assert the sweep "
             "survives with bit-identical indicators")
    return parser


async def _worker_main(args: argparse.Namespace) -> None:
    worker = ShardWorker(args.host, args.port,
                         die_after_runs=args.die_after_runs)
    await worker.start()
    host, port = worker.address
    print(f"repro.distrib worker listening on {host}:{port} "
          f"(pid {os.getpid()})", flush=True)
    try:
        await worker.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await worker.close()


def _smoke() -> int:
    import numpy as np

    from repro.montecarlo import RemoteSocketExecutor, TrialRunner

    def spawn(extra: Optional[List[str]] = None):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib", "worker", "--port", "0",
             *(extra or [])],
            stdout=subprocess.PIPE, text=True,
        )
        banner = process.stdout.readline()
        if "listening on" not in banner:
            process.kill()
            raise RuntimeError(f"worker failed to start: {banner!r}")
        address = banner.split("listening on", 1)[1].split()[0]
        port = int(address.rpartition(":")[2])
        return process, port

    # Simple-Omission on a depth-4 binary tree, phase length 3.
    spec = ("simple-omission", 0.3, 4, {"phase_length": 3})
    trials, seed = 1024, 2007

    steady, steady_port = spawn()
    doomed, doomed_port = spawn(["--die-after-runs", "1"])
    try:
        executor = RemoteSocketExecutor(
            [("127.0.0.1", steady_port), ("127.0.0.1", doomed_port)],
            max_shard_retries=2,
        )
        # Vectorised tiers off so the sweep really shards: the engine
        # tier cuts 4 shards per worker, which guarantees the rigged
        # worker receives a second shard and dies mid-sweep (fastsim
        # would answer without sharding, batchsim with one chunk per
        # worker).
        remote = TrialRunner.from_spec(*spec, use_fastsim=False,
                                       use_batchsim=False,
                                       executor=executor).run(trials, seed)
        local = TrialRunner.from_spec(*spec, use_fastsim=False,
                                      use_batchsim=False).run(trials, seed)

        deadline = time.monotonic() + 10.0
        while doomed.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        checks = [
            ("rigged worker died mid-sweep", doomed.poll() is not None),
            ("steady worker survived", steady.poll() is None),
            ("sweep used the remote backend",
             remote.workers >= 1 and remote.trials == trials),
            ("indicators byte-identical to the in-process run",
             np.array_equal(remote.indicators, local.indicators)),
        ]
        failed = [label for label, ok in checks if not ok]
        for label, ok in checks:
            print(f"[{'ok' if ok else 'FAIL'}] {label}")
        print(f"remote success rate {remote.successes}/{remote.trials}, "
              f"local {local.successes}/{local.trials}")
        return 1 if failed else 0
    finally:
        for process in (steady, doomed):
            if process.poll() is None:
                process.kill()
            process.wait()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "worker":
        try:
            asyncio.run(_worker_main(args))
        except KeyboardInterrupt:
            pass
        return 0
    if args.command == "smoke":
        return _smoke()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
