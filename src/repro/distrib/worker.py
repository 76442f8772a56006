"""The stateless shard worker behind ``python -m repro.distrib worker``.

A :class:`~repro.wire.LineServer` that supplies only the worker's op
handler: the NDJSON transport (pipelined lines, line cap, malformed-
line replies, backpressure, teardown) is the one the simulation
service runs on.  ``run`` ops execute on a dedicated single-thread
pool so the event loop stays responsive: a heartbeat ``ping`` is
answered immediately even while a multi-second shard is simulating.
One execution thread per worker is deliberate — the executor ships at
most one shard per worker connection at a time, so extra threads would
only let misbehaving clients oversubscribe the host.

The worker holds **no state between requests**: every ``run`` carries
a catalog spec, a tier and an absolute trial range, the worker
rebuilds the scenario from the spec (:func:`repro.montecarlo.trials.
run_spec_shard`) and runs the range, and by the bit-identity invariant
the result is byte-identical to what any other placement would have
produced.
Killing a worker mid-shard therefore loses nothing but time — the
executor re-ships the same shard elsewhere.

``die_after_runs=N`` is the fault-injection hook used by the retry
regression tests and the CI ``distrib-smoke`` job: the worker serves
``N`` run ops normally, then hard-exits (``os._exit``; no reply, no
TCP goodbye) upon receiving the next one — exactly what a mid-shard
OOM kill looks like from the executor's side.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.distrib.protocol import (
    MAX_SHARD_TRIALS,
    PROTOCOL_VERSION,
    SHARD_FIELDS,
    WORKER_ROLE,
    encode_bits,
)
from repro.montecarlo.trials import run_spec_shard
from repro.wire import LineServer, error_reply

__all__ = ["ShardWorker"]


class ShardWorker(LineServer):
    """A stateless NDJSON shard worker serving one TCP endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 die_after_runs: Optional[int] = None):
        if die_after_runs is not None and die_after_runs < 0:
            raise ValueError(
                f"die_after_runs must be >= 0, got {die_after_runs}")
        super().__init__(host, port)
        self._die_after_runs = die_after_runs
        self._runs_served = 0
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-distrib-shard")

    async def close(self) -> None:
        await super().close()
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        ident = message.get("id")
        if type(ident) is not int:
            return error_reply("bad-request", "id must be an int")
        op = message.get("op")
        if op == "hello":
            return {"id": ident, "ok": True, "role": WORKER_ROLE,
                    "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
        if op == "ping":
            return {"id": ident, "ok": True}
        if op == "run":
            return await self._run(ident, message)
        return error_reply("bad-request", f"unknown op: {str(op)[:64]!r}",
                           ident)

    async def _run(self, ident: int,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        if message.get("protocol") != PROTOCOL_VERSION:
            return error_reply(
                "bad-request", f"protocol mismatch: worker speaks "
                f"{PROTOCOL_VERSION}, request says "
                f"{str(message.get('protocol'))[:64]!r}", ident)
        if self._die_after_runs is not None:
            if self._runs_served >= self._die_after_runs:
                # Fault injection: die mid-shard, no reply, no goodbye.
                os._exit(1)
            self._runs_served += 1
        args = tuple(message.get(name) for name in SHARD_FIELDS)
        spec, tier, root_seed, start, stop = args
        if not (isinstance(spec, str) and isinstance(tier, str)
                and all(type(value) is int for value in args[2:])
                and 0 <= start <= stop <= start + MAX_SHARD_TRIALS):
            return error_reply(
                "bad-request", f"run needs a string spec and tier, an int "
                f"root_seed and ints 0 <= start <= stop <= "
                f"start + {MAX_SHARD_TRIALS}", ident)
        loop = asyncio.get_running_loop()
        try:
            seconds, indicators = await loop.run_in_executor(
                self._pool, self._execute, args)
        except Exception as error:  # the shard raised: deterministic
            # Cut, so an error quoting a huge field still fits a frame.
            return dict(error_reply("shard-error", str(error)[:2000], ident),
                        type=type(error).__name__)
        bits, length, digest = encode_bits(indicators)
        return {"id": ident, "ok": True, "bits": bits, "length": length,
                "digest": digest, "seconds": seconds}

    @staticmethod
    def _execute(args: Tuple) -> Tuple[float, Any]:
        started = time.monotonic()
        indicators = run_spec_shard(*args)
        return time.monotonic() - started, indicators
