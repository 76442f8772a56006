"""The stateless shard worker behind ``python -m repro.distrib worker``.

One asyncio TCP server per worker process.  Each connection is served
sequentially (NDJSON request in, NDJSON response out, ids echoed), but
``run`` ops execute on a dedicated single-thread pool so the event
loop stays responsive: a heartbeat ``ping`` on another connection is
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
    MAX_LINE_BYTES,
    MAX_SHARD_TRIALS,
    PROTOCOL_VERSION,
    SHARD_FIELDS,
    WORKER_ROLE,
    decode_line,
    encode_bits,
    encode_line,
)
from repro.montecarlo.trials import run_spec_shard

__all__ = ["ShardWorker"]


class ShardWorker:
    """A stateless NDJSON shard worker serving one TCP endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 die_after_runs: Optional[int] = None):
        if die_after_runs is not None and die_after_runs < 0:
            raise ValueError(
                f"die_after_runs must be >= 0, got {die_after_runs}")
        self._host = host
        self._port = port
        self._die_after_runs = die_after_runs
        self._runs_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-distrib-shard")

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port, limit=MAX_LINE_BYTES)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real port."""
        assert self._server is not None, "worker not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None, "worker not started"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- connection handling ------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized frame: the stream position is lost, so
                    # reject and hang up rather than resynchronise.
                    writer.write(encode_line(
                        {"ok": False, "error": "bad-request",
                         "message": f"frame exceeds {MAX_LINE_BYTES} bytes"}))
                    await writer.drain()
                    break
                if not line:
                    break
                reply = await self._dispatch(line)
                writer.write(encode_line(reply))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        try:
            message = decode_line(line)
        except ValueError as error:
            return {"ok": False, "error": "bad-json", "message": str(error)}
        ident = message.get("id")
        if type(ident) is not int:
            return {"ok": False, "error": "bad-request",
                    "message": "id must be an int"}
        op = message.get("op")
        if op == "hello":
            return {"id": ident, "ok": True, "role": WORKER_ROLE,
                    "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
        if op == "ping":
            return {"id": ident, "ok": True}
        if op == "run":
            return await self._run(ident, message)
        return {"id": ident, "ok": False, "error": "bad-request",
                "message": f"unknown op: {str(op)[:64]!r}"}

    async def _run(self, ident: int,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        if message.get("protocol") != PROTOCOL_VERSION:
            return {"id": ident, "ok": False, "error": "bad-request",
                    "message": f"protocol mismatch: worker speaks "
                               f"{PROTOCOL_VERSION}, request says "
                               f"{str(message.get('protocol'))[:64]!r}"}
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
            return {"id": ident, "ok": False, "error": "bad-request",
                    "message": f"run needs a string spec and tier, an int "
                               f"root_seed and ints 0 <= start <= stop <= "
                               f"start + {MAX_SHARD_TRIALS}"}
        loop = asyncio.get_running_loop()
        try:
            seconds, indicators = await loop.run_in_executor(
                self._pool, self._execute, args)
        except Exception as error:  # the shard raised: deterministic
            # Cut, so an error quoting a huge field still fits a frame.
            return {"id": ident, "ok": False, "error": "shard-error",
                    "type": type(error).__name__,
                    "message": str(error)[:2000]}
        bits, length, digest = encode_bits(indicators)
        return {"id": ident, "ok": True, "bits": bits, "length": length,
                "digest": digest, "seconds": seconds}

    @staticmethod
    def _execute(args: Tuple) -> Tuple[float, Any]:
        started = time.monotonic()
        indicators = run_spec_shard(*args)
        return time.monotonic() - started, indicators
