"""Shared test helpers: scripted protocols, distrib worker spawning, a
small-buffered client connection and a server driven through every
serving event."""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import struct
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.protocol import Algorithm, Protocol
from repro.graphs.topology import Topology
from repro.montecarlo.trials import TrialResult
from repro.serve import (
    MemoJournal,
    SimulationServer,
    SimulationService,
    query_many,
    query_one,
)


class ScriptedProtocol(Protocol):
    """Plays back a fixed per-round intent script and records deliveries."""

    def __init__(self, script: Sequence[Any]):
        self._script = list(script)
        self.received: List[Any] = []

    def intent(self, round_index: int):
        if round_index < len(self._script):
            return self._script[round_index]
        return None

    def deliver(self, round_index: int, received) -> None:
        self.received.append(received)

    def output(self) -> Any:
        return self.received


class ScriptedAlgorithm(Algorithm):
    """An Algorithm whose nodes play fixed scripts.

    ``scripts`` maps node -> list of per-round intents (missing nodes
    stay silent).  Protocol instances are cached so tests can inspect
    ``received`` after the run.
    """

    def __init__(self, topology: Topology, model: str,
                 scripts: Dict[int, Sequence[Any]], rounds: Optional[int] = None):
        super().__init__(topology, model)
        self._scripts = {node: list(script) for node, script in scripts.items()}
        if rounds is None:
            rounds = max(
                (len(script) for script in self._scripts.values()), default=0
            )
        self._rounds = rounds
        self.instances: Dict[int, ScriptedProtocol] = {}

    @property
    def rounds(self) -> int:
        return self._rounds

    def protocol(self, node: int) -> Protocol:
        instance = ScriptedProtocol(self._scripts.get(node, []))
        self.instances[node] = instance
        return instance


_REPO_ROOT = Path(__file__).resolve().parent.parent
_WORKER_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


class WorkerProcess:
    """One ``python -m repro.distrib worker`` subprocess on a free port.

    The worker binds port 0 and prints its banner; the constructor
    blocks on that line, so by the time it returns the worker is
    accepting connections.  ``extra_args`` pass through to the CLI
    (e.g. ``"--die-after-runs", "1"`` for fault-injection tests).
    """

    def __init__(self, *extra_args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO_ROOT / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib", "worker",
             "--port", "0", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(_REPO_ROOT),
        )
        banner = self.process.stdout.readline()
        match = _WORKER_BANNER.search(banner)
        if match is None:  # pragma: no cover - startup failure path
            self.process.kill()
            rest = self.process.stdout.read()
            raise RuntimeError(f"worker failed to start: {banner!r}{rest!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.stdout.close()
        self.process.wait()


async def open_small_buffered(server, host, port, reset=False):
    """A connection with small kernel buffers at both ends.

    Kernel socket buffers are outside the server's backlog bound; keeping
    them small lets the bound itself show.  Accepted connections inherit
    the listener's send buffer.  ``reset`` makes closing send a TCP reset
    instead of a FIN.
    """
    server._server.sockets[0].setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    if reset:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    return await asyncio.open_connection(sock=sock)


#: A batchsim cell slow enough that pipelined seeds contend for one
#: run slot.
_BATCH = {"scenario": "windowed-malicious", "p": 0.25, "n": 2,
          "trials": 150}


def serve_every_event(memo_path: Path
                      ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Drive a server through one of each serving event; return the
    ``stats`` and ``metrics`` replies that follow.

    The events: a computed batchsim query, a cache hit, a coalesced
    burst, a queued run, an ``overloaded`` shed, a fastsim query, a
    ``run_until``, an exact ``layered-opt`` query, a ``bad-parameters``
    query and a bad-JSON line.  The memo journal starts with 32 records
    and one corrupt line, and the cache holds 4 entries, so the load
    keeps the last 4 and the first fresh run compacts the journal.
    """
    journal = MemoJournal(memo_path)
    journal.load()
    for index in range(32):
        journal.append(f"seed{index}", TrialResult(
            np.array([True]), "batchsim", 1, index))
    journal.close()
    with open(memo_path, "a", encoding="utf8") as handle:
        handle.write("{torn\n")

    async def traffic():
        service = SimulationService(
            memo_path=str(memo_path), cache_capacity=4,
            max_concurrent_runs=1, max_queued_runs=1)
        server = SimulationServer(service)
        host, port = await server.start()
        try:
            for request in (dict(_BATCH, seed=1), dict(_BATCH, seed=1)):
                await query_one(host, port, request)
            await query_many(host, port, [dict(_BATCH, seed=2)] * 3)
            # One slot and one queue place: the first seed runs, the
            # second waits, the third is shed.
            await query_many(host, port, [dict(_BATCH, seed=seed)
                                          for seed in (3, 4, 5)])
            for request in (
                    {"scenario": "flooding", "p": 0.1, "n": 8,
                     "trials": 64},
                    {"op": "run_until", "scenario": "flooding", "p": 0.1,
                     "n": 8, "target_width": 0.2, "max_trials": 4096},
                    {"scenario": "layered-opt", "p": 0, "n": 3,
                     "trials": 1},
                    {"scenario": "flooding", "p": 0.1, "n": 8,
                     "trials": 16, "params": {"rounds": [1, 2]}}):
                await query_one(host, port, request)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"{not json\n")
            assert json.loads(await reader.readline())["error"] == "bad-json"
            writer.close()
            await writer.wait_closed()
            return (await query_one(host, port, {"op": "stats"}),
                    await query_one(host, port, {"op": "metrics"}))
        finally:
            await server.close()
            service.close()

    return asyncio.run(traffic())
