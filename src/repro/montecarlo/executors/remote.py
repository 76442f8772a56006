"""Remote-socket backend: shards shipped to ``repro.distrib`` workers.

Each ``run_sharded`` call opens one NDJSON connection, a
:class:`repro.wire.LineClient`, per configured peer (the hello
handshake doubles as registration: role and protocol version are
verified before any shard is shipped), then
drives the same round/retry merge loop as the local pool (both run
:class:`~repro.montecarlo.executors.base.RetryingExecutor`) — a thread
per in-flight shard checks an idle connection out of a small peer
pool, ships ``{"op": "run", ...}`` with the shard's catalog spec,
tier and trial range, and blocks for the reply.

Only :func:`repro.montecarlo.trials.run_spec_shard` shards (those of
:meth:`~repro.montecarlo.TrialRunner.from_spec` runners) cross the
wire; any other function is refused with a ``TypeError`` before a
connection opens.  Both directions are plain JSON data.

Worker death is a first-class event, not an abort: a dropped
connection (EOF, reset, refused mid-run), a garbage frame or a
corrupt bits frame surfaces as :class:`WorkerDisconnect`, the peer is
discarded from the pool, and the shard is re-shipped to a surviving
worker — up to ``max_shard_retries`` times per shard — before a
:class:`WorkerCrashError` reaches the caller.  Because workers are
stateless and indicators are a pure function of the absolute trial
index, the retried run's results are byte-identical to an undisturbed
one; losing a worker costs time, never bits.

A shard that raises on the worker answers a structured ``shard-error``
(exception type name and message), raised here as a
:class:`RemoteShardError` with the usual lowest-index selection and
never retried: it would raise identically anywhere.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    SHARD_FIELDS,
    WORKER_ROLE,
    decode_bits,
)
from repro.montecarlo.executors.base import (
    RetryingExecutor,
    ShardSession,
    WorkerCrashError,
    WorkerDisconnect,
    _summarise_args,
)
from repro.wire import LineClient

__all__ = ["RemoteSocketExecutor", "RemoteShardError", "parse_peers"]

#: Seconds to connect and handshake with a worker; a shard itself takes
#: as long as it takes.
CONNECT_TIMEOUT = 5.0


class RemoteShardError(RuntimeError):
    """A structured error reply for a shard: deterministic (the same
    spec and range fail on any worker), so never retried."""


def _format_peer(peer: Tuple[str, int]) -> str:
    """``host:port``, with an IPv6 host in brackets (``[::1]:7000``) so
    the text parses back through :func:`parse_peers`."""
    host, port = peer
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def parse_peers(spec: str) -> List[Tuple[str, int]]:
    """Parse ``host:port,...`` (IPv6 as ``[::1]:7000``) into pairs."""
    peers: List[Tuple[str, int]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port_text = item.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        if not sep or not host:
            raise ValueError(
                f"remote peer {item!r} is not of the form host:port")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"remote peer {item!r} has a non-integer port") from None
        if not 0 < port < 65536:
            raise ValueError(f"remote peer {item!r} port out of range")
        peers.append((host, port))
    if not peers:
        raise ValueError(f"no remote peers in spec {spec!r}")
    return peers


class _PeerConnection(LineClient):
    """A :class:`LineClient` to one worker.

    Any transport failure raises :class:`WorkerDisconnect`, because
    after one the shard's fate on that worker is unknown.
    """

    def __init__(self, peer: Tuple[str, int]):
        super().__init__(peer, CONNECT_TIMEOUT)
        self.address = _format_peer(peer)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return super().request(message)
        except ConnectionError as error:
            raise WorkerDisconnect(
                f"worker {self.address} {error}") from error


class _PeerPool:
    """Thread-safe checkout of idle worker connections."""

    def __init__(self, connections: List[_PeerConnection]):
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._idle = list(connections)
        self._live = len(connections)

    @property
    def live(self) -> int:
        with self._lock:
            return self._live

    def acquire(self) -> _PeerConnection:
        """Block until an idle worker is available.

        Raises :class:`WorkerDisconnect` once every worker is dead —
        waiting any longer could never be satisfied.
        """
        with self._available:
            while not self._idle:
                if self._live == 0:
                    raise WorkerDisconnect(
                        "every remote worker has disconnected")
                self._available.wait()
            return self._idle.pop()

    def release(self, connection: _PeerConnection) -> None:
        with self._available:
            self._idle.append(connection)
            self._available.notify()

    def discard(self, connection: _PeerConnection) -> None:
        """Drop a dead connection and wake blocked acquirers so they
        can observe ``live == 0`` instead of waiting forever."""
        connection.close()
        with self._available:
            self._live -= 1
            self._available.notify_all()

    def close_all(self) -> None:
        with self._lock:
            idle, self._idle, self._live = self._idle, [], 0
        for connection in idle:
            connection.close()


class RemoteSocketExecutor(RetryingExecutor):
    """Shard across remote ``repro.distrib`` worker processes."""

    name = "remote-socket"

    def __init__(self, peers: Sequence[Tuple[str, int]] | str, *,
                 max_shard_retries: int = 2):
        if isinstance(peers, str):
            peers = parse_peers(peers)
        self._peers = [(str(host), int(port)) for host, port in peers]
        if not self._peers:
            raise ValueError("RemoteSocketExecutor needs at least one peer")
        super().__init__(max_shard_retries=max_shard_retries)

    def worker_count(self) -> int:
        return len(self._peers)

    def describe(self) -> Dict[str, Any]:
        summary = super().describe()
        summary["peers"] = [_format_peer(peer) for peer in self._peers]
        return summary

    def heartbeat(self) -> Dict[str, bool]:
        """Ping every configured peer; True per peer that answered."""
        alive: Dict[str, bool] = {}
        for peer in self._peers:
            key = _format_peer(peer)
            try:
                with _PeerConnection(peer) as connection:
                    alive[key] = bool(connection.request({"op": "ping"})
                                      .get("ok"))
            except (OSError, WorkerDisconnect):
                alive[key] = False
        return alive

    # -- the sharded run ----------------------------------------------

    @contextmanager
    def _session(self, function: Callable[..., Any]
                 ) -> Iterator[ShardSession]:
        from repro.montecarlo.trials import run_spec_shard

        if function is not run_spec_shard:
            raise TypeError(
                f"remote workers run only catalog spec shards "
                f"(run_spec_shard), not {function!r}: build the runner "
                f"with TrialRunner.from_spec")
        peers = self._connect()
        try:
            yield ShardSession(
                live=lambda: peers.live,
                pool=lambda width: ThreadPoolExecutor(
                    max_workers=width,
                    thread_name_prefix="repro-remote-shard"),
                task=functools.partial(self._run_one, peers),
            )
        finally:
            peers.close_all()

    def _connect(self) -> _PeerPool:
        """Open + handshake one connection per peer; need at least one."""
        connections: List[_PeerConnection] = []
        unreachable: List[str] = []
        for peer in self._peers:
            key = _format_peer(peer)
            try:
                connection = _PeerConnection(peer)
                hello = connection.request({"op": "hello"})
                if not hello.get("ok") or hello.get("role") != WORKER_ROLE:
                    connection.close()
                    unreachable.append(
                        f"{key} (not a {WORKER_ROLE}: {hello.get('role')!r})")
                    continue
                if hello.get("protocol") != PROTOCOL_VERSION:
                    connection.close()
                    unreachable.append(
                        f"{key} (protocol {hello.get('protocol')!r}, "
                        f"need {PROTOCOL_VERSION})")
                    continue
                connection.settimeout(None)  # shards take as long as they take
                connections.append(connection)
            except (OSError, WorkerDisconnect) as error:
                unreachable.append(f"{key} ({error})")
        if not connections:
            raise WorkerCrashError(
                f"no remote workers reachable: {'; '.join(unreachable)}")
        return _PeerPool(connections)

    def _run_one(self, pool: _PeerPool, args: Tuple,
                 submitted: float) -> Tuple[float, float, Any]:
        """Ship one shard to an idle worker; return (queue, run, bits)."""
        connection = pool.acquire()
        queue_seconds = time.monotonic() - submitted
        try:
            reply = connection.request(dict(
                zip(SHARD_FIELDS, args), op="run",
                protocol=PROTOCOL_VERSION))
        except WorkerDisconnect:
            pool.discard(connection)
            raise
        if reply.get("ok") is True:
            start, stop = args[-2:]
            seconds = reply.get("seconds")
            try:
                if (reply.get("length") != stop - start
                        or not isinstance(seconds, float)
                        or not 0 <= seconds < math.inf):
                    raise ValueError(f"length must be {stop - start} and "
                                     f"seconds a finite float >= 0")
                value = decode_bits(reply.get("bits"), reply.get("length"),
                                    reply.get("digest"))
            except ValueError as error:
                pool.discard(connection)
                raise WorkerDisconnect(
                    f"worker {connection.address} "
                    f"returned a corrupt result frame: {error}") from error
            pool.release(connection)
            return queue_seconds, seconds, value
        # Structured failure: the worker itself is healthy.  A
        # ``shard-error`` names the exception the shard raised; a
        # protocol rejection names its error kind.
        kind, message = reply.get("error"), reply.get("message")
        error_type = reply.get("type") if kind == "shard-error" else kind
        if isinstance(error_type, str) and isinstance(message, str):
            pool.release(connection)
            raise RemoteShardError(f"{error_type}: {message} (on worker "
                                   f"{connection.address})")
        pool.discard(connection)
        raise WorkerDisconnect(
            f"worker {connection.address} sent a malformed reply")

    def _crash_text(self, lowest: int, total: int, args: Tuple,
                    reason: str) -> str:
        peers = ", ".join(_format_peer(peer) for peer in self._peers)
        return (
            f"remote worker died or disconnected while running shard "
            f"{lowest} of {total} ({reason}); shard args: "
            f"{_summarise_args(args)}; peers: {peers}"
        )
