"""The one NDJSON line transport: framing, a line server and a client.

Both network services speak newline-delimited JSON over TCP, one JSON
object per line in each direction: the simulation service
(:class:`repro.serve.protocol.SimulationServer`) and the shard worker
(:class:`repro.distrib.worker.ShardWorker`).  Each is a
:class:`LineServer` that supplies only its op handler, :meth:`LineServer.
handle`; listener lifecycle, the read loop, the line cap, decoding,
malformed-line replies, backpressure and teardown live here, once.

Malformed lines get a structured reply and never kill the connection:

* a line that does not parse answers ``bad-json``;
* a JSON value that is not an object answers ``bad-request``;
* a line over :data:`MAX_LINE_BYTES` answers ``bad-request`` and the
  connection closes, because the stream position is lost.

Requests on one connection may be **pipelined**: each line runs as its
own task and is answered as it completes (replies echo the request
``id``; they can arrive out of order).  A connection buffers the reply
lines its tasks produce and writes them with one ``transport.write``
per event-loop turn.

Each connection's backlog is bounded: while the transport's write
buffer is above its high-water mark, the server reads no more of that
client's lines.  A client that leaves its answers unread for
:data:`DRAIN_SECONDS` is cut off, and so is one that half-closes and
does not read the answers still owed to it.  :meth:`LineServer.close`
stops accepting, then cancels and awaits every live connection.

:class:`LineClient` is the blocking request/reply side: it stamps each
request with a fresh int ``id``, checks the echo and caps reply lines
at :data:`MAX_REPLY_BYTES`.  The module is stdlib-only.
"""

from __future__ import annotations

import asyncio
import json
import socket
from collections import Counter
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["MAX_LINE_BYTES", "MAX_REPLY_BYTES", "DRAIN_SECONDS",
           "LineError", "encode_line", "decode_line", "with_id", "error_reply",
           "LineServer", "LineClient"]

#: Request-line cap of every server: far above any legitimate request
#: (a query or a shard spec and four ints), and a bound on what a
#: client can make the server buffer.
MAX_LINE_BYTES = 64 * 1024

#: Reply-line cap of :class:`LineClient`.  The bulky reply is a shard
#: result, one bit per trial plus a third for base64, so the cap fits
#: :data:`repro.distrib.protocol.MAX_SHARD_TRIALS` while bounding what
#: a garbage peer can make the client buffer.
MAX_REPLY_BYTES = 32 * 1024 * 1024

#: How long a server waits for a client to read answers it owes: while
#: reading is paused at the backlog bound, and after the client's EOF.
DRAIN_SECONDS = 5.0

#: Encodes every line: compact separators, otherwise ``json.dumps``'s
#: defaults, without building an encoder per line.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class LineError(ValueError):
    """A line that is not a JSON object.

    ``code`` is its wire error code (``bad-json`` or ``bad-request``)
    and ``reason`` the predicate that names the fault, so a server says
    ``request <reason>`` and a client ``reply <reason>``.
    """

    def __init__(self, code: str, reason: str):
        super().__init__(f"line {reason}")
        self.code = code
        self.reason = reason


def encode_line(message: Dict[str, Any]) -> bytes:
    """One NDJSON line: compact JSON plus the terminating newline."""
    return (_ENCODER.encode(message) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line into a dict, or raise :class:`LineError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:  # or nested too deep
        raise LineError("bad-json", f"is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise LineError("bad-request", "must be a JSON object")
    return message


def with_id(payload: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
    """``payload`` echoing ``request_id`` when one parsed."""
    if request_id is not None:
        payload["id"] = request_id
    return payload


def error_reply(code: str, message: str,
                request_id: Any = None) -> Dict[str, Any]:
    """A structured error reply, echoing ``request_id`` when one parsed."""
    return with_id({"ok": False, "error": code, "message": message},
                   request_id)


class LineServer:
    """An asyncio NDJSON server; subclasses supply :meth:`handle`.

    Counts what every transport sees: connections accepted, lines in
    flight (read, not yet answered) and error replies by code.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        self._connections = 0
        self._inflight = 0
        self._wire_errors: "Counter[str]" = Counter()

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to one decoded request object."""
        raise NotImplementedError

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves on start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._connection, self._host, self._port, limit=MAX_LINE_BYTES)
        return self.address

    async def close(self) -> None:
        """Stop accepting, then end every live connection.

        ``asyncio.Server.wait_closed`` does not wait for connection
        handlers (Python 3.11), so this cancels and awaits them itself.
        """
        if self._server is None:
            return
        self._server.close()
        handlers = list(self._handlers)
        for handler in handlers:
            handler.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled, starting first if needed; then close."""
        if self._server is None:
            await self.start()
        try:
            # Not ``asyncio.Server.serve_forever``: cancelled, it awaits
            # ``wait_closed``, which on Python >= 3.12.1 waits for every
            # open connection, idle ones included, before ``close`` runs.
            await asyncio.get_running_loop().create_future()
        finally:
            await self.close()

    # -- connection handling -------------------------------------------

    async def _connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        handler = asyncio.current_task()
        self._handlers.add(handler)
        loop = asyncio.get_running_loop()
        transport = writer.transport
        high_water = transport.get_write_buffer_limits()[1]
        # Reply lines answered since this loop turn's write.
        replies: List[bytes] = []
        # Line tasks not yet done; each leaves the set as it finishes.
        pending: Set[asyncio.Task] = set()

        def flush() -> None:
            if replies and not transport.is_closing():
                transport.write(b"".join(replies))
            replies.clear()

        def respond(payload: Dict[str, Any]) -> None:
            if not replies:
                loop.call_soon(flush)
            replies.append(encode_line(payload))

        def finished(task: asyncio.Task) -> None:
            pending.discard(task)
            self._inflight -= 1

        try:
            try:
                while True:
                    if transport.get_write_buffer_size() > high_water:
                        # The client is not reading its answers: read no
                        # more of its lines until it catches up.
                        await asyncio.wait_for(writer.drain(), DRAIN_SECONDS)
                    try:
                        line = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        respond(error_reply(
                            "bad-request",
                            f"request line exceeds {MAX_LINE_BYTES} bytes"))
                        break
                    if not line:
                        break
                    if not line.strip():
                        continue
                    task = asyncio.create_task(self._line(line, respond))
                    pending.add(task)
                    self._inflight += 1
                    task.add_done_callback(finished)
            except (asyncio.TimeoutError, ConnectionError):
                # The client left its answers unread for DRAIN_SECONDS,
                # or it reset the connection or vanished: its lines in
                # flight still finish, and their answers are dropped.
                transport.abort()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            flush()
            writer.close()
            # A client that half-closed must still read what it is owed.
            await asyncio.wait_for(writer.wait_closed(), DRAIN_SECONDS)
        except asyncio.CancelledError:
            # Server shutdown: drop in-flight lines and unsent answers,
            # and end quietly rather than let the cancellation escape
            # into asyncio's stream callback, which logs it as an error.
            for task in pending:
                task.cancel()
        except (asyncio.TimeoutError, ConnectionError):
            # It did not read them within DRAIN_SECONDS, or it reset.
            pass
        finally:
            transport.abort()
            self._handlers.discard(handler)

    async def _line(self, line: bytes, respond) -> None:
        try:
            request = decode_line(line)
        except LineError as error:
            payload = error_reply(error.code, f"request {error.reason}")
        else:
            payload = await self.handle(request)
        if not payload.get("ok"):
            self._wire_errors[payload.get("error", "unknown")] += 1
        respond(payload)


class LineClient:
    """A blocking NDJSON request/reply connection.

    Every transport failure — refused, reset, timed out, EOF, an
    oversized or garbage reply, a wrong ``id`` echo — raises
    :class:`ConnectionError` (``socket.create_connection`` raises its
    own ``OSError``): after one, the fate of the request is unknown.
    """

    def __init__(self, address: Tuple[str, int], timeout: float):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one line stamped with a fresh ``id``; return its reply."""
        ident = self._next_id
        self._next_id += 1
        try:
            self._file.write(encode_line(dict(message, id=ident)))
            self._file.flush()
            line = self._file.readline(MAX_REPLY_BYTES + 1)
        except (OSError, ValueError) as error:
            raise ConnectionError(
                f"dropped the connection: {error}") from error
        if not line:
            raise ConnectionError("closed the connection mid-request")
        if len(line) > MAX_REPLY_BYTES:
            raise ConnectionError(
                f"sent a reply over {MAX_REPLY_BYTES} bytes")
        try:
            reply = decode_line(line)
        except LineError as error:
            raise ConnectionError(
                f"sent a bad reply: reply {error.reason}") from error
        if reply.get("id") != ident:
            raise ConnectionError(
                f"echoed id {reply.get('id')!r} for request {ident}")
        return reply

    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
