"""The one NDJSON transport, run by both network services.

:class:`~repro.serve.protocol.SimulationServer` and
:class:`~repro.distrib.worker.ShardWorker` are both
:class:`~repro.wire.LineServer` subclasses, so every test here runs
against each of them:

* **conformance** — on one connection, a pipelined burst gets exactly
  one reply per ``id``; a line that does not parse (or nests too deep
  to parse) answers ``bad-json``, a JSON value that is not an object
  ``bad-request``, and the connection answers the next good line; an
  oversized line answers ``bad-request`` and closes the connection;
* **bounded teardown** — a client that half-closes without reading its
  answers is cut off within :data:`~repro.wire.DRAIN_SECONDS`,
  ``close()`` returns only once no connection handler is left, and a
  cancelled ``serve_forever()`` ends an idle connection the same way.
"""

import asyncio
import collections
import json
import time

import pytest

import repro.wire as wire
from repro.distrib.worker import ShardWorker
from repro.serve import SimulationServer, SimulationService, query_one
from tests.helpers import open_small_buffered

HIT = {"scenario": "simple-omission", "p": 0.1, "n": 3, "trials": 64,
       "seed": 1}


async def _service_server():
    """A simulation server whose :data:`HIT` is warm."""
    server = SimulationServer(SimulationService())
    host, port = await server.start()
    await query_one(host, port, HIT)
    return server, HIT, 3000


async def _worker_server():
    server = ShardWorker()
    await server.start()
    return server, {"op": "hello"}, 12000


SERVERS = {"service": _service_server, "worker": _worker_server}


@pytest.fixture(params=sorted(SERVERS))
def start_server(request):
    """A coroutine function starting one server kind: ``(server, good
    request, lines)``.  The good request answers ``ok`` at once, and
    ``lines`` of it get about 1 MB of answers (350-byte hit answers,
    90-byte hello answers), enough to overfill small buffers."""
    return SERVERS[request.param]


def _line(request, ident):
    return json.dumps(dict(request, id=ident)).encode() + b"\n"


async def _replies(reader):
    """Every reply line until the server closes the connection."""
    replies = []
    while line := await reader.readline():
        replies.append(json.loads(line))
    return replies


class TestConformance:
    BURST = 200

    def test_burst_malformed_lines_and_recovery(self, start_server):
        async def scenario():
            server, good, _ = await start_server()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                lines = [_line(good, ident) for ident in range(self.BURST)]
                lines += [b"{this is not json\n", _line(good, 1000),
                          b"[" * 50_000 + b"\n", _line(good, 1001),
                          b"[1, 2]\n", _line(good, 1002),
                          b'{"pad": "' + b"x" * wire.MAX_LINE_BYTES
                          + b'"}\n', _line(good, 1003)]
                writer.write(b"".join(lines))
                replies = await _replies(reader)
                writer.close()
                # A new connection is answered after the oversized line.
                after = await asyncio.open_connection(host, port)
                after[1].write(_line(good, 2000))
                recovered = json.loads(await after[0].readline())
                after[1].close()
                return replies, recovered
            finally:
                await server.close()

        replies, recovered = asyncio.run(scenario())
        answered = [reply["id"] for reply in replies if "id" in reply]
        assert sorted(answered) == list(range(self.BURST)) + [
            1000, 1001, 1002]
        assert all(reply["ok"] for reply in replies if "id" in reply)
        # Replies without an id, by message; pipelined replies arrive
        # in any order.  The connection closes after the oversized
        # line, so the good line behind it is never read.
        errors = collections.Counter(
            (reply["error"], reply["message"].split(":")[0])
            for reply in replies if "id" not in reply)
        assert errors == {
            # Unparsable, and nested too deep to parse.
            ("bad-json", "request is not valid JSON"): 2,
            ("bad-request", "request must be a JSON object"): 1,
            ("bad-request",
             f"request line exceeds {wire.MAX_LINE_BYTES} bytes"): 1}
        assert recovered["ok"] is True and recovered["id"] == 2000


class TestTeardown:
    #: A short drain bound keeps the suite fast; the mechanism is the
    #: same at the default.
    BOUND = 0.5

    def test_half_closed_client_is_cut_off_and_close_awaits_handlers(
            self, start_server, monkeypatch):
        monkeypatch.setattr(wire, "DRAIN_SECONDS", self.BOUND)

        async def stalled_client(server, good, lines):
            """A client that pipelines and never reads, connected until
            the server has stopped reading it."""
            reader, writer = await open_small_buffered(
                server, *server.address)
            writer.write(b"".join(_line(good, ident)
                                  for ident in range(lines)))
            await asyncio.sleep(0.3)
            return writer

        async def scenario():
            server, good, lines = await start_server()
            try:
                half_closed = await stalled_client(server, good, lines)
                (handler,) = server._handlers
                half_closed.write_eof()
                started = time.monotonic()
                await asyncio.wait([handler], timeout=self.BOUND + 5)
                ended = time.monotonic() - started if handler.done() else None
                # A second client is still stalled when the server closes.
                stalled = await stalled_client(server, good, lines)
                assert len(server._handlers) == 1
            finally:
                await server.close()
            left = asyncio.all_tasks() - {asyncio.current_task()}
            half_closed.close()
            stalled.close()
            return ended, left

        ended, left = asyncio.run(scenario())
        assert ended is not None and ended < self.BOUND + 2, ended
        assert left == set()

    def test_cancelled_serve_forever_ends_an_idle_connection(
            self, start_server):
        async def scenario():
            server, good, _ = await start_server()
            serving = asyncio.create_task(server.serve_forever())
            # Connected, answered once, then neither sending nor
            # half-closed: nothing but shutdown ends its handler.
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(_line(good, 1))
            assert json.loads(await reader.readline())["id"] == 1
            assert len(server._handlers) == 1
            serving.cancel()
            done, _ = await asyncio.wait([serving], timeout=5)
            left = asyncio.all_tasks() - {asyncio.current_task()}
            eof = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            await server.close()
            return done == {serving}, set(server._handlers), left, eof

        stopped, handlers, left, eof = asyncio.run(scenario())
        assert stopped
        assert handlers == set() and left == set()
        assert eof == b""
