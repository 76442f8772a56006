"""Distributed shard workers: wire protocol, bit-identity, fault injection.

Four layers of pinning:

* **protocol units** — the NDJSON framing and packed-bits result
  helpers (digest verification, frame caps) and catalog spec
  resolution;
* **worker wire behaviour** — an in-process :class:`ShardWorker` driven
  over a real loopback socket: hello/ping, structured rejections for
  every malformed-frame class, structured shard errors, and the
  event-loop-stays-responsive guarantee (a ping answers while a shard
  simulates on the execution thread);
* **cross-executor properties** — the reason the whole substrate is
  safe to swap: the same catalog spec under the same root seed yields
  byte-identical indicators on the in-process, local-pool and
  remote-socket backends (engine and batchsim tiers, and every
  ``mixed`` catalog pin), ``run_until`` stops at the same trial count
  with the same indicator prefix on all of them, and killing a remote
  worker mid-sweep changes nothing but wall-clock time;
* **no code over the wire** — a factory-built runner is refused before
  a connection opens, a live ``__reduce__`` payload in any request or
  reply field ends in a structured error or a disconnect without
  running, and no distrib module names the serialiser it would need.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pathlib
import pickle
import socket
import threading

import numpy as np
import pytest

from repro.core import SimpleOmission
from repro.distrib.protocol import (
    MAX_LINE_BYTES,
    MAX_SHARD_TRIALS,
    PROTOCOL_VERSION,
    WORKER_ROLE,
    decode_bits,
    decode_line,
    encode_bits,
    encode_line,
)
from repro.distrib.worker import ShardWorker
from repro.engine import MESSAGE_PASSING
from repro.failures import OmissionFailures
from repro.graphs import binary_tree
from repro.montecarlo import (
    RemoteSocketExecutor,
    TrialRunner,
    WorkerCrashError,
    WorkerDisconnect,
)
from repro.montecarlo.executors.remote import RemoteShardError
from repro.montecarlo.trials import run_spec_shard
from repro.serve import Query, SimulationService
from tests.helpers import WorkerProcess
from tests.test_serve_catalog import SAMPLES

#: Simple-Omission on a depth-3 binary tree, phase length 2.
CELL = ("simple-omission", 0.3, 3, {"phase_length": 2})
SPEC = TrialRunner.from_spec(*CELL).spec


class TestProtocolUnits:
    def test_payload_roundtrip_is_digest_stamped(self):
        rng = np.random.default_rng(5)
        for length in (0, 1, 7, 8, 9, 1000):
            indicators = rng.random(length) < 0.5
            bits, size, digest = encode_bits(indicators)
            assert size == length
            decoded = decode_bits(bits, size, digest)
            assert decoded.dtype == bool
            assert np.array_equal(decoded, indicators)

    def test_digest_mismatch_is_rejected(self):
        bits, length, digest = encode_bits(np.array([True, False, True]))
        _, _, other_digest = encode_bits(np.array([True, True, True]))
        with pytest.raises(ValueError, match="digest mismatch"):
            decode_bits(bits, length, other_digest)
        with pytest.raises(ValueError, match="cannot hold"):
            decode_bits(bits, 9, digest)  # a short frame
        with pytest.raises(ValueError, match="int length"):
            decode_bits(bits, True, digest)

    def test_malformed_base64_is_rejected(self):
        _, length, digest = encode_bits(np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="not valid base64"):
            decode_bits("!!!not-base64!!!", length, digest)

    def test_lambdas_have_no_wire_spec(self):
        factory = lambda: SimpleOmission(  # noqa: E731
            binary_tree(3), 0, 1, MESSAGE_PASSING, 2)
        assert TrialRunner(factory, OmissionFailures(0.3)).spec is None
        runner = TrialRunner.from_spec(*CELL)
        assert runner.spec == SPEC == (
            '["simple-omission",0.3,3,{"phase_length":2}]')
        with pytest.raises(AttributeError):
            runner.spec = "[]"

    def test_resolve_rejects_malformed_and_missing_specs(self):
        with pytest.raises(ValueError, match="not a canonical \\[family"):
            run_spec_shard("no json here", "engine", 7, 0, 1)
        with pytest.raises(ValueError, match="not a canonical \\[family"):
            run_spec_shard("[3]", "engine", 7, 0, 1)
        with pytest.raises(ValueError, match="not canonical"):
            run_spec_shard(SPEC.replace(",", ", "), "engine", 7, 0, 1)
        with pytest.raises(ValueError, match="not canonical"):
            run_spec_shard(SPEC.replace("0.3", '"0.3"'), "engine", 7, 0, 1)
        with pytest.raises(KeyError, match="unknown scenario family"):
            run_spec_shard(SPEC.replace("simple-omission", "nope"),
                           "engine", 7, 0, 1)
        with pytest.raises(ValueError, match="shard tier"):
            run_spec_shard(SPEC, "fastsim", 7, 0, 1)

    def test_line_framing_roundtrip(self):
        frame = encode_line({"op": "ping", "id": 3})
        assert frame.endswith(b"\n")
        assert decode_line(frame) == {"op": "ping", "id": 3}
        with pytest.raises(ValueError, match="not valid JSON"):
            decode_line(b"{nope\n")
        with pytest.raises(ValueError, match="JSON object"):
            decode_line(b"[1,2]\n")


async def _with_worker(interact, **worker_kwargs):
    """Start an in-process worker, run ``interact(reader, writer)``."""
    worker = ShardWorker(**worker_kwargs)
    await worker.start()
    host, port = worker.address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await interact(reader, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
        await worker.close()


async def _exchange(reader, writer, message):
    writer.write(encode_line(message))
    await writer.drain()
    return decode_line(await reader.readline())


def _run_request(ident=1, **fields):
    """A well-formed ``run`` request for two trials of :data:`SPEC`,
    with ``fields`` overriding any of its fields."""
    request = {"op": "run", "id": ident, "protocol": PROTOCOL_VERSION,
               "spec": SPEC, "tier": "engine", "root_seed": 7,
               "start": 0, "stop": 2}
    request.update(fields)
    return request


def _ask(*requests):
    """Send ``requests`` to a fresh in-process worker; return replies."""
    async def interact(reader, writer):
        return [await _exchange(reader, writer, request)
                for request in requests]

    return asyncio.run(_with_worker(interact))


class TestWorkerWire:
    def test_hello_identifies_role_and_protocol(self):
        async def interact(reader, writer):
            reply = await _exchange(reader, writer, {"op": "hello", "id": 7})
            assert reply["id"] == 7
            assert reply["ok"] is True
            assert reply["role"] == WORKER_ROLE
            assert reply["protocol"] == PROTOCOL_VERSION == 3
            assert isinstance(reply["pid"], int)

        asyncio.run(_with_worker(interact))

    def test_ping_and_unknown_op(self):
        async def interact(reader, writer):
            assert (await _exchange(
                reader, writer, {"op": "ping", "id": 0}))["ok"] is True
            reply = await _exchange(reader, writer, {"op": "warp", "id": 1})
            assert reply["ok"] is False
            assert reply["error"] == "bad-request"

        asyncio.run(_with_worker(interact))

    def test_garbage_json_gets_a_structured_rejection(self):
        async def interact(reader, writer):
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = decode_line(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == "bad-json"

        asyncio.run(_with_worker(interact))

    def test_run_rejects_protocol_mismatch(self):
        [reply] = _ask(_run_request(protocol=PROTOCOL_VERSION - 1))
        assert reply["error"] == "bad-request"
        assert "protocol mismatch" in reply["message"]

    def test_run_rejects_corrupt_payload(self):
        # A spec that is not JSON reaches the catalog as nothing.
        [reply] = _ask(_run_request(spec="{not json"))
        assert reply["ok"] is False
        assert reply["error"] == "shard-error"
        assert reply["type"] == "ValueError"

    def test_run_rejects_non_tuple_args(self):
        replies = _ask(
            _run_request(spec="[3]"),
            _run_request(tier=5),
            _run_request(root_seed=True),
            _run_request(start="0"),
            _run_request(start=3, stop=2),
            _run_request(start=-1),
            _run_request(stop=MAX_SHARD_TRIALS + 1),
        )
        assert replies[0]["error"] == "shard-error"
        assert "not a canonical [family" in replies[0]["message"]
        assert [reply["error"] for reply in replies[1:]] == [
            "bad-request"] * 6

    def test_run_refuses_functions_outside_repro(self):
        # The v2 request shape — a named function plus a payload — no
        # longer names anything a worker would run.
        [reply] = _ask({"op": "run", "id": 5, "protocol": PROTOCOL_VERSION,
                        "function": "os:system", "payload": "ZWNobw==",
                        "digest": "0" * 64})
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"

    def test_run_executes_and_stamps_the_result(self):
        [reply] = _ask(_run_request(ident=6, start=3, stop=12))
        assert reply["ok"] is True
        assert reply["id"] == 6
        assert reply["length"] == 9
        assert np.array_equal(
            decode_bits(reply["bits"], reply["length"], reply["digest"]),
            run_spec_shard(SPEC, "engine", 7, 3, 12))
        assert reply["seconds"] >= 0.0

    def test_shard_exceptions_travel_back_structured(self):
        [reply] = _ask(_run_request(spec=SPEC.replace("0.3", "1.5")))
        assert reply["ok"] is False
        assert reply["error"] == "shard-error"
        assert reply["type"] == "ValueError"
        assert "p must lie in [0, 1), got 1.5" in reply["message"]

    def test_ping_answers_while_a_shard_is_running(self):
        # The run executes on the worker's execution thread, so a
        # second connection's heartbeat is answered while the shard
        # (two thousand engine trials, about 2 s) is still simulating.
        async def run():
            worker = ShardWorker()
            await worker.start()
            host, port = worker.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(encode_line(_run_request(ident=9, stop=2000)))
                await writer.drain()
                run_reply = asyncio.ensure_future(reader.readline())
                ping_reader, ping_writer = await asyncio.open_connection(
                    host, port)
                try:
                    reply = await asyncio.wait_for(
                        _exchange(ping_reader, ping_writer,
                                  {"op": "ping", "id": 0}),
                        timeout=30.0)
                    assert reply["ok"] is True
                    assert not run_reply.done()
                finally:
                    ping_writer.close()
                    await ping_writer.wait_closed()
                shipped = decode_line(await run_reply)
                assert shipped["ok"] is True
                assert shipped["length"] == 2000
            finally:
                writer.close()
                await writer.wait_closed()
                await worker.close()

        asyncio.run(run())

    def test_frame_cap_fits_bulk_indicator_payloads(self):
        # The cap must bound garbage, not legitimate work: a
        # million-trial chunk is 167 kB of base64, and the largest
        # range a request may ask for still fits with room to spare.
        bits, _, _ = encode_bits(np.zeros(1_000_000, dtype=bool))
        assert len(bits) == 4 * -(-125_000 // 3)
        assert 4 * -(-MAX_SHARD_TRIALS // 8 // 3) + 4096 < MAX_LINE_BYTES

    def test_negative_die_after_runs_is_rejected(self):
        with pytest.raises(ValueError, match="die_after_runs"):
            ShardWorker(die_after_runs=-1)


@pytest.fixture(scope="module")
def loopback_pair():
    workers = [WorkerProcess(), WorkerProcess()]
    yield workers
    for worker in workers:
        worker.close()


def _runner(executor=None, workers=1, **kwargs):
    return TrialRunner.from_spec(*CELL, workers=workers, executor=executor,
                                 **kwargs)


#: The sample rows pinned at a cell where some trials fail.
MIXED = sorted(key for key in SAMPLES if key[1] == "mixed")


class TestCrossExecutorBitIdentity:
    """Same seed, any substrate → byte-identical indicators."""

    def test_engine_tier_identical_across_all_backends(self, loopback_pair):
        remote = RemoteSocketExecutor(
            [(w.host, w.port) for w in loopback_pair])
        kwargs = dict(use_fastsim=False, use_batchsim=False)
        baseline = _runner(**kwargs).run(96, 2007)
        local = _runner(workers=4, **kwargs).run(96, 2007)
        shipped = _runner(executor=remote, workers=4, **kwargs).run(96, 2007)
        assert shipped.workers == 2
        assert np.array_equal(baseline.indicators, local.indicators)
        assert np.array_equal(baseline.indicators, shipped.indicators)

    def test_batchsim_tier_identical_across_all_backends(self, loopback_pair):
        remote = RemoteSocketExecutor(
            [(w.host, w.port) for w in loopback_pair])
        kwargs = dict(use_fastsim=False)
        baseline = _runner(**kwargs).run(600, 11)
        local = _runner(workers=2, **kwargs).run(600, 11)
        shipped = _runner(executor=remote, workers=2, **kwargs).run(600, 11)
        assert shipped.workers == 2
        assert np.array_equal(baseline.indicators, local.indicators)
        assert np.array_equal(baseline.indicators, shipped.indicators)

    @pytest.mark.parametrize("key", MIXED, ids=[name for name, _ in MIXED])
    def test_mixed_pins_identical_over_the_wire(self, loopback_pair, key):
        # A worker that dropped p or a param from the spec would still
        # pass a cell where every trial succeeds; these cells fail some.
        p, n, params = SAMPLES[key][:3]
        remote = RemoteSocketExecutor(
            [(w.host, w.port) for w in loopback_pair])
        baseline = TrialRunner.from_spec(key[0], p, n, params,
                                         use_fastsim=False).run(256, 7)
        shipped = TrialRunner.from_spec(
            key[0], p, n, params, use_fastsim=False,
            executor=remote).run(256, 7)
        assert shipped.workers == 2
        assert 0 < baseline.successes < baseline.trials
        assert np.array_equal(baseline.indicators, shipped.indicators)

    def test_service_queries_ship_spec_shards(self, loopback_pair):
        # ``serve --executor remote:...``: the service's runners come
        # from the catalog spec, so their shards cross the wire.
        remote = RemoteSocketExecutor(
            [(w.host, w.port) for w in loopback_pair])
        query = Query("windowed-malicious", 0.4, 2, 512, seed=7,
                      params={"cols": 3})
        shipped = asyncio.run(
            SimulationService(shard_executor=remote).submit(query))
        local = asyncio.run(SimulationService().submit(query))
        assert shipped.result.workers == 2
        assert shipped.fingerprint == local.fingerprint
        assert shipped.indicators_digest() == local.indicators_digest()

    def test_run_until_stops_identically_on_every_backend(
            self, loopback_pair):
        remote = RemoteSocketExecutor(
            [(w.host, w.port) for w in loopback_pair])
        kwargs = dict(use_fastsim=False)
        sequential = [
            _runner(workers=4, **kwargs).run_until(
                0.2, 4096, 13, initial_trials=256),
            _runner(executor=remote, workers=2, **kwargs).run_until(
                0.2, 4096, 13, initial_trials=256),
        ]
        baseline = sequential[0]
        fixed = _runner(**kwargs).run(4096, 13)
        for result in sequential:
            # Identical stopping point and identical indicator prefix —
            # and that prefix is exactly the fixed-budget run's prefix.
            assert result.result.trials == baseline.result.trials
            assert result.met is baseline.met
            assert np.array_equal(result.result.indicators,
                                  baseline.result.indicators)
            assert np.array_equal(
                result.result.indicators,
                fixed.indicators[:result.result.trials])

    def test_mid_sweep_worker_kill_changes_nothing_but_time(self):
        # One worker serves a single shard then hard-exits on its next
        # run op — an OOM kill from the executor's point of view.  The
        # engine tier cuts 4 shards per worker, so the doomed worker is
        # guaranteed to be holding shards when it dies; the survivor
        # absorbs them and the final indicators are the undisturbed ones.
        doomed = WorkerProcess("--die-after-runs", "1")
        steady = WorkerProcess()
        try:
            remote = RemoteSocketExecutor(
                [(doomed.host, doomed.port), (steady.host, steady.port)],
                max_shard_retries=2)
            kwargs = dict(use_fastsim=False, use_batchsim=False)
            undisturbed = _runner(**kwargs).run(96, 3)
            shipped = _runner(executor=remote, workers=4, **kwargs).run(96, 3)
            assert not doomed.alive()
            assert steady.alive()
            assert np.array_equal(undisturbed.indicators, shipped.indicators)
        finally:
            doomed.close()
            steady.close()


class _Touch:
    """Unpickling this creates ``path``: the canary of a code channel."""

    def __init__(self, path):
        self.path = pathlib.Path(path)

    def __reduce__(self):
        return pathlib.Path.touch, (self.path,)


def _payload(path):
    return base64.b64encode(pickle.dumps(_Touch(path))).decode("ascii")


class _ScriptedWorker:
    """A fake worker: a correct hello, then ``reply(request)`` for every
    other request, on one connection."""

    def __init__(self, reply):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.peer = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, args=(reply,),
                                        daemon=True)
        self._thread.start()

    def _serve(self, reply):
        connection, _ = self._listener.accept()
        with connection, connection.makefile("rwb") as stream:
            for line in stream:
                request = decode_line(line)
                if request["op"] == "hello":
                    answer = {"id": request["id"], "ok": True,
                              "role": WORKER_ROLE,
                              "protocol": PROTOCOL_VERSION}
                else:
                    answer = reply(request)
                stream.write(encode_line(answer))
                stream.flush()

    def close(self):
        self._thread.join(timeout=5.0)
        self._listener.close()


class TestNoCodeOverTheWire:
    def test_the_canary_payload_is_live(self, tmp_path):
        canary = tmp_path / "control"
        pickle.loads(base64.b64decode(_payload(canary)))
        assert canary.exists()

    def test_factory_runner_is_refused_before_connecting(self):
        factory = lambda: SimpleOmission(  # noqa: E731
            binary_tree(3), 0, 1, MESSAGE_PASSING, 2)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            peer = listener.getsockname()[:2]
            # Two peers, so the engine tier cuts shards.
            runner = TrialRunner(
                factory, OmissionFailures(0.3), use_fastsim=False,
                use_batchsim=False,
                executor=RemoteSocketExecutor([peer, peer]))
            with pytest.raises(TypeError, match="TrialRunner.from_spec"):
                runner.run(16, 7)
            with pytest.raises(BlockingIOError):
                listener.accept()

    @pytest.mark.parametrize("field", [
        "op", "id", "protocol", "spec", "family", "p", "n", "param",
        "params", "tier", "root_seed", "start", "stop"])
    def test_request_fields_never_run_code(self, tmp_path, field):
        sentinel = tmp_path / "sentinel"
        payload = _payload(sentinel)
        family, p, n, params = json.loads(SPEC)
        specs = {
            "family": [payload, p, n, params],
            "p": [family, payload, n, params],
            "n": [family, p, payload, params],
            "param": [family, p, n, {"phase_length": payload}],
            "params": [family, p, n, payload],
        }
        if field in specs:
            request = _run_request(spec=json.dumps(
                specs[field], separators=(",", ":"), sort_keys=True))
        else:
            request = _run_request(**{field: payload})
        [reply] = _ask(request)
        assert reply["ok"] is False
        assert reply["error"] in ("bad-request", "shard-error")
        assert not sentinel.exists()

    @pytest.mark.parametrize("field", [
        "bits", "length", "digest", "seconds", "id", "error", "type",
        "message"])
    def test_reply_fields_never_run_code(self, tmp_path, field):
        sentinel = tmp_path / "sentinel"
        payload = _payload(sentinel)
        bits, length, digest = encode_bits(
            run_spec_shard(SPEC, "engine", 7, 0, 2))

        def reply(request):
            if field in ("error", "type", "message"):
                answer = {"ok": False, "error": "shard-error",
                          "type": "ValueError", "message": "refused"}
            else:
                answer = {"ok": True, "bits": bits, "length": length,
                          "digest": digest, "seconds": 0.1}
            return {**answer, "id": request["id"], field: payload}

        worker = _ScriptedWorker(reply)
        try:
            executor = RemoteSocketExecutor([worker.peer],
                                            max_shard_retries=0)
            with pytest.raises((RemoteShardError, WorkerCrashError)) as caught:
                executor.run_sharded(run_spec_shard,
                                     [(SPEC, "engine", 7, 0, 2)])
            if isinstance(caught.value, WorkerCrashError):
                assert isinstance(caught.value.__cause__, WorkerDisconnect)
            else:
                assert payload in str(caught.value)
        finally:
            worker.close()
        assert not sentinel.exists()

    def test_no_distrib_module_names_pickle(self):
        import repro.distrib
        import repro.montecarlo.executors.remote as remote

        package = pathlib.Path(repro.distrib.__file__).parent
        sources = [*sorted(package.glob("*.py")),
                   pathlib.Path(remote.__file__)]
        assert len(sources) >= 6
        for source in sources:
            assert "pickle" not in source.read_text().lower(), source.name
