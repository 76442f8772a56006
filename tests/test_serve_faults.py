"""Wire fault injection: the server survives hostile clients.

Each test throws one failure mode at a live :class:`SimulationServer`
and asserts three things: the server **survives** (a follow-up query
on a fresh connection succeeds), the client gets a **structured**
error code (never a hung or torn connection where a response was
possible), and the failure is **counted** (the ``metrics`` op's
``serve.wire.errors{code}`` / ``serve.errors{code}``) without
poisoning the memo — after any fault, recomputing the same
fingerprint yields bytes identical to a clean direct run.

Failure modes covered: malformed NDJSON, oversized request lines,
connections torn mid-line and mid-flight, slow-loris clients
dribbling a request byte-by-byte (while other connections stay
served), an executor whose workers die mid-batch, and admission-
control overload (structured ``overloaded`` + ``retry_after_ms``,
deterministic with a 1-slot controller).

No pytest-asyncio in the environment, so every async scenario runs
under ``asyncio.run`` inside plain test functions.
"""

import asyncio
import json
from concurrent.futures import Executor, ThreadPoolExecutor
from hashlib import sha256

from repro.experiments.registry import resolve_scenario
from repro.montecarlo import TrialRunner
from repro.obs import render_prometheus
from repro.serve import (
    Query,
    SimulationServer,
    SimulationService,
    query_many,
    query_one,
)
from repro.serve.protocol import MAX_LINE_BYTES

SLOW_QUERY = {"scenario": "windowed-malicious", "p": 0.25, "n": 2,
              "trials": 150, "seed": 4}


def run(coro):
    return asyncio.run(coro)


async def _with_server(callback, **service_kwargs):
    service = SimulationService(**service_kwargs)
    server = SimulationServer(service)
    host, port = await server.start()
    try:
        return await callback(host, port, server)
    finally:
        await server.close()
        service.close()


async def _metrics(host, port):
    return (await query_one(host, port, {"op": "metrics"}))["metrics"]


async def _server_is_alive(host, port):
    response = await query_one(host, port, {
        "scenario": "flooding", "p": 0.1, "n": 5, "trials": 16, "seed": 1,
    })
    assert response["ok"] is True
    return response


class DyingExecutor(Executor):
    """Executor whose first ``failures`` submissions die mid-batch.

    Models a worker pool losing its processes: ``submit`` raises (the
    same ``RuntimeError`` a shut-down pool raises) and then recovers,
    so tests can assert both the structured failure and that the memo
    was not poisoned by it.
    """

    def __init__(self, failures=1):
        self._inner = ThreadPoolExecutor(max_workers=1)
        self.failures = failures

    def submit(self, fn, /, *args, **kwargs):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("worker died mid-batch")
        return self._inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self._inner.shutdown(wait, cancel_futures=cancel_futures)


class TestMalformedInput:
    def test_garbage_line_then_valid_query_same_connection(self):
        async def scenario(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"{not json\n")
                writer.write((json.dumps({
                    "id": 1, "scenario": "flooding", "p": 0.1, "n": 5,
                    "trials": 16, "seed": 1,
                }) + "\n").encode())
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return first, second, await _metrics(host, port)

        first, second, snapshot = run(_with_server(scenario))
        by_order = sorted([first, second], key=lambda r: r.get("ok"))
        assert by_order[0]["error"] == "bad-json"
        assert by_order[1]["ok"] is True
        wire_errors = {entry["labels"]["code"]: entry["value"]
                       for entry in snapshot["counters"]
                       if entry["name"] == "serve.wire.errors"}
        assert wire_errors.get("bad-json") == 1

    def test_non_object_and_unknown_op_lines(self):
        async def scenario(host, port, server):
            responses = []
            for line in ('[1,2,3]', '"hello"', '{"op":"explode"}'):
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write((line + "\n").encode())
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                finally:
                    writer.close()
                    await writer.wait_closed()
            await _server_is_alive(host, port)
            return responses

        responses = run(_with_server(scenario))
        assert [r["error"] for r in responses] == ["bad-request"] * 3
        assert all(r["ok"] is False for r in responses)

    def test_oversized_line_gets_structured_error(self):
        async def scenario(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"pad": "' + b"x" * (2 * MAX_LINE_BYTES)
                             + b'"}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            alive = await _server_is_alive(host, port)
            return response, alive

        response, alive = run(_with_server(scenario))
        assert response["ok"] is False
        assert response["error"] == "bad-request"
        assert "exceeds" in response["message"]
        assert alive["ok"] is True


class TestTornConnections:
    def test_disconnect_mid_line_leaves_server_serving(self):
        async def scenario(host, port, server):
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"scenario": "floo')  # no newline, then vanish
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            return await _server_is_alive(host, port)

        assert run(_with_server(scenario))["ok"] is True

    def test_disconnect_mid_flight_does_not_poison_memo(self):
        async def scenario(host, port, server):
            _, writer = await asyncio.open_connection(host, port)
            writer.write((json.dumps(SLOW_QUERY) + "\n").encode())
            await writer.drain()
            writer.close()  # leave before the answer arrives
            await writer.wait_closed()
            # Ask again from a healthy connection: whatever happened to
            # the orphaned in-flight run, the answer must match a
            # clean direct execution bit-for-bit.
            response = await query_one(host, port, SLOW_QUERY)
            return response

        response = run(_with_server(scenario))
        assert response["ok"] is True
        factory, model = resolve_scenario(
            SLOW_QUERY["scenario"], SLOW_QUERY["p"], SLOW_QUERY["n"], {})
        direct = TrialRunner(factory, model).run(SLOW_QUERY["trials"],
                                                 SLOW_QUERY["seed"])
        assert response["indicators_sha256"] == sha256(
            direct.indicators.tobytes()).hexdigest()


class TestSlowLoris:
    def test_dribbled_request_completes_and_does_not_block_others(self):
        async def scenario(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                line = (json.dumps({
                    "id": 77, "scenario": "flooding", "p": 0.1, "n": 5,
                    "trials": 16, "seed": 2,
                }) + "\n").encode()
                half = len(line) // 2
                for byte in line[:half]:
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0.001)
                # Mid-dribble, a well-behaved client is still served.
                concurrent = await _server_is_alive(host, port)
                for byte in line[half:]:
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0.001)
                response = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return concurrent, response

        concurrent, response = run(_with_server(scenario))
        assert concurrent["ok"] is True
        assert response["ok"] is True and response["id"] == 77

    def test_partial_line_forever_is_just_ignored(self):
        async def scenario(host, port, server):
            _, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"scenario": "windowed')  # never finishes
            await writer.drain()
            alive = await _server_is_alive(host, port)
            writer.close()
            await writer.wait_closed()
            return alive

        assert run(_with_server(scenario))["ok"] is True


class TestWorkerDeath:
    def test_dying_worker_answers_internal_then_recovers(self):
        executor = DyingExecutor(failures=1)

        async def scenario(host, port, server):
            first = await query_one(host, port, SLOW_QUERY)
            second = await query_one(host, port, SLOW_QUERY)
            return (first, second, server.service.stats(),
                    await _metrics(host, port))

        first, second, stats, snapshot = run(_with_server(
            scenario, executor=executor))
        assert first["ok"] is False
        assert first["error"] == "internal"
        assert "worker died" in first["message"]
        # The failed flight must not leave a poisoned memo entry: the
        # retry recomputes and matches a clean direct run exactly.
        assert second["ok"] is True
        assert second["source"] == "computed"
        factory, model = resolve_scenario(
            SLOW_QUERY["scenario"], SLOW_QUERY["p"], SLOW_QUERY["n"], {})
        direct = TrialRunner(factory, model).run(SLOW_QUERY["trials"],
                                                 SLOW_QUERY["seed"])
        assert second["indicators_sha256"] == sha256(
            direct.indicators.tobytes()).hexdigest()
        wire_errors = {entry["labels"]["code"]: entry["value"]
                       for entry in snapshot["counters"]
                       if entry["name"] == "serve.wire.errors"}
        assert wire_errors.get("internal") == 1
        # The failed run is a counted error in both views.
        assert (stats.queries, stats.errors) == (2, 1)
        errors = {entry["labels"]["code"]: entry["value"]
                  for entry in snapshot["counters"]
                  if entry["name"] == "serve.errors"}
        assert errors == {"internal": 1}
        executor.shutdown()


class TestOverload:
    def test_saturating_burst_sheds_with_structured_overloaded(self):
        # One run slot, zero queue: of two *distinct* concurrent
        # queries (distinct so they cannot coalesce), exactly one runs
        # and one sheds — deterministically, because admission grants
        # are synchronous and the second line is admitted while the
        # first still holds the only slot.
        async def scenario(host, port, server):
            other = dict(SLOW_QUERY, seed=SLOW_QUERY["seed"] + 1)
            responses = await query_many(host, port, [SLOW_QUERY, other])
            retry = await query_one(host, port, other)
            return responses, retry, await _metrics(host, port)

        responses, retry, snapshot = run(_with_server(
            scenario, max_concurrent_runs=1, max_queued_runs=0))
        by_ok = sorted(responses, key=lambda r: r["ok"])
        shed, served = by_ok[0], by_ok[1]
        assert served["ok"] is True
        assert shed["error"] == "overloaded"
        assert shed["retry_after_ms"] > 0
        assert "full" in shed["message"]
        # After the burst the same query is admitted and served.
        assert retry["ok"] is True

        counters = {(entry["name"],
                     tuple(sorted(entry["labels"].items()))): entry["value"]
                    for entry in snapshot["counters"]}
        assert counters[("serve.admission.rejected",
                         (("op", "query"),))] == 1
        assert counters[("serve.errors", (("code", "overloaded"),))] == 1
        assert counters[("serve.wire.errors",
                         (("code", "overloaded"),))] == 1
        # The admission series must reach the Prometheus exposition.
        text = render_prometheus(snapshot)
        assert 'serve_admission_admitted_total{op="query"}' in text
        assert 'serve_admission_rejected_total{op="query"}' in text

    def test_queued_run_waits_instead_of_shedding(self):
        # With queue room, the second distinct query waits for the
        # slot and both succeed — backpressure, not rejection.
        async def scenario(host, port, server):
            other = dict(SLOW_QUERY, seed=SLOW_QUERY["seed"] + 2)
            responses = await query_many(host, port, [SLOW_QUERY, other])
            return responses, server.service.admission.stats()

        responses, admission = run(_with_server(
            scenario, max_concurrent_runs=1, max_queued_runs=4))
        assert all(response["ok"] for response in responses)
        assert admission.rejected == 0
        assert admission.admitted == 2

    def test_cache_hits_bypass_admission_under_overload(self):
        # A saturated controller must not starve the cheap paths:
        # cached answers are served even with zero free slots.
        async def scenario(host, port, server):
            await query_one(host, port, SLOW_QUERY)  # fill the memo
            controller = server.service.admission
            await controller.acquire("query")  # hold the only slot
            try:
                response = await query_one(host, port, SLOW_QUERY)
            finally:
                controller.release("query")
            return response

        response = run(_with_server(
            scenario, max_concurrent_runs=1, max_queued_runs=0))
        assert response["ok"] is True
        assert response["source"] == "cache"


class TestRunUntilWire:
    def test_run_until_round_trip_and_prefix_serving(self):
        async def scenario(host, port, server):
            base = {"op": "run_until", "scenario": "flooding", "p": 0.1,
                    "n": 8, "max_trials": 4096, "seed": 2}
            strict = await query_one(host, port,
                                     dict(base, target_width=0.1))
            wider = await query_one(host, port,
                                    dict(base, target_width=0.8))
            return strict, wider

        strict, wider = run(_with_server(scenario))
        assert strict["ok"] and strict["met"] is True
        assert strict["width"] <= 0.1
        assert strict["steps"][-1][0] == strict["trials"]
        assert wider["source"] == "cache"
        # Sequential indicators are prefixes: the wider answer's trace
        # is a prefix of the stricter one's.
        assert wider["steps"] == strict["steps"][:len(wider["steps"])]

    def test_run_until_validation_errors_are_structured(self):
        async def scenario(host, port, server):
            cases = [
                dict(op="run_until", scenario="flooding", p=0.1, n=8),
                dict(op="run_until", scenario="flooding", p=0.1, n=8,
                     target_width=2.0, max_trials=100),
                dict(op="run_until", scenario="flooding", p=0.1, n=8,
                     target_width=0.1, max_trials=100, bound="magic"),
                dict(op="run_until", scenario="layered-opt", p=0.0, n=3,
                     target_width=0.1, max_trials=100),
                dict(op="run_until", scenario="flooding", p=0.1, n=8,
                     target_width=0.1, max_trials=100, bogus=1),
            ]
            return [await query_one(host, port, case) for case in cases]

        responses = run(_with_server(scenario))
        assert [r["error"] for r in responses] == ["bad-request"] * 5
        assert all(r["ok"] is False for r in responses)

    def test_concurrent_identical_run_until_coalesce(self):
        async def scenario(host, port, server):
            request = {"op": "run_until", "scenario": "windowed-malicious",
                       "p": 0.25, "n": 2, "target_width": 0.2,
                       "max_trials": 2048, "seed": 6}
            responses = await query_many(host, port, [request] * 4)
            return responses, server.service.stats()

        responses, stats = run(_with_server(scenario))
        assert all(response["ok"] for response in responses)
        assert len({response["indicators_sha256"]
                    for response in responses}) == 1
        sources = sorted(response["source"] for response in responses)
        assert sources == ["coalesced"] * 3 + ["computed"]
        assert stats.computed == 1
