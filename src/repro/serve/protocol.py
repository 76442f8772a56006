"""Newline-delimited-JSON TCP protocol for the simulation service.

One JSON object per line, in both directions.  Requests::

    {"id": 1, "scenario": "windowed-malicious", "p": 0.25, "n": 4,
     "trials": 2000, "seed": 7}
    {"id": 2, "op": "run_until", "scenario": "flooding", "p": 0.1,
     "n": 16, "target_width": 0.05, "max_trials": 100000}
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "catalog"}
    {"id": 5, "op": "metrics"}

Responses echo the request ``id`` (when one parsed) and carry
``"ok": true/false``.  A successful query response::

    {"id": 1, "ok": true, "scenario": "windowed-malicious",
     "estimate": 0.97, "successes": 1940, "trials": 2000,
     "backend": "batchsim", "source": "computed",
     "fingerprint": "<sha256>", "indicators_sha256": "<sha256>",
     "elapsed_ms": 412.7}

The adaptive ``run_until`` op drives the sequential engine
(:meth:`TrialRunner.run_until`) server-side: its response adds
``target_width`` / ``max_trials`` / ``bound``, the honest ``met``
flag, the final interval ``width``, and the per-extension ``steps``
trace (``[[trials, successes, width], ...]``).  Sequential answers are
memo-keyed on the scenario alone, so a cached stricter run serves any
wider target by prefix truncation — byte-identically, which the
``indicators_sha256`` field lets clients verify.

``indicators_sha256`` digests the raw indicator bytes, so clients can
assert that a cached or coalesced replay is byte-identical to a cold
run without shipping the whole vector.  Errors answer
``{"ok": false, "error": "<code>", "message": "..."}`` with codes
``bad-json`` / ``bad-request`` / ``unknown-scenario`` /
``bad-parameters`` / ``overloaded`` / ``internal`` — a malformed line
never kills the connection.  ``overloaded`` responses (admission
control shed the run; see :mod:`repro.serve.admission`) additionally
carry ``retry_after_ms``, a back-off hint scaled by the queue depth at
rejection.

Requests on one connection may be **pipelined**: the server processes
each line as its own task and writes responses as they complete (the
``id`` is the correlation key; responses can arrive out of order).
That is what lets N duplicate queries from one client coalesce into a
single batch execution.

The ``metrics`` op (``{"ok": true, "metrics": {counters, gauges,
histograms}}``) is the machine-readable twin of ``stats``: its
``serve.*`` counters and gauges are built from the counts ``stats``
reads (plus the server's own ``serve.op``, ``serve.wire.errors``,
``serve.wire.inflight`` and ``serve.connections``), merged into the
process-wide :mod:`repro.obs` registry snapshot.  Pipe it through
``python -m repro.obs render`` (or point that command at a live server
with ``--host``/``--port``) for the Prometheus text exposition.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.registry import all_families
from repro.obs import get_registry
from repro.serve.service import (
    Answer,
    OverloadedError,
    Query,
    QueryError,
    SequentialAnswer,
    SequentialQuery,
    SimulationService,
)

__all__ = ["SimulationServer", "query_one", "query_many",
           "MAX_LINE_BYTES"]

#: Request-line size limit — a serving-layer guard against unbounded
#: buffering, far above any legitimate query.
MAX_LINE_BYTES = 64 * 1024


class _OpSchema:
    """Wire fields of one query op, checked by :func:`_parse_query`.

    An absent optional field takes the query type's own default.  Only
    the listed fields are type-checked here; values (ranges, seeds,
    scenario names) are the service's to validate.
    """

    #: Fields that must be JSON objects.
    objects = ("params",)

    def __init__(self, query_type: type, submit: str,
                 required: Tuple[str, ...], optional: Tuple[str, ...],
                 numbers: Tuple[str, ...]):
        self.query_type = query_type
        #: Name of the :class:`SimulationService` method answering the op.
        self.submit = submit
        self.required = required
        self.required_set = frozenset(required)
        self.allowed = frozenset(required + optional)
        #: Fields that must be JSON numbers (coerced to ``float``).
        self.numbers = numbers


_SCHEMAS: Dict[str, _OpSchema] = {
    "query": _OpSchema(
        Query, "submit",
        required=("scenario", "p", "n", "trials"),
        optional=("seed", "params"),
        numbers=("p",),
    ),
    "run_until": _OpSchema(
        SequentialQuery, "submit_until",
        required=("scenario", "p", "n", "target_width", "max_trials"),
        optional=("seed", "bound", "params"),
        numbers=("p", "target_width"),
    ),
}


def _parse_query(schema: _OpSchema, request: Dict[str, Any]) -> Any:
    """Build the op's query from ``request`` or raise ``bad-request``."""
    fields = dict(request)
    fields.pop("id", None)
    fields.pop("op", None)
    unknown = fields.keys() - schema.allowed
    if unknown:
        raise QueryError(
            "bad-request",
            f"unknown request field(s): {', '.join(sorted(unknown))}")
    if not schema.required_set <= fields.keys():
        missing = [key for key in schema.required if key not in fields]
        raise QueryError(
            "bad-request", f"missing required field(s): {', '.join(missing)}")
    for key in schema.numbers:
        value = fields[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise QueryError("bad-request", f"{key} must be a number")
        fields[key] = float(value)
    for key in schema.objects:
        if key in fields and not isinstance(fields[key], dict):
            raise QueryError("bad-request", f"{key} must be a JSON object")
    return schema.query_type(**fields)


def _with_id(payload: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
    if request_id is not None:
        payload["id"] = request_id
    return payload


def _error(code: str, message: str,
           request_id: Any = None) -> Dict[str, Any]:
    return _with_id({"ok": False, "error": code, "message": message},
                    request_id)


def _query_error(error: QueryError, request_id: Any) -> Dict[str, Any]:
    payload = _error(error.code, error.message, request_id)
    if isinstance(error, OverloadedError):
        payload["retry_after_ms"] = round(error.retry_after_ms, 3)
    return payload


def _answer_payload(answer: Union[Answer, SequentialAnswer],
                    request_id: Any) -> Dict[str, Any]:
    result = answer.result
    payload = {
        "ok": True,
        "scenario": answer.query.scenario,
        "estimate": result.estimate,
        "successes": result.successes,
        "trials": result.trials,
        "backend": result.backend,
        "workers": result.workers,
        "seed": result.seed,
        "source": answer.source,
        "fingerprint": answer.fingerprint,
        "indicators_sha256": answer.indicators_digest(),
        "elapsed_ms": round(answer.elapsed * 1000.0, 3),
    }
    if isinstance(answer, SequentialAnswer):
        sequential = answer.sequential
        payload.update({
            "target_width": sequential.target_width,
            "max_trials": answer.query.max_trials,
            "bound": sequential.bound,
            "met": sequential.met,
            "width": answer.width,
            "steps": [[step.trials, step.successes, step.width]
                      for step in sequential.steps],
        })
    return _with_id(payload, request_id)


class SimulationServer:
    """Asyncio TCP front end over a :class:`SimulationService`."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        self._inflight = 0
        self._ops: "Counter[str]" = Counter()
        self._wire_errors: "Counter[str]" = Counter()

    @property
    def service(self) -> SimulationService:
        """The in-process service this server fronts."""
        return self._service

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves on start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    async def close(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``python -m repro.serve`` loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        write_lock = asyncio.Lock()
        pending: List[asyncio.Task] = []

        async def respond(payload: Dict[str, Any]) -> None:
            data = json.dumps(payload, separators=(",", ":")) + "\n"
            async with write_lock:
                writer.write(data.encode("utf8"))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await respond(_error(
                        "bad-request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_line(line, respond)
                )
                pending.append(task)
                pending = [item for item in pending if not item.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            # Loop/server shutdown with the connection still open:
            # drop in-flight line tasks and close quietly instead of
            # letting the cancellation escape into asyncio's stream
            # callback (which logs it as an error).
            for task in pending:
                task.cancel()
        except ConnectionResetError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError):
                # Teardown may cancel the handler while it drains the
                # close; the transport is going away either way.
                pass

    async def _handle_line(self, line: bytes, respond) -> None:
        self._inflight += 1
        try:
            payload = await self._process_line(line)
        finally:
            self._inflight -= 1
        if not payload.get("ok"):
            self._wire_errors[payload.get("error", "unknown")] += 1
        try:
            await respond(payload)
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _process_line(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line.decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _error("bad-json", f"request is not valid JSON: {error}")
        if not isinstance(request, dict):
            return _error("bad-request", "request must be a JSON object")
        request_id = request.get("id")
        op = request.get("op", "query")
        if op in ("query", "run_until", "stats", "catalog", "metrics"):
            self._ops[op] += 1
        if op == "stats":
            return self._stats_payload(request_id)
        if op == "catalog":
            return self._catalog_payload(request_id)
        if op == "metrics":
            return self._metrics_payload(request_id)
        schema = _SCHEMAS.get(op)
        if schema is None:
            return _error("bad-request", f"unknown op {op!r}", request_id)
        try:
            query = _parse_query(schema, request)
            answer = await getattr(self._service, schema.submit)(query)
        except QueryError as error:
            return _query_error(error, request_id)
        except Exception as error:  # pragma: no cover - defensive
            return _error("internal", f"{type(error).__name__}: {error}",
                          request_id)
        return _answer_payload(answer, request_id)

    def _stats_payload(self, request_id: Any) -> Dict[str, Any]:
        stats = self._service.stats()
        payload: Dict[str, Any] = {
            "ok": True,
            "queries": stats.queries,
            "computed": stats.computed,
            "coalesced_hits": stats.coalesced_hits,
            "cache_hits": stats.cache_hits,
            "fastsim_answers": stats.fastsim_answers,
            "errors": stats.errors,
            "shared_work_rate": stats.shared_work_rate,
            "uptime_seconds": round(stats.uptime_seconds, 3),
            "cache": asdict(stats.cache),
            "coalescer": {
                "inflight": stats.coalesce_inflight,
                "started": stats.coalesce_started,
                "joined": stats.coalesce_joined,
            },
            "admission": dict(asdict(self._service.admission.stats()),
                              overloaded_answers=stats.overloaded),
            "executor": dict(stats.executor),
        }
        return _with_id(payload, request_id)

    def _metrics_payload(self, request_id: Any) -> Dict[str, Any]:
        metrics = get_registry().snapshot()
        for kind, entries in self._serving_series().items():
            metrics[kind] = sorted(metrics[kind] + entries, key=lambda e: (
                e["name"], sorted(e["labels"].items())))
        return _with_id({"ok": True, "metrics": metrics}, request_id)

    def _serving_series(self) -> Dict[str, List[Dict[str, Any]]]:
        """The ``serve.*`` counters and gauges in the registry snapshot
        format, built from the counts ``stats`` reads.  A series is
        listed from its first event on, as a registry instrument is."""
        service, stats = self._service, self._service.stats()
        ops, journal = service.admission.ops.items(), service.journal

        def labelled(name: str, label: str,
                     counts: Mapping[str, int]) -> List:
            return [(name, {label: key}, n) for key, n in counts.items()]

        counters = [
            ("serve.connections", {}, self._connections),
            *labelled("serve.op", "op", self._ops),
            *labelled("serve.wire.errors", "code", self._wire_errors),
            ("serve.queries", {}, stats.queries),
            *labelled("serve.answers", "source", {
                "computed": stats.computed, "coalesced": stats.coalesced_hits,
                "cache": stats.cache_hits}),
            *labelled("serve.errors", "code", service.errors),
            ("serve.cache.hits", {}, stats.cache.hits),
            ("serve.cache.misses", {}, stats.cache.misses),
            ("serve.cache.evictions", {}, stats.cache.evictions),
            ("serve.coalesce.started", {}, stats.coalesce_started),
            ("serve.coalesce.joined", {}, stats.coalesce_joined),
            *labelled("serve.admission.admitted", "op",
                      {op: state.admitted for op, state in ops}),
            *labelled("serve.admission.rejected", "op",
                      {op: state.rejected for op, state in ops}),
        ]
        if journal is not None:
            # The service journals every computed answer.
            counters += [
                ("serve.memo.loaded", {}, journal.records_loaded),
                ("serve.memo.appended", {}, stats.computed),
                ("serve.memo.compactions", {}, journal.compactions),
                ("serve.memo.corrupt", {}, journal.records_dropped)]
        # (name, labels, level, whether the level ever moved); the
        # request asking is itself a line in flight.
        gauges = [
            ("serve.wire.inflight", {}, self._inflight, True),
            ("serve.coalesce.inflight", {}, stats.coalesce_inflight,
             stats.coalesce_started),
            *(("serve.admission.inflight", {"op": op}, state.inflight,
               state.admitted) for op, state in ops),
            *(("serve.admission.waiting", {"op": op}, len(state.waiters),
               state.queued) for op, state in ops),
        ]
        return {
            # Reading the journal is ``loaded``'s first event, even when
            # it held no record.
            "counters": [{"name": name, "labels": labels, "value": n}
                         for name, labels, n in counters
                         if n or name == "serve.memo.loaded"],
            "gauges": [{"name": name, "labels": labels, "value": float(n)}
                       for name, labels, n, moved in gauges if moved],
        }

    def _catalog_payload(self, request_id: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "ok": True,
            "scenarios": [
                {
                    "name": family.name,
                    "description": family.description,
                    "n": family.size_meaning,
                    "kind": family.kind,
                    "experiments": list(family.experiments),
                    "p_range": dict(vars(family.p)),
                    "n_range": [{"graph": graph, "low": low,
                                 "meaning": meaning, "high": high}
                                for graph, (low, meaning, high)
                                in family.sizes.items()],
                    "params": [dict(vars(param), name=name) for name, param
                               in family.params.items()],
                }
                for family in all_families()
            ],
        }
        return _with_id(payload, request_id)


# -- client helpers ----------------------------------------------------


async def query_one(host: str, port: int,
                    request: Dict[str, Any]) -> Dict[str, Any]:
    """Send one request and await its single response line."""
    responses = await query_many(host, port, [request])
    return responses[0]


async def query_many(host: str, port: int,
                     requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Pipeline ``requests`` over one connection.

    All request lines are written up front (which is what makes
    duplicate queries coalesce server-side), then one response line is
    read per request.  Responses are re-ordered to match the request
    list via their ``id`` echoes; requests without an ``id`` get one
    injected for correlation.  An empty request list answers ``[]``
    without opening a connection.
    """
    if not requests:
        return []
    reader, writer = await asyncio.open_connection(host, port,
                                                   limit=MAX_LINE_BYTES)
    try:
        tagged: List[Dict[str, Any]] = []
        for index, request in enumerate(requests):
            request = dict(request)
            request.setdefault("id", f"q{index}")
            tagged.append(request)
        payload = "".join(
            json.dumps(request, separators=(",", ":")) + "\n"
            for request in tagged
        )
        writer.write(payload.encode("utf8"))
        await writer.drain()
        by_id: Dict[Any, Dict[str, Any]] = {}
        unmatched: List[Dict[str, Any]] = []
        for _ in tagged:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed before all responses")
            response = json.loads(line)
            if isinstance(response, dict) and "id" in response:
                by_id[response["id"]] = response
            else:
                unmatched.append(response)
        ordered = []
        for request in tagged:
            ordered.append(by_id.get(request["id"],
                                     unmatched.pop(0) if unmatched
                                     else _error("internal",
                                                 "response missing")))
        return ordered
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
