"""In-memory span tracer that wraps public layer entry points from outside.

The benchmark never edits the program: a traced run patches callables
(module attributes, class methods) with timing wrappers, so each call
becomes a span with a layer name, a start, an end and the span that
caused it.  Parent links follow :mod:`contextvars`, which keeps them
right across threads and across ``await`` points (every asyncio task
has its own context).

Per layer the tracer accumulates calls, total time and *self* time
(duration minus the part covered by child spans), optionally keyed by
a scope label (the ``batch-sweep`` cell being run).  Raw spans are kept
in memory up to a cap and written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]

_perf = time.perf_counter

#: Layers recorded as aggregates only — they fire tens of times per
#: query, so keeping each call as a raw span would dwarf the trace.
AGGREGATE_ONLY = frozenset({"obs", "batchsim.stream"})
#: Layers whose individual durations are kept for percentiles.
SAMPLED_LAYERS = frozenset({"admission.acquire"})
#: Raw spans kept in memory; later ones are only counted as dropped.
RAW_CAP = 20_000


class Tracer:
    """Span sink with per-(scope, layer) call / total / self aggregates."""

    def __init__(self):
        self._current: "contextvars.ContextVar[Optional[list]]" = (
            contextvars.ContextVar("perfbench_span", default=None))
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        #: Scope label stamped on every span (the sweep sets the cell).
        self.scope = "-"
        #: ``(scope, layer) -> [calls, total_s, self_s]``.
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: ``layer -> [duration_s, ...]`` for layers asked for percentiles.
        self.samples: Dict[str, List[float]] = {}
        #: ``(scope, name) -> value`` for counts the wrappers derive from
        #: call arguments (trial-rounds, mask bytes, engine rounds).
        self.counts: Dict[Tuple[str, str], float] = {}
        self.raw: List[Tuple[int, int, str, str, float, float, int]] = []
        self.raw_dropped = 0

    # -- recording -----------------------------------------------------

    def _finish(self, layer: str, frame: list, start: float,
                end: float) -> None:
        duration = end - start
        parent = frame[2]
        if parent is not None:
            parent[0] += duration
        key = (self.scope, layer)
        with self._lock:
            entry = self.totals.get(key)
            if entry is None:
                entry = self.totals[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[0]
            if layer in SAMPLED_LAYERS:
                self.samples.setdefault(layer, []).append(duration)
            if layer not in AGGREGATE_ONLY:
                if len(self.raw) < RAW_CAP:
                    self.raw.append((frame[1], parent[1] if parent else 0,
                                     layer, self.scope, start, end,
                                     threading.get_ident()))
                else:
                    self.raw_dropped += 1

    def _open(self) -> Tuple[list, contextvars.Token]:
        # child seconds, span id, parent frame
        frame = [0.0, next(self._ids), self._current.get()]
        return frame, self._current.set(frame)

    def clear(self) -> None:
        """Drop everything recorded so far (the timed window starts).

        Rebinds fresh containers instead of taking the lock, so it is
        safe to call from a signal handler that interrupted a span.
        """
        self.totals, self.samples, self.counts, self.raw = {}, {}, {}, []
        self.raw_dropped = 0

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to the named count in the current scope."""
        key = (self.scope, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, layer: str, function: Callable,
             on_call: Optional[Callable[..., None]] = None,
             on_return: Optional[Callable[[Any], None]] = None) -> Callable:
        """A timing wrapper around ``function`` (sync or coroutine).

        ``on_call(*args, **kwargs)``, when given, sees every call's
        arguments and ``on_return(value)`` every sync call's result —
        how counts such as trial-rounds, mask sizes and dispatch-probe
        times are derived without touching the kernel.
        """
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                frame, token = tracer._open()
                start = _perf()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = _perf()
                    tracer._current.reset(token)
                    tracer._finish(layer, frame, start, end)
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            frame, token = tracer._open()
            start = _perf()
            try:
                value = function(*args, **kwargs)
            finally:
                end = _perf()
                tracer._current.reset(token)
                tracer._finish(layer, frame, start, end)
            if on_return is not None:
                on_return(value)
            return value
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attribute: str, layer: str,
              on_call: Optional[Callable[..., None]] = None,
              on_return: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper (undoable).

        Class attributes are looked up in the class ``__dict__`` only,
        so an inherited method is never wrapped twice.
        """
        original = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute,
                self.wrap(layer, original, on_call, on_return))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- read side -----------------------------------------------------

    def layer(self, layer: str, scope: Optional[str] = None) -> List[float]:
        """``[calls, total_s, self_s]`` summed over scopes (or one scope)."""
        out = [0, 0.0, 0.0]
        for (entry_scope, name), values in self.totals.items():
            if name == layer and (scope is None or entry_scope == scope):
                out = [a + b for a, b in zip(out, values)]
        return out

    def counted(self, name: str, scope: Optional[str] = None) -> float:
        """A count summed over scopes (or one scope)."""
        return sum(value for (entry_scope, key), value in self.counts.items()
                   if key == name and (scope is None or entry_scope == scope))

    def summary(self) -> Dict[str, Any]:
        """JSON-ready aggregates (what a traced process hands back)."""
        return {
            "totals": [[scope, layer, *values]
                       for (scope, layer), values in sorted(self.totals.items())],
            "counts": [[scope, name, value]
                       for (scope, name), value in sorted(self.counts.items())],
            "samples": self.samples,
            "raw_spans": len(self.raw),
            "raw_dropped": self.raw_dropped,
        }

    @classmethod
    def from_summary(cls, summary: Dict[str, Any]) -> "Tracer":
        """Rebuild the read side of a tracer from :meth:`summary`."""
        tracer = cls()
        for scope, layer, calls, total, self_s in summary["totals"]:
            tracer.totals[(scope, layer)] = [calls, total, self_s]
        for scope, name, value in summary["counts"]:
            tracer.counts[(scope, name)] = value
        tracer.samples = {k: list(v) for k, v in summary["samples"].items()}
        return tracer

    def write_spans(self, path: str) -> None:
        """Write the raw spans as JSON lines (done once, at exit)."""
        with open(path, "w", encoding="utf8") as handle:
            for span_id, parent, layer, scope, start, end, thread in self.raw:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "layer": layer,
                     "scope": scope, "start": start, "end": end,
                     "thread": thread}, separators=(",", ":")) + "\n")
