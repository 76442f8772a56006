"""Lightweight wall-clock spans over the metrics registry.

A span is a named timed section::

    with obs.span("serve.query", scenario="flooding"):
        with obs.span("serve.query.resolve"):
            ...
        with obs.span("serve.query.run"):
            ...

On exit every span records its duration into the registry histogram
``<name>.seconds`` (labels carried through), so nested spans give a
per-phase latency breakdown for free.  The histogram handle is bound
once per registry and ``(name, labels)``
(:meth:`~repro.obs.registry.MetricsRegistry.span_histogram`), so a
repeated span costs a dict lookup, not a labelled get-or-create.
Nesting is tracked through a :mod:`contextvars` variable, which makes
the parent/child relationship correct across threads *and* across
``await`` points without any bookkeeping at the call sites.

Spans are **inert** by construction: they consume ``time.perf_counter``
and nothing else — no randomness, no numpy — so instrumenting a code
path cannot change a single indicator bit.

The slow-span log
-----------------
:func:`configure_slow_log` arms an optional structured log: when a
*root* span (one with no parent) finishes at or above the threshold,
one NDJSON line goes to the standard :mod:`logging` logger
``repro.obs.slow`` with the whole phase tree — the "where did this
slow query spend its time" record.  The log is off until configured
and never touches the hot path beyond one float comparison per root
span.
"""

from __future__ import annotations

import contextvars
import json
import logging
import time
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "span",
    "current_span",
    "configure_slow_log",
    "disable_slow_log",
    "slow_log_threshold",
    "NdjsonFormatter",
    "SLOW_LOG_NAME",
]

#: The stdlib logger slow root spans are written to.
SLOW_LOG_NAME = "repro.obs.slow"

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)

#: ``None`` while the slow log is unconfigured, else the threshold in
#: seconds.  Module-level so the hot path pays one read + compare.
_slow_threshold: Optional[float] = None


class NdjsonFormatter(logging.Formatter):
    """Formats a record whose ``msg`` is a dict as one JSON line.

    A UTC ISO-8601 timestamp and the level are prepended; everything
    else comes from the payload dict, so the log is machine-parseable
    line by line (newline-delimited JSON).
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S"),
            "level": record.levelname.lower(),
        }
        if isinstance(record.msg, dict):
            payload.update(record.msg)
        else:
            payload["message"] = record.getMessage()
        return json.dumps(payload, separators=(",", ":"))


def configure_slow_log(threshold_seconds: float,
                       stream=None) -> logging.Logger:
    """Arm the slow-span log at ``threshold_seconds``.

    Root spans whose duration reaches the threshold emit one NDJSON
    line on the ``repro.obs.slow`` logger.  When ``stream`` is given, a
    :class:`logging.StreamHandler` with the NDJSON formatter is
    attached to it (replacing handlers from earlier calls); otherwise
    the logger keeps whatever handlers the application configured.
    """
    global _slow_threshold
    if threshold_seconds < 0:
        raise ValueError(
            f"threshold_seconds must be >= 0, got {threshold_seconds}"
        )
    _slow_threshold = float(threshold_seconds)
    logger = logging.getLogger(SLOW_LOG_NAME)
    logger.setLevel(logging.INFO)
    if stream is not None:
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        handler = logging.StreamHandler(stream)
        handler.setFormatter(NdjsonFormatter())
        logger.addHandler(handler)
        logger.propagate = False
    return logger


def disable_slow_log() -> None:
    """Disarm the slow-span log and detach its handlers."""
    global _slow_threshold
    _slow_threshold = None
    logger = logging.getLogger(SLOW_LOG_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    logger.propagate = True


def slow_log_threshold() -> Optional[float]:
    """The armed threshold in seconds, or ``None`` when off."""
    return _slow_threshold


class Span:
    """One timed section; use via :func:`span` as a context manager."""

    __slots__ = ("name", "labels", "_histogram", "parent", "children",
                 "_started", "seconds", "_token")

    def __init__(self, name: str, registry: MetricsRegistry,
                 labels: Dict[str, object]):
        self.name = name
        self.labels = labels
        self._histogram = registry.span_histogram(name, labels)
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self._started = 0.0
        #: Duration in seconds, populated on exit.
        self.seconds = 0.0
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "Span":
        self.parent = _current.get()
        if self.parent is not None:
            self.parent.children.append(self)
        self._token = _current.set(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._started
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        self._histogram.observe(self.seconds)
        if (self.parent is None and _slow_threshold is not None
                and self.seconds >= _slow_threshold):
            logging.getLogger(SLOW_LOG_NAME).info(self.tree())

    def tree(self) -> Dict[str, Any]:
        """The span's phase tree as a JSON-ready dict (slow-log payload)."""
        payload: Dict[str, Any] = {
            "span": self.name,
            "seconds": round(self.seconds, 6),
        }
        if self.labels:
            payload["labels"] = {
                str(k): str(v) for k, v in self.labels.items()
            }
        if self.children:
            payload["phases"] = [child.tree() for child in self.children]
        return payload


def span(name: str, registry: Optional[MetricsRegistry] = None,
         **labels: object) -> Span:
    """A context-managed span recording into ``<name>.seconds``.

    ``registry`` defaults to the process-wide one
    (:func:`repro.obs.get_registry`), resolved here, at each span, so
    tests that swap the default registry see spans land in theirs.
    """
    if registry is None:
        registry = get_registry()
    return Span(name, registry, labels)


def current_span() -> Optional[Span]:
    """The innermost open span in this context, or ``None``."""
    return _current.get()
