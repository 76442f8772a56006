"""``repro.obs`` — dependency-free metrics and tracing.

The unified observability layer for the serving and Monte-Carlo
stack: a process-wide :class:`MetricsRegistry` (counters, gauges,
fixed-bucket latency histograms), a nested wall-clock span API, an
optional NDJSON slow-span log over stdlib :mod:`logging`, and a
Prometheus-style text renderer (``python -m repro.obs render``).

Everything here is pure stdlib (``threading``, ``time``, ``logging``,
``json``) and **provably inert**: recording a metric or opening a span
consumes no randomness, so instrumented runs produce bit-identical
indicators to uninstrumented ones — pinned by ``tests/test_obs.py``
and the ``benchmarks/bench_obs.py`` overhead gate (<3 %).

Typical instrumentation site::

    from repro import obs

    with obs.span("serve.query", scenario=query.scenario):
        ...
    obs.get_registry().counter("mc.trials", backend=backend).inc(trials)

The process-wide registry is swappable (:func:`set_registry` /
:func:`use_registry`), which is how tests isolate their counts and how
the overhead benchmark compares against the no-op
:class:`NullRegistry` (``obs.NULL``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.render import prometheus_name, render_prometheus, render_registry
from repro.obs.spans import (
    SLOW_LOG_NAME,
    NdjsonFormatter,
    Span,
    configure_slow_log,
    current_span,
    disable_slow_log,
    slow_log_threshold,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NdjsonFormatter",
    "Span",
    "DEFAULT_LATENCY_BUCKETS",
    "NULL",
    "SLOW_LOG_NAME",
    "configure_slow_log",
    "current_span",
    "disable_slow_log",
    "get_registry",
    "prometheus_name",
    "render_prometheus",
    "render_registry",
    "set_registry",
    "slow_log_threshold",
    "span",
    "use_registry",
]

#: The shared no-op registry: install it to switch metrics off.
NULL = NullRegistry()

_lock = threading.Lock()
_registry: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumentation site records to."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one.

    Pass :data:`NULL` to disable instrumentation entirely.
    """
    global _registry
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(
            f"registry must be a MetricsRegistry, got "
            f"{type(registry).__name__}"
        )
    with _lock:
        previous, _registry = _registry, registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None
                 ) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (a fresh one by default).

    The test idiom: every series recorded inside the block lands in an
    isolated registry, and the previous one is restored on exit even
    when the block raises.
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
