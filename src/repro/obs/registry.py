"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the sink of every span and Monte-Carlo metric (the
serving layer's counts stay on their components; the wire ``metrics``
op merges them in).  Three instrument kinds:

* :class:`Counter` — monotone event counts (trials executed per
  backend, dispatch probes, shard retries);
* :class:`Gauge` — instantaneous levels;
* :class:`Histogram` — fixed-bucket latency distributions (query
  spans, batch runs, pool shard durations) with bucket-interpolated
  percentile estimates.

Design constraints, in order of importance:

1. **Provably inert.**  Instruments consume no randomness and never
   touch numpy's generators — recording a metric cannot perturb a
   single indicator bit (pinned in ``tests/test_obs.py`` and
   ``benchmarks/bench_obs.py``).
2. **Lock-safe.**  Spans record from the event-loop thread while
   Monte-Carlo runs record from executor threads; every instrument
   guards its mutation with its own lock (plain ``+=`` on an int is not
   atomic across the interpreter's bytecode boundary).
3. **Snapshot-able and resettable.**  ``snapshot()`` returns a plain
   JSON-serialisable dict (what the wire ``metrics`` op ships and
   ``repro.obs.render`` formats); ``reset()`` drops every series so
   tests start from zero.

Instruments are get-or-create by ``(name, labels)``: asking for the
same series twice returns the same object, so call sites never cache
instrument handles unless they are hot.  Spans are the hot case: each
registry binds a span's histogram once per ``(name, labels in call
order)`` (:meth:`MetricsRegistry.span_histogram`), so a repeated span
sorts no labels and takes no lock.  A :class:`NullRegistry` with no-op
instruments is the "metrics off" baseline the overhead benchmark
compares against.

The process-wide registry every instrumentation site records to lives
here too (:func:`get_registry` / :func:`set_registry`, re-exported by
:mod:`repro.obs`), so spans can read it without importing the package
that imports them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
]

#: Default latency buckets in seconds: sub-millisecond resolution for
#: cache hits and fastsim draws, multi-second tail for sharded sweeps.
#: An implicit +Inf overflow bucket always follows the last bound.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical hashable identity of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"metric name must be a non-empty string, got {name!r}")
    return name


class Counter:
    """A monotone counter.  ``inc`` only; negative increments are bugs."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value


class Gauge:
    """An instantaneous level that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Pin the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current level."""
        return self._value


class Histogram:
    """Fixed-bucket distribution of non-negative observations.

    ``buckets`` are strictly increasing finite upper bounds; an
    implicit overflow bucket catches everything beyond the last bound.
    Observations record into exactly one bucket plus the running
    ``sum``/``count``, so a snapshot is O(buckets) and recording is one
    binary search — no per-observation storage.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if bounds[-1] == float("inf"):
            raise ValueError("the +Inf overflow bucket is implicit; "
                             "pass finite bounds only")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def bounds(self) -> Tuple[float, ...]:
        """Finite bucket upper bounds (the +Inf bucket is implicit)."""
        return self._bounds

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (last entry is the +Inf overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def percentile(self, quantile: float) -> float:
        """Bucket-interpolated quantile estimate (0.0 when empty).

        Standard Prometheus-style estimation: find the bucket holding
        the target rank and interpolate linearly inside it.  Values in
        the overflow bucket clamp to the last finite bound — an honest
        lower bound rather than a fabricated tail.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {quantile}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = quantile * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self._bounds):
                    return self._bounds[-1]
                lower = self._bounds[index - 1] if index else 0.0
                upper = self._bounds[index]
                inside = rank - (cumulative - bucket_count)
                return lower + (upper - lower) * inside / bucket_count
        return self._bounds[-1]


class MetricsRegistry:
    """Named instrument store: get-or-create by ``(name, labels)``.

    All three accessors are safe to call from any thread; the registry
    lock guards only instrument creation (each instrument carries its
    own mutation lock), so hot recording paths never contend on the
    registry itself.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        #: Span histogram handles by ``(span name, labels in call
        #: order)`` — see :meth:`span_histogram`.
        self._span_histograms: Dict[Tuple[str, tuple], Histogram] = {}

    # -- accessors -----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (_check_name(name), _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (_check_name(name), _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels: object) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        ``buckets`` only matters at creation; later callers get the
        existing instrument whatever bounds they pass.
        """
        key = (_check_name(name), _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
                )
        return instrument

    def span_histogram(self, name: str,
                       labels: Mapping[str, object]) -> Histogram:
        """The ``<name>.seconds`` histogram a span records into.

        Bound once per ``(name, labels in call order)``: a repeated
        span does one dict lookup — no label sort, no lock, no
        get-or-create.  Label values must therefore be hashable.  The
        first call goes through :meth:`histogram`, so the series is
        the one ``histogram(f"{name}.seconds", **labels)`` names.
        """
        key = (name, tuple(labels.items()))
        histogram = self._span_histograms.get(key)
        if histogram is None:
            histogram = self._span_histograms[key] = self.histogram(
                f"{name}.seconds", **labels)
        return histogram

    # -- read side -----------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        """Current count of a series (0 if it never recorded)."""
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """JSON-serialisable dump of every series, deterministically ordered.

        The format the wire ``metrics`` op ships and
        :func:`repro.obs.render.render_prometheus` consumes::

            {"counters":   [{"name", "labels", "value"}, ...],
             "gauges":     [{"name", "labels", "value"}, ...],
             "histograms": [{"name", "labels", "bounds", "counts",
                             "sum", "count"}, ...]}
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": [
                {"name": name, "labels": dict(labels),
                 "value": instrument.value}
                for (name, labels), instrument in counters
            ],
            "gauges": [
                {"name": name, "labels": dict(labels),
                 "value": instrument.value}
                for (name, labels), instrument in gauges
            ],
            "histograms": [
                {"name": name, "labels": dict(labels),
                 "bounds": list(instrument.bounds),
                 "counts": instrument.bucket_counts(),
                 "sum": instrument.sum, "count": instrument.count}
                for (name, labels), instrument in histograms
            ],
        }

    def reset(self) -> None:
        """Drop every series (tests start from a clean registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._span_histograms.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def dec(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose instruments drop every record — "metrics off".

    Shared singleton instruments keep the disabled path allocation-free;
    the overhead benchmark uses this as its baseline, and callers can
    install it via :func:`repro.obs.set_registry` to switch
    instrumentation off process-wide.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()

    def counter(self, name: str, **labels: object) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels: object) -> Histogram:
        return self._null_histogram


_lock = threading.Lock()
_registry: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumentation site records to."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one.

    Pass :data:`repro.obs.NULL` to disable instrumentation entirely.
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
