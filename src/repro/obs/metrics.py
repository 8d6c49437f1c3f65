"""Metric primitives: counters, gauges, histograms, and their registry.

Two registry flavours share one interface:

* :class:`MetricRegistry` -- live instruments, named and memoized, with a
  JSON-clean :meth:`~MetricRegistry.snapshot`;
* :data:`NULL_REGISTRY` -- the shared no-op registry.  Every lookup
  returns a shared null instrument whose mutators do nothing, so
  instrumented code can bind ``registry.counter(...).inc`` once and call
  it unconditionally; the disabled path costs one no-op method call per
  event on the packet lane and nothing on the array lane
  (``tests/test_obs_parity.py`` asserts which instruments a disabled
  run binds).

Instruments are process-local and deliberately not thread-safe: the
engine is single-threaded and sweep workers are separate processes, each
with its own registry (snapshots travel back on the run manifest).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n


class Gauge:
    """A point-in-time level (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values: count/sum/min/max.

    Deliberately bucket-free -- the trace subsystem already records full
    timelines, so the histogram only needs cheap O(1) aggregates for the
    manifest snapshot (mean is derived as ``sum / count``).
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-clean aggregate view of this histogram."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:  # noqa: D102 - interface no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: D102 - interface no-op
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: D102 - interface no-op
        pass


class MetricRegistry:
    """Named instrument store: one instrument per name, created lazily.

    Repeated lookups of one name return the same instrument, so callers
    may either hold instruments or re-look them up; both observe the same
    state.  ``snapshot()`` renders every instrument to JSON-clean dicts
    keyed by name -- the form embedded in run manifests.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        return sorted(
            [*self._counters, *self._gauges, *self._histograms]
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-clean view of every instrument, keyed by name."""
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return out


class NullRegistry(MetricRegistry):
    """The disabled registry: shared no-op instruments, empty snapshots.

    Use the module-level :data:`NULL_REGISTRY` instance rather than
    constructing new ones -- null instruments are stateless, so one
    registry serves every disabled run in the process.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        """The shared no-op counter (state is never recorded)."""
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        """The shared no-op gauge (state is never recorded)."""
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        """The shared no-op histogram (state is never recorded)."""
        return self._null_histogram

    def names(self) -> List[str]:
        """Always empty: null instruments register nothing."""
        return []

    def snapshot(self) -> Dict[str, Any]:
        """Always empty: null instruments record nothing."""
        return {}


NULL_REGISTRY = NullRegistry()
"""The shared no-op registry wired into uninstrumented runs."""
