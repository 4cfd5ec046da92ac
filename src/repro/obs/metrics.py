"""Counters, gauges, and latency histograms for the simulated stack.

A :class:`MetricsRegistry` is a per-run namespace of named instruments
that components register into: queue depths for the nfsiod/nfsd pools
and the kernel bufq, cache hit ratios for the buffer cache and the
drive's firmware cache, RPC retransmit and dupreq counters, per-zone
disk throughput, and per-layer latency histograms.

Two design rules keep the registry safe to wire into every layer:

* **No perturbation.**  Instruments only read the simulation clock and
  update plain Python numbers; they never draw randomness, create
  events, or otherwise touch simulator state.  A run with metrics on is
  bit-identical to the same run with metrics off.
* **Zero cost when disabled.**  The disabled registry
  (:data:`NULL_REGISTRY`) hands out shared no-op instruments, so
  instrumented code holds a reference and calls ``observe()``/``inc()``
  unconditionally — with metrics off those calls do nothing and
  allocate nothing.

Gauges are *pull*-style: they wrap a callable that is evaluated only
when a snapshot is taken, so sampling queue depths costs nothing during
the simulation itself; a *gauge group* does the same for a whole
``{name: value}`` family, such as a testbed's :func:`fold_counters`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import fields
from typing import Callable, Dict, List, Optional, Sequence

#: Histogram bucket upper bounds in seconds: 1 µs, 2 µs, 4 µs, ... ~67 s,
#: plus an implicit overflow bucket.  Log-spaced, like the tick-based
#: histograms kernel instrumentation keeps.
HISTOGRAM_BOUNDS = tuple(1e-6 * 2.0 ** i for i in range(27))


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time reading: either a wrapped callable or a set value.

    Callable gauges are evaluated lazily at :meth:`read` /
    ``registry.snapshot()`` time only.
    """

    __slots__ = ("name", "_fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def read(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class LatencyHistogram:
    """A log-bucketed histogram of durations in seconds.

    Buckets are fixed (:data:`HISTOGRAM_BOUNDS`), so merging snapshots
    from repeated runs is a plain element-wise sum.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self.buckets: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        if self.count == 0:
            self.min = seconds
            self.max = seconds
        else:
            if seconds < self.min:
                self.min = seconds
            if seconds > self.max:
                self.max = seconds
        self.count += 1
        self.total += seconds
        # bisect_left keeps the ``le_<bound>`` labels honest: a value
        # exactly on a bound counts in that bound's bucket.
        self.buckets[bisect_left(HISTOGRAM_BOUNDS, seconds)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        filled = {}
        for index, n in enumerate(self.buckets):
            if n == 0:
                continue
            if index < len(HISTOGRAM_BOUNDS):
                label = f"le_{HISTOGRAM_BOUNDS[index]:.3e}"
            else:
                label = "overflow"
            filled[label] = n
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "buckets": filled}


class MetricsRegistry:
    """A namespace of instruments, snapshottable as a plain dict.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and
    return the existing instrument thereafter, so every layer can ask
    for its instruments without coordination.
    """

    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._groups: List[Callable[[], Dict[str, float]]] = []

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            instrument._fn = fn
        return instrument

    def gauge_group(self, fn: Callable[[], Dict[str, float]]) -> None:
        """Report every key of ``fn()`` as a gauge at snapshot time
        (names must not collide with individually registered gauges)."""
        self._groups.append(fn)

    def histogram(self, name: str) -> LatencyHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = LatencyHistogram(name)
        return instrument

    def snapshot(self) -> dict:
        """Everything, as a deterministic (sorted-key) nested dict."""
        gauges = {name: gauge.read() for name, gauge in self._gauges.items()}
        for fn in self._groups:
            gauges.update((name, float(value))
                          for name, value in fn().items())
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": dict(sorted(gauges.items())),
            "histograms": {name: self._histograms[name].snapshot()
                           for name in sorted(self._histograms)},
        }

    def render(self) -> str:
        """A human-readable metrics block (for the CLI)."""
        snap = self.snapshot()
        return render_snapshot(snap)


def fold_counters(prefix: str, cls: type, objects: Sequence,
                  rename: Optional[Dict[str, str]] = None
                  ) -> Dict[str, float]:
    """``{prefix + name: sum over the cls instances in objects}`` for
    every counter of ``cls``: a ``*Stats`` dataclass's int/float fields,
    or the attribute names a class lists in ``COUNTERS``.  Sums keep ints
    as ints (canonical JSON stays stable); ``rename`` maps an attribute
    to another name."""
    names = getattr(cls, "COUNTERS", None) or [
        f.name for f in fields(cls) if type(f.default) in (int, float)]
    rename = rename or {}
    return {prefix + rename.get(name, name):
            sum(getattr(obj, name) for obj in objects
                if isinstance(obj, cls)) for name in names}


def render_snapshot(snap: dict) -> str:
    """Render one snapshot (or a merged one) as aligned text."""
    lines: List[str] = []
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    histograms = snap.get("histograms", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:40s} {counters[name]}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:40s} {gauges[name]:.6g}")
    if histograms:
        lines.append("histograms (count / sum s / mean s):")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(f"  {name:40s} {h['count']:>8d} "
                         f"{h['sum']:.6f} {h['mean']:.6g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def merge_snapshots(snapshots) -> dict:
    """Merge per-run snapshots: counters/histograms sum, gauges average."""
    snapshots = list(snapshots)
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    if not snapshots:
        return merged
    gauge_sums: Dict[str, List[float]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = \
                merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauge_sums.setdefault(name, []).append(value)
        for name, h in snap.get("histograms", {}).items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "count": h["count"], "sum": h["sum"],
                    "min": h["min"], "max": h["max"], "mean": h["mean"],
                    "buckets": dict(h["buckets"])}
                continue
            into["count"] += h["count"]
            into["sum"] += h["sum"]
            into["min"] = min(into["min"], h["min"])
            into["max"] = max(into["max"], h["max"])
            into["mean"] = (into["sum"] / into["count"]
                            if into["count"] else 0.0)
            for label, n in h["buckets"].items():
                into["buckets"][label] = into["buckets"].get(label, 0) + n
    for name, values in gauge_sums.items():
        merged["gauges"][name] = sum(values) / len(values)
    return merged


# ---------------------------------------------------------------------------
# Disabled (null) instruments
# ---------------------------------------------------------------------------

class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"

    def set(self, value: float) -> None:
        pass

    def read(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def observe(self, seconds: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "buckets": {}}


class NullMetricsRegistry:
    """The disabled registry: shared no-op instruments, empty snapshots."""

    enabled = False

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str, fn=None) -> _NullGauge:
        return self._gauge

    def gauge_group(self, fn) -> None:
        pass

    def histogram(self, name: str) -> _NullHistogram:
        return self._histogram

    def snapshot(self) -> dict:
        return {}

    def render(self) -> str:
        return "(metrics disabled)"


#: Shared disabled registry: safe to hand to any number of simulators.
NULL_REGISTRY = NullMetricsRegistry()
