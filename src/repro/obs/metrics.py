"""Counters, gauges, histograms and timers with deterministic merge.

A :class:`MetricsRegistry` is the numeric side of observability: named
counters (slots, attempts, completions, joules harvested/spent), gauges
(cache hits, pool sizes), histograms (recall staleness, slots per
inference) and wall-time timers (the ``obs.timed(...)`` profiling
scopes).

Merge semantics mirror :meth:`repro.wsn.node.NodeStats.merged`: metric
values are combined *field-wise* (counters and histogram bins sum, timer
calls/totals sum, mins/maxes combine), and :meth:`MetricsRegistry.merge`
is applied in deterministic unit order by the parallel sweep executor —
so ``PolicySweep.run(workers=N)`` aggregates across processes to exactly
the values a sequential sweep records.

Counters and histograms are *deterministic* metrics: their merged values
are a pure function of the simulated runs, independent of wall clock,
process count or host load (asserted by the test suite).  The one
wall-clock histogram, a serving server's ``serve.latency_ms``, belongs
to a live server's registry, which no run merges.  Gauges and
timers are environment-dependent by nature (a timer measures this
machine, a gauge snapshots whichever process observed last) and are
excluded from :meth:`MetricsRegistry.deterministic_dict`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ObservabilityError

#: Default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).  Tuned for slot-count-like quantities.
DEFAULT_BOUNDS: Tuple[float, ...] = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


@dataclass
class Counter:
    """Monotonically accumulating value (int or float).

    ``steps``, when kept (see :class:`SteppedMetrics`), lists every
    increment in order; merging such a counter adds its steps one by
    one, so float sums group exactly as if they had been made here.
    """

    value: float = 0.0
    steps: Optional[list] = None

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        if self.steps is not None:
            self.steps.append(amount)

    def merge(self, other: "Counter") -> None:
        if other.steps is None:
            self.inc(other.value)
            return
        for amount in other.steps:
            self.inc(amount)


@dataclass
class Gauge:
    """Last-observed value (merge is last-write-wins in merge order)."""

    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        if other.updates:
            self.value = other.value
        self.updates += other.updates


@dataclass
class Histogram:
    """Fixed-bucket histogram with count/total/min/max sidecars."""

    bounds: Tuple[float, ...] = DEFAULT_BOUNDS
    counts: list = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def __post_init__(self) -> None:
        self.bounds = tuple(self.bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ObservabilityError(f"histogram bounds must be sorted, got {self.bounds}")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ObservabilityError(
                f"histogram needs {len(self.bounds) + 1} buckets, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        # bisect_left = first bound >= value, i.e. the bucket the value
        # belongs to (len(bounds) = overflow); C-speed on the hot path.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of observed values (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ObservabilityError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        for name in ("min", "max"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if theirs is not None:
                pick = min if name == "min" else max
                setattr(self, name, theirs if mine is None else pick(mine, theirs))


@dataclass
class TimerStat:
    """Accumulated wall time of one named profiling scope."""

    calls: int = 0
    total_s: float = 0.0
    min_s: Optional[float] = None
    max_s: Optional[float] = None

    def record(self, elapsed_s: float) -> None:
        self.calls += 1
        self.total_s += elapsed_s
        if self.min_s is None or elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if self.max_s is None or elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_s(self) -> float:
        """Mean scope duration (0 when never entered)."""
        return self.total_s / self.calls if self.calls else 0.0

    def merge(self, other: "TimerStat") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        for name, pick in (("min_s", min), ("max_s", max)):
            mine, theirs = getattr(self, name), getattr(other, name)
            if theirs is not None:
                setattr(self, name, theirs if mine is None else pick(mine, theirs))


class MetricsRegistry:
    """Named metric store with get-or-create accessors.

    All accessors are cheap dict lookups; instrumentation sites in hot
    loops additionally guard on ``obs.enabled`` so the default
    (observability off) path never even reaches the registry.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, TimerStat] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(
        self, name: str, *, bounds: Tuple[float, ...] = DEFAULT_BOUNDS
    ) -> Histogram:
        """Get-or-create the named histogram (bounds fixed at creation)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds=bounds)
        return histogram

    def timer(self, name: str) -> TimerStat:
        """Get-or-create the named timer."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = TimerStat()
        return timer

    # convenience mutators ------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the named counter."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Observe one value into the named histogram."""
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge."""
        self.gauge(name).set(value)

    # ------------------------------------------------------------------
    # merge + serialization
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry, field-wise per metric.

        Call order defines gauge last-write-wins semantics, so callers
        (e.g. the parallel sweep) must merge in deterministic unit
        order.
        """
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            self.histogram(name, bounds=histogram.bounds).merge(histogram)
        for name, timer in other._timers.items():
            self.timer(name).merge(timer)

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested dict (sorted names) for JSON export."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
            "timers": {
                name: {
                    "calls": t.calls,
                    "total_s": t.total_s,
                    "min_s": t.min_s,
                    "max_s": t.max_s,
                }
                for name, t in sorted(self._timers.items())
            },
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The merge-deterministic subset (counters + histograms).

        These values are a pure function of the simulated runs — the
        same grid merged from any worker count compares equal on this
        dict.  Gauges (last-write) and timers (wall clock) are excluded.
        """
        exported = self.to_dict()
        return {"counters": exported["counters"], "histograms": exported["histograms"]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        steps = data.get("counter_steps", {})
        for name, value in data.get("counters", {}).items():
            counter = registry.counter(name)
            counter.value = value
            if name in steps:
                counter.steps = list(steps[name])
        for name, value in data.get("gauges", {}).items():
            gauge = registry.gauge(name)
            gauge.value = value
            gauge.updates = 1
        for name, spec in data.get("histograms", {}).items():
            histogram = registry.histogram(name, bounds=tuple(spec["bounds"]))
            histogram.counts = list(spec["counts"])
            histogram.count = spec["count"]
            histogram.total = spec["total"]
            histogram.min = spec["min"]
            histogram.max = spec["max"]
        for name, spec in data.get("timers", {}).items():
            timer = registry.timer(name)
            timer.calls = spec["calls"]
            timer.total_s = spec["total_s"]
            timer.min_s = spec["min_s"]
            timer.max_s = spec["max_s"]
        return registry


class SteppedMetrics(MetricsRegistry):
    """A registry whose counters keep every increment (:attr:`Counter.steps`).

    A pool unit records into one and ships :meth:`to_dict`, which
    carries the steps; the parent's :meth:`MetricsRegistry.merge` folds
    them in the order the unit made them.  A float counter incremented
    once per run therefore sums across a pooled sweep exactly as it
    does sequentially, whatever the number of runs per unit.
    """

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(steps=[])
        return counter

    def to_dict(self) -> Dict[str, Any]:
        exported = super().to_dict()
        exported["counter_steps"] = {
            name: list(self._counters[name].steps) for name in sorted(self._counters)
        }
        return exported


class NullMetrics(MetricsRegistry):
    """Registry whose mutators no-op (belt and braces for the null path).

    Instrumentation sites guard on ``obs.enabled`` before touching the
    registry at all; this class additionally guarantees that a missed
    guard cannot accumulate state on the shared null singleton.
    """

    def inc(self, name: str, amount: float = 1.0) -> None:  # noqa: ARG002
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: ARG002
        pass

    def set_gauge(self, name: str, value: float) -> None:  # noqa: ARG002
        pass
