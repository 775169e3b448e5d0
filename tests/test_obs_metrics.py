"""Unit tests for repro.obs.metrics: primitives, registry, merge."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    SteppedMetrics,
    TimerStat,
)


class TestPrimitives:
    def test_counter_inc_and_merge(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(2.5)
        b.inc(4)
        a.merge(b)
        assert a.value == 7.5

    def test_gauge_merge_is_last_write_wins(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(9.0)
        a.merge(b)
        assert a.value == 9.0
        assert a.updates == 2

    def test_gauge_merge_ignores_untouched_other(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        a.merge(b)
        assert a.value == 1.0

    def test_histogram_buckets_values(self):
        h = Histogram(bounds=(0, 10, 100))
        for value in (0, 5, 50, 500):
            h.observe(value)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.min == 0 and h.max == 500
        assert h.mean == pytest.approx(555 / 4)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(10, 0))

    def test_histogram_merge_sums_fields(self):
        a, b = Histogram(bounds=(0, 10)), Histogram(bounds=(0, 10))
        a.observe(5)
        b.observe(50)
        a.merge(b)
        assert a.counts == [0, 1, 1]
        assert a.count == 2
        assert a.min == 5 and a.max == 50

    def test_histogram_merge_rejects_different_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(0, 1)).merge(Histogram(bounds=(0, 2)))

    def test_timer_record_and_merge(self):
        a, b = TimerStat(), TimerStat()
        a.record(1.0)
        b.record(3.0)
        b.record(2.0)
        a.merge(b)
        assert a.calls == 3
        assert a.total_s == pytest.approx(6.0)
        assert a.min_s == 1.0 and a.max_s == 3.0
        assert a.mean_s == pytest.approx(2.0)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.timer("t") is reg.timer("t")
        assert reg.gauge("g") is reg.gauge("g")

    def test_convenience_mutators(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.observe("h", 7)
        reg.set_gauge("g", 3.5)
        assert reg.counter("c").value == 2
        assert reg.histogram("h").count == 1
        assert reg.gauge("g").value == 3.5

    def test_merge_is_field_wise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.inc("only_b", 5)
        b.observe("h", 3)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.counter("only_b").value == 5
        assert a.histogram("h").count == 1

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("c", 4)
        reg.observe("h", 12)
        reg.set_gauge("g", 2.0)
        reg.timer("t").record(0.5)
        rebuilt = MetricsRegistry.from_dict(reg.to_dict())
        assert rebuilt.to_dict() == reg.to_dict()

    def test_merge_order_independent_for_deterministic_subset(self):
        """Counters+histograms merge commutatively (the parallel-sweep
        contract); gauges deliberately do not."""
        parts = []
        for value in (1, 2, 3):
            reg = MetricsRegistry()
            reg.inc("c", value)
            reg.observe("h", value)
            reg.set_gauge("g", value)
            parts.append(reg)
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            fwd.merge(part)
        for part in reversed(parts):
            rev.merge(part)
        assert fwd.deterministic_dict() == rev.deterministic_dict()
        assert fwd.gauge("g").value != rev.gauge("g").value

    def test_stepped_counters_fold_in_increment_order(self):
        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): a unit's summed value
        # would regroup the additions; its steps do not.
        sequential, parent, unit = MetricsRegistry(), MetricsRegistry(), SteppedMetrics()
        for amount in (0.1, 0.2, 0.3):
            sequential.inc("j", amount)
        parent.inc("j", 0.1)
        unit.inc("j", 0.2)
        unit.inc("j", 0.3)
        parent.merge(MetricsRegistry.from_dict(unit.to_dict()))
        assert parent.counter("j").value == sequential.counter("j").value == 0.6000000000000001
        assert parent.deterministic_dict() == sequential.deterministic_dict()

    def test_deterministic_dict_excludes_gauges_and_timers(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.timer("t").record(0.1)
        det = reg.deterministic_dict()
        assert set(det) == {"counters", "histograms"}

    def test_null_metrics_swallows_mutations(self):
        null = NullMetrics()
        null.inc("c")
        null.observe("h", 1)
        null.set_gauge("g", 1)
        exported = null.to_dict()
        assert exported["counters"] == {}
        assert exported["gauges"] == {}
        assert exported["histograms"] == {}
