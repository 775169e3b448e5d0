"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The digest tests load the standard bundle from the benchmark's store
(training it on first use, about a minute).
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402,F401  (sets the environment before the program loads)
import digests  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import (  # noqa: E402
    Probe,
    Span,
    Tracer,
    covered,
    layer_inclusive_times,
    layer_self_times,
    self_times,
    unattributed,
)

# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (9, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_tail_reports_count_and_nearest_rank():
    values = list(range(1, 1001))  # 1..1000
    summary = stats.tail(values)
    assert summary["n"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == 990
    assert summary["beyond"] == 10
    assert summary["p50"] == 500


def test_tail_of_too_few_samples_has_no_tail():
    summary = stats.tail([3.0] * 10)
    assert summary["tail_pct"] is None and summary["tail"] is None and summary["n"] == 10


def test_latency_p99_is_the_median_unit_p99_at_nominal_speed():
    latencies = [float(v) for v in range(1, 1001)]
    units = [
        workloads.UnitResult(1.0, 1000, 1, 1000, 0, "", speed=speed, latencies=latencies)
        for speed in (0.5, 1.0, 2.0)
    ]
    metrics = workloads.batch_metrics(units)
    assert metrics["p99_ms"] == 990.0  # unit p99s 495, 990 and 1980
    assert metrics["latency_samples"] == 3000


def test_latency_unit_with_fewer_than_ten_beyond_its_p99_is_refused():
    unit = workloads.UnitResult(1.0, 999, 1, 999, 0, "", latencies=[1.0] * 999)
    with pytest.raises(ValueError):
        workloads.batch_metrics([unit])


# ---------------------------------------------------------------------------
# Poisson schedules
# ---------------------------------------------------------------------------


def test_poisson_schedule_is_identical_per_seed():
    first = stats.poisson_schedule(7, 2, 1, 500.0, 2000)
    second = stats.poisson_schedule(7, 2, 1, 500.0, 2000)
    assert np.array_equal(first, second)


def test_poisson_schedule_differs_across_seed_step_and_lane():
    base = stats.poisson_schedule(7, 2, 1, 500.0, 100)
    for other in ((8, 2, 1), (7, 3, 1), (7, 2, 0)):
        assert not np.array_equal(base, stats.poisson_schedule(*other, 500.0, 100))


def test_poisson_schedule_is_increasing_at_the_offered_rate():
    due = stats.poisson_schedule(1, 0, 0, 2000.0, 20000)
    assert np.all(np.diff(due) > 0)
    assert due[-1] == pytest.approx(20000 / 2000.0, rel=0.03)


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def _spans():
    #   root   [0, 10]           layer a
    #     c1   [1, 4]            layer b
    #       g  [2, 3]            layer b (nested in c1, same name)
    #     c2   [5, 6]            layer c
    #   root2  [11, 12]          layer a
    return [
        Span("f", "a", 0.0, 10.0, -1),
        Span("g", "b", 1.0, 4.0, 0),
        Span("g", "b", 2.0, 3.0, 1),
        Span("h", "c", 5.0, 6.0, 0),
        Span("f", "a", 11.0, 12.0, -1),
    ]


def test_self_time_subtracts_children():
    assert self_times(_spans()) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_layer_self_times_plus_unattributed_equal_wall():
    spans = _spans()
    layers = layer_self_times(spans)
    assert layers == {"a": 7.0, "b": 3.0, "c": 1.0}
    gap = unattributed(spans, 0.0, 13.0)
    assert gap == 2.0
    assert sum(layers.values()) + gap == 13.0


def test_inclusive_time_skips_nested_spans_of_the_same_name():
    assert layer_inclusive_times(_spans(), "g") == 3.0
    assert layer_inclusive_times(_spans(), "f") == 11.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5


def test_wrappers_link_parents_and_restore_originals():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

        @classmethod
        def build(cls, x):
            return x

    original_outer = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.install(
        [
            Probe(Layer, "outer", "up"),
            Probe(Layer, "inner", "down", "inner.calls", lambda a, k, r: 1.0),
            Probe(Layer, "build", "up"),
        ]
    )
    try:
        assert Layer().outer(3) == 7
        assert Layer.build(5) == 5
    finally:
        tracer.uninstall()
    assert Layer.__dict__["outer"] is original_outer
    assert isinstance(Layer.__dict__["build"], classmethod)
    names = [(span.name, span.parent) for span in tracer.spans]
    assert names == [("Layer.outer", -1), ("Layer.inner", 0), ("Layer.build", -1)]
    assert tracer.counters == {"inner.calls": 1.0}


def test_module_functions_are_patched_in_every_binding():
    def double(x):
        return 2 * x

    home = types.ModuleType("repro_bench_test_home")
    home.double = double
    user = types.ModuleType("repro_bench_test_user")
    user.double = double  # a ``from home import double`` binding
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    tracer = Tracer()
    try:
        tracer.install([Probe(home, "double", "x")])
        assert user.double(2) == 4 and home.double(3) == 6
        assert len(tracer.spans) == 2
    finally:
        tracer.uninstall()
        del sys.modules[home.__name__], sys.modules[user.__name__]
    assert home.double is double and user.double is double


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment():
    exp, _ = common.experiment(40)
    return exp


def test_sweep_digest_is_stable_across_runs(experiment):
    from repro.sim.sweep import PolicySweep, paper_policy_grid

    def once():
        return digests.sweep_digest(PolicySweep(experiment).run(paper_policy_grid(), seed=5))

    assert once() == once()


def test_fleet_digest_is_stable_across_runs(experiment):
    from repro.fleet import CohortSpec, FleetRunner

    def once():
        spec = CohortSpec(size=12, seed=3, base=experiment.config, n_timelines=1)
        return digests.fleet_digest(FleetRunner(experiment, spec).run())

    assert once() == once()


def test_serve_streams_digest_is_stable_across_recordings(experiment):
    import serving

    def once():
        tapes = serving.record_tapes(experiment, seed=2, count=2)
        return digests.serve_digest([[tape.labels, tape.actives] for tape in tapes])

    assert once() == once()
