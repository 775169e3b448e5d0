"""Integration tests: observability threaded through the simulation.

The two load-bearing guarantees:

* tracing is *passive* — the same seed with observability on and off
  produces byte-identical :class:`ExperimentResult`s;
* metrics are *merge-deterministic* — a parallel sweep aggregates its
  workers' registries to exactly the sequential sweep's values.
"""

from __future__ import annotations

import pytest

from repro.core.policies import aas_policy, aasr_policy, origin_policy, rr_policy
from repro.faults.models import Brownout
from repro.faults.plan import FaultPlan
from repro.obs.observer import Observability
from repro.obs.summarize import render_report, split_runs
from repro.obs.trace import NULL_TRACER, read_trace
from repro.sim.sweep import PolicySweep


def _results_equal(a, b) -> bool:
    return (
        a.records == b.records
        and a.node_stats == b.node_stats
        and a.comm_energy_j == b.comm_energy_j
    )


class TestBitIdentity:
    def test_traced_run_is_byte_identical(self, tiny_experiment):
        policy = origin_policy(3)
        plain = tiny_experiment.run(policy, seed=21)
        obs = Observability()
        traced = tiny_experiment.run(policy, seed=21, obs=obs)
        assert _results_equal(plain, traced)
        assert len(obs.tracer.events) > 0

    def test_metrics_only_run_is_byte_identical(self, tiny_experiment):
        policy = rr_policy(3)
        plain = tiny_experiment.run(policy, seed=22)
        obs = Observability(tracer=NULL_TRACER)
        observed = tiny_experiment.run(policy, seed=22, obs=obs)
        assert _results_equal(plain, observed)
        assert len(obs.tracer.events) == 0
        assert obs.metrics.counter("sim.runs").value == 1

    def test_traced_faulted_run_is_byte_identical(self, tiny_experiment):
        policy = origin_policy(3)
        faults = FaultPlan(faults=(Brownout(node_id=0, start_slot=10, duration_slots=5),))
        plain = tiny_experiment.run(policy, seed=23, faults=faults)
        obs = Observability()
        traced = tiny_experiment.run(policy, seed=23, faults=faults, obs=obs)
        assert _results_equal(plain, traced)
        fired = obs.tracer.of_kind("fault.fired")
        assert any(e.payload["fault"] == "power_down" for e in fired)


class TestPowerDownTrace:
    @pytest.mark.parametrize("start", [20, 37, 55])
    def test_lost_task_is_traced_at_the_power_down_slot(self, tiny_experiment, start):
        # The brownout catches node 0 mid-inference: the lost task is
        # traced at the power-down slot, right before the fault firing
        # (it used to carry the node's last active slot, e.g. 18 for a
        # brownout at 20).
        plan = FaultPlan(faults=(Brownout(node_id=0, start_slot=start, duration_slots=6),))
        obs = Observability()
        tiny_experiment.run(rr_policy(3), seed=1, n_windows=120, faults=plan, obs=obs)
        events = obs.tracer.events
        (down,) = [
            i for i, e in enumerate(events)
            if e.kind == "fault.fired" and e.payload["fault"] == "power_down"
        ]
        lost = events[down - 1]
        assert (lost.kind, lost.slot, lost.node_id) == ("nvp.task_aborted", start, 0)
        assert events[down].slot == start


class TestTraceContent:
    @pytest.fixture(scope="class")
    def traced(self, tiny_experiment):
        obs = Observability()
        result = tiny_experiment.run(origin_policy(3), seed=31, obs=obs)
        return obs, result

    def test_run_lifecycle_events(self, traced):
        obs, result = traced
        (started,) = obs.tracer.of_kind("run.started")
        (finished,) = obs.tracer.of_kind("run.finished")
        assert started.payload["n_windows"] == result.n_slots
        assert finished.payload["completions"] == result.total_completions

    def test_one_slot_scheduled_event_per_slot(self, traced):
        obs, result = traced
        scheduled = obs.tracer.of_kind("slot.scheduled")
        assert [e.slot for e in scheduled] == list(range(result.n_slots))

    def test_completions_match_trace(self, traced):
        obs, result = traced
        completed = obs.tracer.of_kind("inference.completed")
        assert len(completed) == result.total_completions
        # Every completion reports the slot whose window it classified.
        for event in completed:
            assert event.payload["started_slot"] <= event.slot

    def test_nvp_task_accounting(self, traced):
        obs, result = traced
        bursts = obs.tracer.of_kind("nvp.burst")
        assert bursts, "active slots must emit burst summaries"
        completed_bursts = [e for e in bursts if e.payload["completed"]]
        assert len(completed_bursts) == result.total_completions

    def test_export_and_summarize_round_trip(self, traced, tmp_path):
        obs, _ = traced
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        obs.export(str(trace_path), str(metrics_path), meta={"suite": "test"})
        header, events = read_trace(str(trace_path))
        assert len(events) == len(obs.tracer.events)
        assert len(split_runs(events)) == 1
        report = render_report(header, events, metrics=obs.metrics)
        assert "run #0" in report
        assert "node 0" in report
        assert "top timers" in report


class TestParallelMergeDeterminism:
    @pytest.fixture(scope="class")
    def grid(self):
        return [rr_policy(3), origin_policy(3)]

    def _sweep_metrics(self, experiment, grid, workers):
        sweep = PolicySweep(experiment, n_seeds=2, include_baselines=False)
        obs = Observability(tracer=NULL_TRACER)
        sweep.run(grid, seed=17, workers=workers, obs=obs)
        return obs.metrics

    def test_workers4_equals_workers1(self, tiny_experiment, grid):
        sequential = self._sweep_metrics(tiny_experiment, grid, workers=1)
        parallel = self._sweep_metrics(tiny_experiment, grid, workers=4)
        assert (
            parallel.deterministic_dict() == sequential.deterministic_dict()
        ), "parallel merge must reproduce sequential counters/histograms exactly"

    def test_several_runs_per_unit_merge_exactly(self, tiny_experiment):
        # A pool unit runs a seed's four-policy chunk, so each float
        # counter (joules) takes several runs' increments before the
        # parent folds the unit in.
        grid = [rr_policy(3), aas_policy(3), aasr_policy(3), origin_policy(3)]

        def metrics(workers):
            obs = Observability(tracer=NULL_TRACER)
            PolicySweep(tiny_experiment, n_seeds=2).run(grid, seed=4, workers=workers, obs=obs)
            return obs.metrics.deterministic_dict()

        assert metrics(2) == metrics(1)

    def test_parallel_trace_covers_all_runs(self, tiny_experiment, grid):
        obs = Observability()
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=False)
        sweep.run(grid, seed=17, workers=4, obs=obs)
        started = obs.tracer.of_kind("run.started")
        assert len(started) == len(grid) * 2  # every (policy, seed) traced
        seqs = [event.seq for event in obs.tracer.events]
        assert seqs == sorted(seqs)  # merged into one total order
