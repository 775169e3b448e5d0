"""Tests for the Discussion-section extensions: sensor failure and
hybrid battery+EH operation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import origin_policy, rr_policy
from repro.energy.harvester import Harvester
from repro.energy.traces import PowerTrace
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, NodeDeath
from repro.sim.experiment import SimulationConfig


def _deaths(failures):
    """The modern spelling of the old ``failures={node: slot}`` dict."""
    return FaultPlan.from_failures(failures)


class TestSensorFailure:
    def test_dead_node_never_active_after_failure(self, tiny_experiment):
        result = tiny_experiment.run(
            rr_policy(3), seed=5, faults=_deaths({0: 10})
        )
        for record in result.records:
            if record.slot_index >= 10:
                assert 0 not in record.active_nodes

    def test_dead_node_active_before_failure(self, tiny_experiment):
        result = tiny_experiment.run(
            rr_policy(3), seed=5, faults=FaultPlan(faults=(NodeDeath(0, at_slot=30),))
        )
        before = [
            r for r in result.records if r.slot_index < 30 and 0 in r.active_nodes
        ]
        assert before, "node 0 should take turns before it dies"

    def test_system_keeps_classifying_after_failure(self, tiny_experiment):
        result = tiny_experiment.run(
            origin_policy(3), seed=5, faults=_deaths({0: 5})
        )
        late_events = [
            r for r in result.records if r.slot_index > 20 and r.completions > 0
        ]
        assert late_events, "surviving sensors must keep producing events"

    def test_all_nodes_dead_means_no_events(self, tiny_experiment):
        result = tiny_experiment.run(
            rr_policy(3), seed=5, faults=_deaths({0: 0, 1: 0, 2: 0})
        )
        assert result.total_attempts == 0

    def test_failures_do_not_leak_between_runs(self, tiny_experiment):
        tiny_experiment.run(rr_policy(3), seed=5, faults=_deaths({0: 0}))
        clean = tiny_experiment.run(rr_policy(3), seed=5)
        assert any(0 in r.active_nodes for r in clean.records)
        assert clean.fault_stats is None


class TestHybridSupply:
    def test_supplemental_power_adds_energy(self):
        trace = PowerTrace(dt_s=1.0, watts=np.full(10, 10e-6))
        pure = Harvester(trace)
        hybrid = Harvester(trace, supplemental_w=50e-6)
        assert hybrid.slot_energy(0, 1.0) == pytest.approx(60e-6)
        assert hybrid.average_power_w == pytest.approx(pure.average_power_w + 50e-6)

    def test_slot_energies_include_supplement(self):
        trace = PowerTrace(dt_s=1.0, watts=np.full(4, 0.0))
        hybrid = Harvester(trace, supplemental_w=20e-6)
        np.testing.assert_allclose(hybrid.slot_energies(2.0), 40e-6)

    def test_negative_supplement_rejected(self):
        trace = PowerTrace(dt_s=1.0, watts=np.full(4, 1e-6))
        with pytest.raises(Exception):
            Harvester(trace, supplemental_w=-1.0)

    def test_hybrid_config_improves_completion(self, tiny_experiment):
        saved = tiny_experiment.config
        try:
            tiny_experiment.config = replace(saved, trace_scale=0.3)
            starved = tiny_experiment.run(rr_policy(3), seed=6)
            tiny_experiment.config = replace(
                saved, trace_scale=0.3, battery_supplement_w=40e-6
            )
            hybrid = tiny_experiment.run(rr_policy(3), seed=6)
        finally:
            tiny_experiment.config = saved
        assert hybrid.completion_rate >= starved.completion_rate

    def test_invalid_battery_config(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(battery_supplement_w=-1e-6)
