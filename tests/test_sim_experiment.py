"""Integration tests: the full EH-WSN simulation loop."""

import numpy as np
import pytest

from repro.core.policies import (
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.datasets.body import BodyLocation
from repro.errors import ConfigurationError
from repro.sim.baselines import evaluate_baseline
from repro.sim.completion import CompletionExperiment
from repro.sim.experiment import SimulationConfig
from repro.sim.sweep import PolicySweep, paper_policy_grid
from repro.core.policies import Baseline1, Baseline2


class TestRunBasics:
    def test_rr_run_shape(self, tiny_experiment):
        result = tiny_experiment.run(rr_policy(3))
        assert result.n_slots == 60
        assert result.policy_name == "RR3"
        assert 0.0 <= result.overall_accuracy <= 1.0
        assert result.total_attempts > 0

    def test_all_policies_run(self, tiny_experiment):
        for spec in [rr_policy(6), aas_policy(6), aasr_policy(6), origin_policy(6)]:
            result = tiny_experiment.run(spec)
            assert result.n_slots == 60

    def test_noop_slots_have_no_attempts(self, tiny_experiment):
        result = tiny_experiment.run(rr_policy(12))
        noop = [r for r in result.records if not r.active_nodes]
        assert len(noop) == 60 - 60 // 4
        assert all(r.attempts == 0 for r in noop)

    def test_reproducible_given_seed(self, tiny_experiment):
        a = tiny_experiment.run(origin_policy(6), seed=4)
        b = tiny_experiment.run(origin_policy(6), seed=4)
        assert a.predicted_labels().tolist() == b.predicted_labels().tolist()

    def test_different_seeds_differ(self, tiny_experiment):
        a = tiny_experiment.run(rr_policy(3), seed=1)
        b = tiny_experiment.run(rr_policy(3), seed=2)
        assert a.true_labels().tolist() != b.true_labels().tolist()

    def test_n_windows_override(self, tiny_experiment):
        result = tiny_experiment.run(rr_policy(3), n_windows=20)
        assert result.n_slots == 20

    def test_adaptive_updates_counted(self, tiny_experiment):
        adaptive = tiny_experiment.run(origin_policy(6), seed=5)
        static = tiny_experiment.run(origin_policy(6, adaptive=False), seed=5)
        assert adaptive.confidence_updates > 0
        assert static.confidence_updates == 0

    def test_adaptive_run_leaves_the_bundle_matrix_untouched(self, tiny_experiment):
        matrix = tiny_experiment.bundle.confidence_matrix
        before, updates = matrix.as_array().copy(), matrix.updates
        result = tiny_experiment.run(origin_policy(3), seed=2)
        assert result.confidence_updates > 0
        np.testing.assert_array_equal(matrix.as_array(), before)
        assert matrix.updates == updates

    def test_comm_energy_is_negligible(self, tiny_experiment):
        """Verify the paper's assumption: radio energy << total consumed."""
        result = tiny_experiment.run(rr_policy(3), seed=1)
        consumed = sum(s.consumed_j for s in result.node_stats.values())
        assert result.comm_energy_j < 0.15 * consumed

    def test_node_stats_populated(self, tiny_experiment):
        result = tiny_experiment.run(rr_policy(3), seed=1)
        assert set(result.node_stats) == {0, 1, 2}
        assert all(s.slots == 60 for s in result.node_stats.values())


class TestSimulationConfig:
    def test_invalid_windows(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(n_windows=0)

    def test_invalid_trace_scale(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(trace_scale=0)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(trace_scale=float("nan")),
            dict(trace_scale=float("inf")),
            dict(trace_scale=-1.0),
            dict(node_gains={BodyLocation.CHEST: float("nan")}),
            dict(node_gains={BodyLocation.RIGHT_WRIST: float("inf")}),
            dict(node_gains={BodyLocation.LEFT_ANKLE: -0.5}),
        ],
        ids=["scale-nan", "scale-inf", "scale-negative", "gain-nan", "gain-inf", "gain-negative"],
    )
    def test_non_finite_deployment_knobs_rejected(self, knobs):
        # A NaN knob would run and silently starve its nodes.
        with pytest.raises(ConfigurationError):
            SimulationConfig(**knobs)
        assert SimulationConfig(node_gains={BodyLocation.CHEST: 0.0}).gain_for(
            BodyLocation.CHEST
        ) == 0.0

    def test_gain_lookup_defaults(self):
        from repro.datasets.body import BodyLocation

        config = SimulationConfig()
        assert config.gain_for(BodyLocation.CHEST) == 1.0


class TestBaselineEvaluator:
    def test_baselines_run(self, tiny_dataset, tiny_bundle):
        for baseline in (Baseline1, Baseline2):
            result = evaluate_baseline(
                tiny_dataset, tiny_bundle, baseline, n_windows=40, seed=1
            )
            assert result.true_labels.shape == (40,)
            assert 0.0 <= result.overall_accuracy <= 1.0

    def test_same_seed_same_timeline_as_policy_run(self, tiny_experiment):
        policy_result = tiny_experiment.run(rr_policy(3), seed=6, n_windows=30)
        baseline_result = evaluate_baseline(
            tiny_experiment.dataset,
            tiny_experiment.bundle,
            Baseline2,
            n_windows=30,
            seed=6,
            dwell_scale=tiny_experiment.config.dwell_scale,
        )
        np.testing.assert_array_equal(
            policy_result.true_labels(), baseline_result.true_labels
        )

    def test_per_activity_report(self, tiny_dataset, tiny_bundle):
        result = evaluate_baseline(
            tiny_dataset, tiny_bundle, Baseline1, n_windows=30, seed=0
        )
        report = result.per_activity_accuracy()
        assert len(report) == tiny_dataset.n_classes


class TestCompletionExperiment:
    def test_runs_and_bands_are_sane(self, tiny_experiment):
        study = CompletionExperiment(tiny_experiment).run(n_windows=60, seed=2)
        naive, rr = study.naive, study.round_robin
        # Naive all-on wastes energy: it must not beat plain RR3.
        assert naive.any_fraction <= rr.any_fraction + 0.15
        assert naive.n_slots == 60
        assert "Fig. 1a" in study.summary()

    def test_config_restored_after_run(self, tiny_experiment):
        config_before = tiny_experiment.config
        CompletionExperiment(tiny_experiment).run(n_windows=30, seed=1)
        assert tiny_experiment.config is config_before


class TestPolicySweep:
    def test_grid_factory(self):
        grid = paper_policy_grid((3, 12))
        assert len(grid) == 8
        assert grid[0].name == "RR3"

    def test_sweep_runs_and_reports(self, tiny_experiment):
        sweep = PolicySweep(tiny_experiment, n_seeds=1)
        result = sweep.run([rr_policy(3), origin_policy(3)], seed=4)
        assert set(result.policies) == {"RR3", "RR3 Origin"}
        assert set(result.baselines) == {"Baseline-1", "Baseline-2"}
        table = result.accuracy_table()
        assert "Baseline-2" in table
        overall = result.overall_accuracy()
        assert all(0.0 <= v <= 1.0 for v in overall.values())

    def test_mean_improvement(self, tiny_experiment):
        sweep = PolicySweep(tiny_experiment, n_seeds=1)
        result = sweep.run([origin_policy(3)], seed=4)
        delta = result.mean_improvement("RR3 Origin", "Baseline-2")
        assert isinstance(delta, float)

    def test_multi_seed_concatenates(self, tiny_experiment):
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=False)
        result = sweep.run([rr_policy(3)], seed=4)
        assert result.policy("RR3").n_slots == 120

    def test_unknown_policy_lookup(self, tiny_experiment):
        sweep = PolicySweep(tiny_experiment, n_seeds=1, include_baselines=False)
        result = sweep.run([rr_policy(3)], seed=4)
        with pytest.raises(ConfigurationError):
            result.policy("nope")


class TestNaivePolicyInSim:
    def test_naive_activates_everyone(self, tiny_experiment):
        result = tiny_experiment.run(naive_policy(), seed=1, n_windows=20)
        assert all(len(r.active_nodes) == 3 for r in result.records)
