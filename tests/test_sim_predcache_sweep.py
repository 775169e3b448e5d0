"""The sweep performance layer: run material, prediction cache, the
process-pool executor, and multi-seed merge accounting.

The load-bearing property throughout is *bit-transparency*: sharing the
per-seed precompute (or fanning runs out over processes) must not change
a single byte of any result.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import BaselineSpec, origin_policy, rr_policy
from repro.datasets.subjects import SubjectProfile
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, PacketLoss
from repro.faults.stats import FaultStats, LinkStats, RecoveryEvent
from repro.nn.layers.activations import softmax
from repro.nn.model import Sequential
from repro.obs.observer import Observability
from repro.obs.trace import NULL_TRACER
from repro.sim import predcache
from repro.sim.predcache import PredictionCache, build_run_material
from repro.sim.sweep import PolicySweep, _merge_runs, paper_policy_grid
from repro.wsn.node import NodeStats


# ---------------------------------------------------------------------------
# empty-batch prediction (the precompute path's edge case)
# ---------------------------------------------------------------------------


class TestEmptyBatchPredict:
    def test_empty_logits_shape(self, tiny_bundle):
        model = next(iter(tiny_bundle.models(pruned=True).values()))
        empty = np.zeros((0, 6, 128), dtype=np.float32)
        logits = model.predict_logits(empty)
        assert logits.shape == (0, model.output_shape[0])

    def test_empty_proba_and_labels(self, tiny_bundle):
        model = next(iter(tiny_bundle.models(pruned=False).values()))
        empty = np.zeros((0, 6, 128), dtype=np.float32)
        proba = model.predict_proba(empty)
        assert proba.shape == (0, model.output_shape[0])
        assert model.predict(empty).shape == (0,)


# ---------------------------------------------------------------------------
# run material + cache
# ---------------------------------------------------------------------------


class TestRunMaterial:
    def test_material_is_deterministic(self, tiny_experiment):
        kwargs = dict(n_windows=40, dwell_scale=3.5)
        a = build_run_material(
            tiny_experiment.dataset, tiny_experiment.bundle, 9, **kwargs
        )
        b = build_run_material(
            tiny_experiment.dataset, tiny_experiment.bundle, 9, **kwargs
        )
        assert a.labels == b.labels
        for node_id in a.windows:
            np.testing.assert_array_equal(a.windows[node_id], b.windows[node_id])
            np.testing.assert_array_equal(
                a.probabilities[node_id], b.probabilities[node_id]
            )

    def test_material_shapes(self, tiny_experiment):
        material = build_run_material(
            tiny_experiment.dataset,
            tiny_experiment.bundle,
            2,
            n_windows=25,
            dwell_scale=3.5,
        )
        n_classes = tiny_experiment.dataset.n_classes
        assert len(material.labels) == 25
        assert material.logits.keys() == material.probabilities.keys()
        for node_id, probs in material.probabilities.items():
            assert probs.shape == (25, n_classes)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_array_equal(probs, softmax(material.logits[node_id], axis=1))

    def test_cache_memoizes_per_seed(self, tiny_experiment):
        cache = PredictionCache(tiny_experiment)
        first = cache.material(4)
        again = cache.material(4)
        other = cache.material(5)
        assert first is again
        assert first is not other
        assert cache.hits == 1 and cache.misses == 2

    def test_cache_evicts_least_recently_used(self, tiny_experiment, monkeypatch):
        monkeypatch.setattr(predcache, "MATERIAL_CACHE_CAP", 2)
        cache = PredictionCache(tiny_experiment)
        config = replace(tiny_experiment.config, n_windows=8)
        first = cache.material(1, config=config)
        second = cache.material(2, config=config)
        assert cache.material(1, config=config) is first  # now the freshest
        cache.material(3, config=config)  # evicts seed 2
        assert len(cache) == 2
        assert cache.material(1, config=config) is first
        assert cache.material(2, config=config) is not second
        assert cache.hits == 2 and cache.misses == 4

    def test_cache_keys_on_the_requested_config(self, tiny_experiment):
        cache = PredictionCache(tiny_experiment)
        config = tiny_experiment.config
        default = cache.material(4)
        assert cache.material(4, config=config) is default
        for other in (
            replace(config, n_windows=config.n_windows // 2),
            replace(config, dwell_scale=config.dwell_scale + 1.0),
            replace(config, use_pruned_models=not config.use_pruned_models),
        ):
            material = cache.material(4, config=other)
            assert material is not default
            assert (material.n_windows, material.dwell_scale, material.use_pruned_models) == (
                other.n_windows, other.dwell_scale, other.use_pruned_models,
            )

    def test_cache_keys_on_the_subject_not_its_id(self, tiny_experiment):
        # A training subject and the canonical profile share id 0 but
        # not their windows.
        cache = PredictionCache(tiny_experiment)
        config = replace(tiny_experiment.config, n_windows=12)
        trained = tiny_experiment.dataset.train_subjects[0]
        canonical = SubjectProfile.canonical()
        assert trained.subject_id == canonical.subject_id
        first = cache.material(3, config=config, subject=trained)
        other = cache.material(3, config=config, subject=canonical)
        assert other is not first and other.subject is canonical
        node_id = next(iter(first.windows))
        assert first.windows[node_id].tobytes() != other.windows[node_id].tobytes()
        with pytest.raises(ConfigurationError, match="subject"):
            other.check_compatible(
                seed=3, n_windows=12, dwell_scale=config.dwell_scale,
                use_pruned_models=config.use_pruned_models, subject=trained,
            )
        # A profile given its gains as a list is the same profile.
        listed = SubjectProfile(subject_id=0, channel_gains=[1.0] * 6)
        assert listed == canonical and hash(listed) == hash(canonical)
        assert cache.material(3, config=config, subject=listed) is other
        assert cache.hits == 1 and cache.misses == 2

    def test_mismatched_material_rejected(self, tiny_experiment):
        cache = PredictionCache(tiny_experiment)
        material = cache.material(4)
        with pytest.raises(ConfigurationError):
            tiny_experiment.run(rr_policy(3), seed=5, material=material)
        with pytest.raises(ConfigurationError):
            tiny_experiment.run(
                rr_policy(3), seed=4, n_windows=10, material=material
            )


# ---------------------------------------------------------------------------
# bit-identity of cached vs uncached vs parallel runs
# ---------------------------------------------------------------------------


def _assert_results_identical(a, b):
    assert a.records == b.records
    assert a.node_stats == b.node_stats
    assert a.comm_energy_j == b.comm_energy_j
    assert a.confidence_updates == b.confidence_updates


class TestCacheBitIdentity:
    @pytest.mark.parametrize("spec", [rr_policy(3), origin_policy(6)], ids=lambda s: s.name)
    def test_cached_run_matches_uncached(self, tiny_experiment, spec):
        cache = PredictionCache(tiny_experiment)
        cached = tiny_experiment.run(spec, seed=4, material=cache.material(4))
        uncached = tiny_experiment.run(spec, seed=4)
        _assert_results_identical(cached, uncached)

    def test_cached_sweep_matches_uncached_sweep(self, tiny_experiment, per_cell_sweep):
        # The sweep shares one material per seed; runs that each build
        # their own must match it byte for byte.
        policies = [rr_policy(3), origin_policy(3)]
        cached = PolicySweep(tiny_experiment, n_seeds=2).run(policies, seed=4)
        uncached = per_cell_sweep(tiny_experiment, policies, n_seeds=2, seed=4)
        for spec in policies:
            _assert_results_identical(
                cached.policy(spec.name), uncached.policy(spec.name)
            )
        for name in cached.baselines:
            np.testing.assert_array_equal(
                cached.baseline(name).predicted_labels,
                uncached.baseline(name).predicted_labels,
            )


class TestParallelSweep:
    def test_workers_must_be_positive(self, tiny_experiment):
        sweep = PolicySweep(tiny_experiment, n_seeds=1)
        with pytest.raises(ConfigurationError):
            sweep.run([rr_policy(3)], seed=4, workers=0)

    def test_parallel_matches_sequential(self, tiny_experiment):
        policies = [rr_policy(3), origin_policy(3)]
        sweep = PolicySweep(tiny_experiment, n_seeds=2)
        sequential = sweep.run(policies, seed=4, workers=1)
        parallel = sweep.run(policies, seed=4, workers=4)
        assert set(parallel.policies) == set(sequential.policies)
        for spec in policies:
            _assert_results_identical(
                parallel.policy(spec.name), sequential.policy(spec.name)
            )
        for name in sequential.baselines:
            np.testing.assert_array_equal(
                parallel.baseline(name).true_labels,
                sequential.baseline(name).true_labels,
            )

    @pytest.mark.parametrize(
        "workers, n_seeds, baselines, layout",
        [
            # One 16-policy batch while the baseline unit fills the
            # second worker.
            (2, 1, True, [16, "baselines"]),
            # Without baselines both workers share the seed's grid.
            (2, 1, False, [8, 8]),
            (4, 2, True, [16, 16, "baselines", "baselines"]),
        ],
        ids=["2w-1s-baselines", "2w-1s-bare", "4w-2s-baselines"],
    )
    def test_unit_layout(self, tiny_experiment, workers, n_seeds, baselines, layout):
        sweep = PolicySweep(tiny_experiment, n_seeds=n_seeds, include_baselines=baselines)
        units = sweep.units(paper_policy_grid(), workers=workers)
        assert [
            "baselines" if isinstance(unit.items[0], BaselineSpec) else len(unit.items)
            for unit in units
        ] == layout

    def test_odd_worker_counts_cover_the_grid(self, tiny_experiment):
        """Chunking with workers not dividing the grid loses no runs."""
        policies = [rr_policy(3), rr_policy(6), origin_policy(3)]
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=False)
        sequential = sweep.run(policies, seed=7, workers=1)
        parallel = sweep.run(policies, seed=7, workers=3)
        for spec in policies:
            _assert_results_identical(
                parallel.policy(spec.name), sequential.policy(spec.name)
            )


# ---------------------------------------------------------------------------
# one synthesis per seed: the baselines read the policies' material
# ---------------------------------------------------------------------------


def _assert_baselines_identical(a, b):
    assert a.baseline_name == b.baseline_name
    assert a.activities == b.activities
    np.testing.assert_array_equal(a.true_labels, b.true_labels)
    np.testing.assert_array_equal(a.predicted_labels, b.predicted_labels)


class TestSharedMaterialBaselines:
    def test_each_seed_is_synthesized_once(self, tiny_experiment, monkeypatch):
        from repro.datasets.synthesis import SignalSynthesizer

        # Every window, whichever public call asked for it, is rendered
        # by the synthesizer's one render.
        real_render = SignalSynthesizer._render
        windows = []

        def counting(self, draws, *args, **kwargs):
            windows.append(len(draws))
            return real_render(self, draws, *args, **kwargs)

        monkeypatch.setattr(SignalSynthesizer, "_render", counting)
        n_seeds = 2
        sweep = PolicySweep(tiny_experiment, n_seeds=n_seeds, include_baselines=True)
        sequential = sweep.run([rr_policy(3), origin_policy(3)], seed=4, workers=1)
        config = tiny_experiment.config
        locations = tiny_experiment.dataset.spec.locations
        assert sum(windows) == n_seeds * config.n_windows * len(locations)
        monkeypatch.undo()

        parallel = sweep.run([rr_policy(3), origin_policy(3)], seed=4, workers=2)
        assert sorted(parallel.baselines) == sorted(sequential.baselines)
        for name in sequential.baselines:
            _assert_baselines_identical(parallel.baseline(name), sequential.baseline(name))

    def test_baseline_rejects_foreign_material(self, tiny_experiment):
        from repro.core.policies import Baseline2
        from repro.sim.baselines import evaluate_baseline

        material = PredictionCache(tiny_experiment).material(4)
        with pytest.raises(ConfigurationError):
            evaluate_baseline(
                tiny_experiment.dataset, tiny_experiment.bundle, Baseline2,
                n_windows=tiny_experiment.config.n_windows, seed=5, material=material,
            )

    def test_sweep_runs_each_model_once_per_window(self, tiny_experiment, monkeypatch):
        # The material runs the pruned models and Baseline-2 reads its
        # logits; only Baseline-1's unpruned models run a second pass.
        real = Sequential.predict_logits
        rows = {}

        def counting(self, x, *args, **kwargs):
            rows[id(self)] = rows.get(id(self), 0) + len(x)
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Sequential, "predict_logits", counting)
        PolicySweep(tiny_experiment, n_seeds=1).run([rr_policy(3), origin_policy(3)], seed=4)
        n_windows = tiny_experiment.config.n_windows
        bundle = tiny_experiment.bundle
        pruned, unpruned = bundle.models(pruned=True), bundle.models(pruned=False)
        for node_id in pruned:
            assert rows.get(id(pruned[node_id]), 0) == n_windows
            assert rows.get(id(unpruned[node_id]), 0) == n_windows
        assert sum(rows.values()) == 2 * n_windows * len(pruned)


def _predict_pass_labels(dataset, bundle, baseline, material):
    """The baselines' classification as an explicit pass: every model
    predicts the material's windows, then a majority vote with ties to
    the lowest label."""
    models = bundle.models(pruned=baseline.pruned)
    votes = np.stack(
        [
            models[node_id].predict(material.windows[node_id])
            for node_id in map(bundle.node_id_of, dataset.spec.locations)
        ]
    )
    counts = np.stack([(votes == label).sum(axis=0) for label in range(dataset.n_classes)])
    return counts.argmax(axis=0)


class TestBaselinesMatchPredictPass:
    @pytest.mark.parametrize("pruned_material", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("which", ["mhealth", "pamap2"])
    def test_baselines_match_predict_pass(self, request, which, pruned_material):
        from repro.core.policies import Baseline1, Baseline2
        from repro.sim.baselines import evaluate_baseline

        prefix = "tiny" if which == "mhealth" else "tiny_pamap2"
        dataset = request.getfixturevalue(f"{prefix}_dataset")
        bundle = request.getfixturevalue(f"{prefix}_bundle")
        params = dict(n_windows=40, dwell_scale=2.0)
        for seed in (3, 4, 5):
            material = build_run_material(
                dataset, bundle, seed, use_pruned_models=pruned_material, **params
            )
            true = [dataset.spec.label_of(activity) for activity in material.labels]
            for baseline in (Baseline1, Baseline2):
                expected = _predict_pass_labels(dataset, bundle, baseline, material)
                shared = evaluate_baseline(
                    dataset, bundle, baseline, seed=seed, material=material, **params
                )
                standalone = evaluate_baseline(dataset, bundle, baseline, seed=seed, **params)
                for result in (shared, standalone):
                    np.testing.assert_array_equal(result.predicted_labels, expected)
                    np.testing.assert_array_equal(result.true_labels, true)


# ---------------------------------------------------------------------------
# material builds on the caller's metrics
# ---------------------------------------------------------------------------

MATERIAL_TIMERS = ("predcache.build_material", "predcache.fill")


class TestMaterialMetrics:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_times_each_material_build(self, tiny_experiment, workers):
        # Sequentially the baselines reuse their seed's material; in a
        # pool a baseline unit may land on a worker that never built it,
        # so the pooled sweep runs without baselines to keep two builds.
        # Each unit completes its material, so each build is one fill.
        obs = Observability(tracer=NULL_TRACER)
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=workers == 1)
        sweep.run([rr_policy(3), origin_policy(3)], seed=4, workers=workers, obs=obs)
        exported = obs.metrics.to_dict()
        for name in MATERIAL_TIMERS:
            assert exported["timers"][name]["calls"] == 2, name
        assert exported["gauges"]["predcache.misses"] >= 1
        if workers == 1:
            assert exported["gauges"]["predcache.hits"] == 2


# ---------------------------------------------------------------------------
# multi-seed merge accounting (the bugfix)
# ---------------------------------------------------------------------------


class TestMergeRuns:
    def test_node_stats_sum_across_seeds(self, tiny_experiment):
        """Regression: merged node stats must cover *all* runs, not just
        the last one (slots double with two 60-slot seeds)."""
        runs = [
            tiny_experiment.run(rr_policy(3), seed=4),
            tiny_experiment.run(rr_policy(3), seed=5),
        ]
        merged = _merge_runs(runs)
        for node_id, stats in merged.node_stats.items():
            assert stats.slots == 120
            assert stats.completions == sum(
                run.node_stats[node_id].completions for run in runs
            )
            assert stats.harvested_j == pytest.approx(
                sum(run.node_stats[node_id].harvested_j for run in runs)
            )

    def test_sweep_reports_summed_node_stats(self, tiny_experiment):
        result = PolicySweep(
            tiny_experiment, n_seeds=2, include_baselines=False
        ).run([rr_policy(3)], seed=4)
        merged = result.policy("RR3")
        assert merged.n_slots == 120
        assert all(stats.slots == 120 for stats in merged.node_stats.values())

    def test_fault_stats_survive_merging(self, tiny_experiment):
        """Regression: a multi-seed faulted sweep must carry merged
        fault accounting instead of silently dropping it."""
        plan = FaultPlan(faults=(PacketLoss(rate=0.4),))
        runs = [
            tiny_experiment.run(rr_policy(3), seed=seed, faults=plan)
            for seed in (4, 5)
        ]
        merged = _merge_runs(runs)
        assert merged.fault_stats is not None
        assert merged.fault_stats.messages_sent == sum(
            run.fault_stats.messages_sent for run in runs
        )
        assert merged.fault_stats.messages_dropped == sum(
            run.fault_stats.messages_dropped for run in runs
        )
        assert merged.total_dropped_messages == sum(
            run.total_dropped_messages for run in runs
        )

    def test_fault_stats_merged_unit(self):
        a = FaultStats(
            per_link={0: LinkStats(10, 8, 2, 1)},
            offline_slots={0: 5},
            recoveries=(RecoveryEvent(0, 1, 2, recovered_slot=4),),
            host_restarts=1,
        )
        b = FaultStats(
            per_link={0: LinkStats(4, 4, 0, 0), 1: LinkStats(6, 3, 3, 0)},
            offline_slots={1: 7},
            recoveries=(RecoveryEvent(1, 3, 6),),
            host_restarts=2,
        )
        merged = FaultStats.merged([a, b])
        assert merged.per_link[0].messages_sent == 14
        assert merged.per_link[1].messages_dropped == 3
        assert merged.offline_slots == {0: 5, 1: 7}
        assert len(merged.recoveries) == 2
        assert merged.host_restarts == 3

    def test_node_stats_merged_unit(self):
        merged = NodeStats.merged(
            [
                NodeStats(slots=10, completions=3, harvested_j=1.5),
                NodeStats(slots=20, completions=4, harvested_j=0.5),
            ]
        )
        assert merged.slots == 30
        assert merged.completions == 7
        assert merged.harvested_j == pytest.approx(2.0)
