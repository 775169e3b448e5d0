"""Tests for trained-bundle (de)hydration and the simulation wiring.

The expensive guarantees live here: a store hit reproduces a fresh
training run byte for byte, corruption degrades to a rebuild, a warm
build keys its bundle from stored split digests without synthesizing
a window, and pool workers sweep on the bundle their parent holds,
never loading or training one.  Training is kept cheap with a one-epoch
recipe on a micro dataset.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.policies import origin_policy, rr_policy
from repro.datasets.mhealth import make_mhealth
from repro.obs.observer import Observability
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.sweep import PolicySweep
from repro.sim.training import TrainedSensorBundle, TrainingConfig
from repro.store import (
    ENV_STORE_DIR,
    ENV_STORE_SWITCH,
    ArtifactStore,
    load_or_train_bundle,
    load_trained_bundle,
    resolve_store,
    save_trained_bundle,
    trained_bundle_key,
)
from repro.store.core import MANIFEST_NAME

#: One-epoch recipe: fast enough to train several times in this module.
FAST = TrainingConfig(
    epochs=1,
    batch_size=32,
    early_stopping_patience=1,
    finetune_epochs=1,
    final_finetune_epochs=1,
    finetune_every=8,
)
BUDGET_J = 160e-6


def make_micro_dataset():
    return make_mhealth(
        seed=11,
        train_windows_per_activity=6,
        val_windows_per_activity=4,
        n_train_subjects=2,
        n_eval_subjects=1,
    )


@pytest.fixture(scope="module")
def micro_dataset():
    return make_micro_dataset()


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    """Point the default store at a private root for this test."""
    root = str(tmp_path / "store")
    monkeypatch.setenv(ENV_STORE_DIR, root)
    monkeypatch.delenv(ENV_STORE_SWITCH, raising=False)
    return root


def _states_equal(a: TrainedSensorBundle, b: TrainedSensorBundle) -> None:
    assert a.budget_j == b.budget_j
    assert a.cost_model == b.cost_model
    for location in a.dataset.spec.locations:
        ea, eb = a.by_location[location], b.by_location[location]
        assert ea.node_id == eb.node_id
        for key, array in ea.model.state_dict().items():
            assert np.array_equal(array, eb.model.state_dict()[key])
        for key, array in ea.pruned_model.state_dict().items():
            assert np.array_equal(array, eb.pruned_model.state_dict()[key])
        assert ea.inference_energy_j == eb.inference_energy_j
        assert ea.pruned_inference_energy_j == eb.pruned_inference_energy_j
        assert ea.val_accuracy == eb.val_accuracy
        assert ea.pruned_val_accuracy == eb.pruned_val_accuracy
        assert np.array_equal(ea.val_per_class, eb.val_per_class)
        assert np.array_equal(ea.pruned_val_per_class, eb.pruned_val_per_class)
    for label in range(a.dataset.spec.n_classes):
        assert a.rank_table.ranked_nodes(label) == b.rank_table.ranked_nodes(label)
    assert np.array_equal(
        a.confidence_matrix.as_array(), b.confidence_matrix.as_array()
    )
    assert a.confidence_matrix.adaptation_alpha == b.confidence_matrix.adaptation_alpha


def _run_signature(experiment: HARExperiment, policy, seed=3):
    result = experiment.run(policy, seed=seed)
    return (
        [
            (r.true_label, r.predicted_label, r.active_nodes, r.completions)
            for r in result.records
        ],
        result.comm_energy_j,
        result.confidence_updates,
    )


class TestRoundTrip:
    def test_saved_bundle_rehydrates_byte_identical(
        self, tiny_dataset, tiny_bundle, tmp_path
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        key = trained_bundle_key(
            tiny_dataset,
            tiny_bundle.budget_j,
            seed=tiny_bundle.train_seed,
            config=tiny_bundle.train_config,
            cost_model=tiny_bundle.cost_model,
        )
        save_trained_bundle(store, key, tiny_bundle)
        loaded = load_trained_bundle(store, key, tiny_dataset)
        assert loaded is not None
        assert loaded.store_key == key
        assert loaded.train_seed == tiny_bundle.train_seed
        assert loaded.train_config == tiny_bundle.train_config
        _states_equal(tiny_bundle, loaded)
        # Downstream simulation results are byte-identical too.
        config = SimulationConfig(n_windows=40)
        fresh = HARExperiment(tiny_dataset, tiny_bundle, config=config, seed=3)
        hydrated = HARExperiment(tiny_dataset, loaded, config=config, seed=3)
        for policy in (rr_policy(3), origin_policy(3)):
            assert _run_signature(fresh, policy) == _run_signature(hydrated, policy)

    def test_wrong_dataset_payload_is_evicted(
        self, tiny_dataset, tiny_bundle, tmp_path
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        key = "c" * 32
        save_trained_bundle(store, key, tiny_bundle)
        manifest_path = os.path.join(store.entry_path(key), MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["payload"]["dataset"] = "SOMETHING-ELSE"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        # Checksums still pass (payload files untouched) but the
        # semantic unpack fails → miss + eviction.
        assert load_trained_bundle(store, key, tiny_dataset) is None
        assert not store.contains(key)


class TestLoadOrTrain:
    def test_miss_hit_and_corrupt_rebuild(self, micro_dataset, store_env):
        obs = Observability()
        first = load_or_train_bundle(
            micro_dataset, BUDGET_J, seed=5, config=FAST, obs=obs
        )
        counters = obs.metrics.to_dict()["counters"]
        assert counters["store.miss"] == 1
        assert counters["store.digests.miss"] == 1
        # One put per entry kind: the split digests and the bundle.
        assert counters["store.put"] == 2
        assert sorted(s.kind for s in ArtifactStore(store_env).verify()) == [
            "dataset-digests",
            "trained-bundle",
        ]
        assert "store.hit" not in counters
        assert first.store_key is not None
        assert "store.build" in obs.metrics.to_dict()["timers"]

        obs_hit = Observability()
        again = load_or_train_bundle(
            micro_dataset, BUDGET_J, seed=5, config=FAST, obs=obs_hit
        )
        counters = obs_hit.metrics.to_dict()["counters"]
        assert counters["store.hit"] == 1
        assert "store.miss" not in counters
        assert "store.load" in obs_hit.metrics.to_dict()["timers"]
        _states_equal(first, again)

        # Corrupt one checkpoint: next load is a miss that rebuilds.
        store = ArtifactStore(store_env)
        entry = store.get(first.store_key)
        victim = entry.file_path(sorted(entry.manifest["files"])[0])
        with open(victim, "r+b") as handle:
            handle.write(b"\x00" * 64)
        obs_rebuild = Observability()
        rebuilt = load_or_train_bundle(
            micro_dataset, BUDGET_J, seed=5, config=FAST, obs=obs_rebuild
        )
        counters = obs_rebuild.metrics.to_dict()["counters"]
        assert counters["store.corrupt"] == 1
        assert counters["store.miss"] == 1
        assert counters["store.rebuild"] == 1
        _states_equal(first, rebuilt)
        assert store.status(first.store_key).ok  # republished healthy

    def test_disabled_store_bypasses_disk(self, micro_dataset, store_env, monkeypatch):
        monkeypatch.setenv(ENV_STORE_SWITCH, "off")
        assert resolve_store(None) is None
        bundle = load_or_train_bundle(micro_dataset, BUDGET_J, seed=5, config=FAST)
        assert bundle.store_key is None
        assert not os.path.isdir(store_env)

    def test_store_false_bypasses_even_when_enabled(self):
        assert resolve_store(False) is None


def _digests_entry(store: ArtifactStore):
    (key,) = [k for k in store.keys() if store.status(k).kind == "dataset-digests"]
    return store.get(key)


class TestSplitDigests:
    """A warm build keys its bundle from the stored split digests."""

    @pytest.fixture
    def published(self, store_env):
        """A store holding only the micro bundle, as one written before
        digests entries existed; returns the bundle and its content key."""
        bundle = TrainedSensorBundle.train(
            make_micro_dataset(), BUDGET_J, seed=5, config=FAST
        )
        store = ArtifactStore(store_env)
        key = trained_bundle_key(
            bundle.dataset, BUDGET_J, seed=5, config=FAST, cost_model=bundle.cost_model
        )
        save_trained_bundle(store, key, bundle)
        return store, bundle, key

    @staticmethod
    def _load(obs=None):
        dataset = make_micro_dataset()
        bundle = load_or_train_bundle(dataset, BUDGET_J, seed=5, config=FAST, obs=obs)
        return dataset, bundle

    def test_warm_build_renders_no_window(self, published, monkeypatch):
        import repro.datasets.base as base_mod

        store, trained, key = published
        obs = Observability()
        self._load(obs)  # digests miss: synthesizes, finds the bundle, writes digests
        counters = obs.metrics.to_dict()["counters"]
        assert counters["store.digests.miss"] == 1
        assert counters["store.hit"] == 1
        assert counters["store.put"] == 1
        assert _digests_entry(store).payload["dataset"] == "MHEALTH"

        def refuse(*args, **kwargs):
            raise AssertionError("a warm build synthesized a split")

        monkeypatch.setattr(base_mod, "synthesize_split", refuse)
        obs = Observability()
        dataset, bundle = self._load(obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters == {"store.digests.hit": 1, "store.hit": 1}
        monkeypatch.undo()
        assert bundle.store_key == key == trained_bundle_key(
            dataset, BUDGET_J, seed=5, config=FAST, cost_model=bundle.cost_model
        )
        _states_equal(trained, bundle)

    def test_changed_source_digest_misses_digests_entry(self, published, monkeypatch):
        import repro.store.keys as keys_mod

        store, _, key = published
        self._load()
        monkeypatch.setattr(keys_mod, "synthesis_source_digest", lambda: "0" * 64)
        obs = Observability()
        _, bundle = self._load(obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["store.digests.miss"] == 1
        assert counters["store.hit"] == 1
        assert "store.miss" not in counters
        assert bundle.store_key == key
        kinds = sorted(status.kind for status in store.verify())
        assert kinds == ["dataset-digests", "dataset-digests", "trained-bundle"]

    def test_wrong_digests_entry_is_corrected(self, published):
        store, _, key = published
        self._load()
        entry = _digests_entry(store)
        right = entry.payload["splits"]
        wrong = json.loads(json.dumps(right))
        wrong["val"]["chest"]["X"] = "0" * 64
        store.invalidate(entry.key)
        store.put(entry.key, lambda tmpdir: {"splits": wrong}, kind="dataset-digests")

        obs = Observability()
        _, bundle = self._load(obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["store.digests.miss"] == 1
        assert counters["store.hit"] == 1
        assert "store.miss" not in counters
        assert bundle.store_key == key
        assert _digests_entry(store).payload["splits"] == right
        assert len(store.keys()) == 2  # nothing published under a wrong key

    def test_unwritable_digests_entry_still_returns_bundle(
        self, published, monkeypatch
    ):
        store, _, key = published
        put = ArtifactStore.put

        def read_only_digests(self, entry_key, stage, *, kind="artifact"):
            if kind == "dataset-digests":
                raise PermissionError("read-only store root")
            return put(self, entry_key, stage, kind=kind)

        monkeypatch.setattr(ArtifactStore, "put", read_only_digests)
        _, bundle = self._load()
        assert bundle.store_key == key
        assert store.keys() == [key]


class TestPoolWorkers:
    def test_pool_workers_never_load_or_train_a_bundle(
        self, tiny_dataset, tiny_bundle, store_env, monkeypatch
    ):
        import repro.store.bundles as bundles_mod

        store = ArtifactStore(store_env)
        key = trained_bundle_key(
            tiny_dataset,
            tiny_bundle.budget_j,
            seed=tiny_bundle.train_seed,
            config=tiny_bundle.train_config,
            cost_model=tiny_bundle.cost_model,
        )
        save_trained_bundle(store, key, tiny_bundle)
        bundle = load_trained_bundle(store, key, tiny_dataset)
        assert bundle.store_key == key
        experiment = HARExperiment(
            tiny_dataset, bundle, config=SimulationConfig(n_windows=30), seed=3
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a pool worker loaded or trained a bundle")

        # Patched before the pool forks, so every worker inherits them.
        monkeypatch.setattr(bundles_mod, "load_trained_bundle", refuse)
        monkeypatch.setattr(TrainedSensorBundle, "train", refuse)
        policies = [rr_policy(3), origin_policy(3)]
        sweep = PolicySweep(experiment, n_seeds=2, include_baselines=False)
        sequential = sweep.run(policies, workers=1)
        parallel = sweep.run(policies, workers=2, max_retries=0)
        assert parallel.degradation is None
        for spec in policies:
            a = sequential.policies[spec.name]
            b = parallel.policies[spec.name]
            assert a.records == b.records
            assert a.node_stats == b.node_stats
            assert a.comm_energy_j == b.comm_energy_j
