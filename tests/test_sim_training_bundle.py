"""Tests for TrainedSensorBundle (uses the session-scoped tiny bundle)."""

import numpy as np
import pytest

from repro.core.scheduling import RankTable
from repro.errors import ConfigurationError
from repro.sim.training import TrainedSensorBundle, TrainingConfig


class TestTrainedSensorBundle:
    def test_one_entry_per_location(self, tiny_bundle, tiny_dataset):
        assert set(tiny_bundle.by_location) == set(tiny_dataset.spec.locations)

    def test_node_ids_follow_location_order(self, tiny_bundle, tiny_dataset):
        for node_id, location in enumerate(tiny_dataset.spec.locations):
            assert tiny_bundle.node_id_of(location) == node_id
            assert tiny_bundle.location_of(node_id) is location

    def test_pruned_models_fit_budget(self, tiny_bundle):
        for entry in tiny_bundle.by_location.values():
            assert entry.pruned_inference_energy_j <= tiny_bundle.budget_j

    def test_pruned_energy_below_unpruned(self, tiny_bundle):
        for entry in tiny_bundle.by_location.values():
            assert entry.pruned_inference_energy_j < entry.inference_energy_j

    def test_models_predict(self, tiny_bundle, tiny_dataset):
        for pruned in (False, True):
            models = tiny_bundle.models(pruned=pruned)
            for location in tiny_dataset.spec.locations:
                node_id = tiny_bundle.node_id_of(location)
                X = tiny_dataset.val[location].X[:4]
                probs = models[node_id].predict_proba(X)
                assert probs.shape == (4, tiny_dataset.n_classes)
                np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_models_learned_something(self, tiny_bundle):
        # Even the tiny recipe should comfortably beat chance (1/6).
        for entry in tiny_bundle.by_location.values():
            assert entry.val_accuracy > 0.3

    def test_rank_table_complete(self, tiny_bundle, tiny_dataset):
        table = tiny_bundle.rank_table
        assert isinstance(table, RankTable)
        assert table.labels == list(range(tiny_dataset.n_classes))
        assert set(table.node_ids) == {0, 1, 2}

    def test_rank_table_consistent_with_val_accuracy(self, tiny_bundle):
        table = tiny_bundle.rank_table
        for label in table.labels:
            ranked = table.ranked_nodes(label)
            accs = [
                tiny_bundle.entry(tiny_bundle.location_of(n)).pruned_val_per_class[label]
                for n in ranked
            ]
            assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_confidence_matrix_covers_all(self, tiny_bundle, tiny_dataset):
        matrix = tiny_bundle.confidence_matrix
        assert matrix.n_classes == tiny_dataset.n_classes
        assert set(matrix.node_ids) == {0, 1, 2}

    def test_inference_energies_map(self, tiny_bundle):
        pruned = tiny_bundle.inference_energies(pruned=True)
        full = tiny_bundle.inference_energies(pruned=False)
        assert set(pruned) == {0, 1, 2}
        assert all(pruned[n] < full[n] for n in pruned)

    def test_unknown_location_rejected(self, tiny_bundle):
        class Fake:
            value = "nowhere"

        with pytest.raises(ConfigurationError):
            tiny_bundle.entry(Fake())

    def test_unknown_node_rejected(self, tiny_bundle):
        with pytest.raises(ConfigurationError):
            tiny_bundle.location_of(99)

    def test_invalid_budget_rejected(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            TrainedSensorBundle.train(tiny_dataset, budget_j=0.0)

    def test_invalid_training_config(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(learning_rate=0)
