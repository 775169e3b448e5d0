"""Tests for the energy model, serialization, architectures and pruning."""

import numpy as np
import pytest

from repro.datasets.body import BodyLocation
from repro.errors import ModelError
from repro.nn import (
    EnergyAwarePruner,
    EnergyCostModel,
    Sequential,
    build_har_cnn,
    estimate_inference_energy,
    har_architecture_for,
    load_model_weights,
    save_model_weights,
)
from repro.nn.architectures import HARArchitecture
from repro.nn.energy_model import energy_breakdown, format_energy_report, layer_energy
from repro.nn.layers import Conv1D, Dense, Flatten, ReLU
from repro.nn.pruning import prune_output_unit


@pytest.fixture
def cnn():
    return build_har_cnn(6, 64, 4, seed=0)


class TestEnergyModel:
    def test_total_positive_and_dominated_by_conv(self, cnn):
        breakdown = energy_breakdown(cnn)
        total = estimate_inference_energy(cnn)
        assert total > 0
        conv_energy = sum(e.energy_j for e in breakdown if "conv" in e.layer_name)
        assert conv_energy > 0.5 * (total - EnergyCostModel().fixed_overhead_j)

    def test_macs_match_formula(self):
        layer = Conv1D(8, 5, seed=0)
        layer.build((6, 64))
        entry = layer_energy(layer, EnergyCostModel())
        assert entry.macs == 8 * 6 * 5 * 60

    def test_dense_macs(self):
        layer = Dense(10, seed=0)
        layer.build((20,))
        entry = layer_energy(layer, EnergyCostModel())
        assert entry.macs == 200

    def test_wider_model_costs_more(self):
        small = build_har_cnn(6, 64, 4, architecture=HARArchitecture().scaled(0.5), seed=0)
        large = build_har_cnn(6, 64, 4, architecture=HARArchitecture().scaled(1.5), seed=0)
        assert estimate_inference_energy(large) > estimate_inference_energy(small)

    def test_unbuilt_layer_rejected(self):
        with pytest.raises(Exception):
            layer_energy(Dense(3), EnergyCostModel())

    def test_report_renders(self, cnn):
        report = format_energy_report(cnn)
        assert "uJ/inference" in report
        assert "fixed overhead" in report

    def test_negative_cost_rejected(self):
        with pytest.raises(Exception):
            EnergyCostModel(mac_j=-1)


class TestSerialization:
    def test_roundtrip(self, cnn, tmp_path):
        path = str(tmp_path / "weights.npz")
        save_model_weights(cnn, path)
        other = build_har_cnn(6, 64, 4, seed=99)
        load_model_weights(other, path)
        x = np.random.default_rng(0).normal(size=(3, 6, 64))
        np.testing.assert_allclose(cnn.predict_logits(x), other.predict_logits(x))

    def test_missing_file(self, cnn):
        with pytest.raises(ModelError):
            load_model_weights(cnn, "/nonexistent/checkpoint.npz")

    def test_mismatched_checkpoint_names_keys(self, cnn, tmp_path):
        path = str(tmp_path / "dense.npz")
        other = Sequential([Flatten(), Dense(4, seed=0)], name="dense-only")
        other.build((6, 64))
        save_model_weights(other, path)
        with pytest.raises(ModelError, match="missing keys"):
            load_model_weights(cnn, path)
        with pytest.raises(ModelError, match="unexpected keys"):
            load_model_weights(cnn, path)

    def test_unbuilt_model_rejected(self, tmp_path):
        model = Sequential([Dense(3, seed=0)])
        with pytest.raises(ModelError):
            save_model_weights(model, str(tmp_path / "x.npz"))


class TestArchitectures:
    def test_per_location_architectures_differ(self):
        archs = {loc: har_architecture_for(loc) for loc in BodyLocation}
        assert len({a.conv_filters for a in archs.values()}) > 1

    def test_ankle_is_widest(self):
        ankle = har_architecture_for(BodyLocation.LEFT_ANKLE)
        wrist = har_architecture_for(BodyLocation.RIGHT_WRIST)
        assert sum(ankle.conv_filters) > sum(wrist.conv_filters)

    def test_scaled(self):
        arch = HARArchitecture(conv_filters=(16, 24))
        half = arch.scaled(0.5)
        assert half.conv_filters == (8, 12)

    def test_scaled_floor(self):
        arch = HARArchitecture(conv_filters=(4, 4))
        tiny = arch.scaled(0.01)
        assert min(tiny.conv_filters) >= 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelError):
            HARArchitecture(conv_filters=(8,), kernel_sizes=(5, 3))

    def test_invalid_input_spec(self):
        with pytest.raises(ModelError):
            build_har_cnn(0, 64, 4)


class TestPruneOutputUnit:
    def test_conv_prune_shrinks_and_preserves_function_shape(self, cnn):
        pruned = prune_output_unit(cnn, 0, 0)  # conv1 channel 0
        assert pruned.layers[0].filters == cnn.layers[0].filters - 1
        x = np.random.default_rng(0).normal(size=(2, 6, 64))
        assert pruned.predict_logits(x).shape == (2, 4)

    def test_dense_prune(self, cnn):
        dense_index = next(
            i for i, l in enumerate(cnn.layers) if isinstance(l, Dense)
        )
        pruned = prune_output_unit(cnn, dense_index, 3)
        assert pruned.layers[dense_index].units == cnn.layers[dense_index].units - 1

    def test_surviving_weights_copied(self, cnn):
        pruned = prune_output_unit(cnn, 0, 2)
        keep = [i for i in range(cnn.layers[0].filters) if i != 2]
        np.testing.assert_allclose(pruned.layers[0].W, cnn.layers[0].W[keep])

    def test_flatten_consumer_rows_removed_consistently(self):
        """Pruning the last conv before Flatten must keep outputs of the
        dense layer identical for the surviving channels' features."""
        model = Sequential(
            [
                Conv1D(3, 3, seed=0, name="c"),
                ReLU(name="r"),
                Flatten(name="f"),
                Dense(2, seed=1, name="d"),
                Dense(2, seed=2, name="out"),
            ]
        ).build((2, 8))
        x = np.random.default_rng(0).normal(size=(4, 2, 8))
        pruned = prune_output_unit(model, 0, 1)
        # Zeroing channel 1's outgoing dense rows in the original gives
        # the same logits as the pruned model.
        zeroed = Sequential(
            [
                Conv1D(3, 3, seed=0, name="c"),
                ReLU(name="r"),
                Flatten(name="f"),
                Dense(2, seed=1, name="d"),
                Dense(2, seed=2, name="out"),
            ]
        ).build((2, 8))
        zeroed.load_state_dict(model.state_dict())
        length = 6  # conv output length
        zeroed.layers[3].W[length : 2 * length, :] = 0.0
        np.testing.assert_allclose(
            pruned.predict_logits(x), zeroed.predict_logits(x), atol=1e-10
        )

    def test_cannot_prune_logits_layer(self, cnn):
        last = len(cnn.layers) - 1
        with pytest.raises(ModelError):
            prune_output_unit(cnn, last, 0)

    def test_cannot_prune_nonparametric(self, cnn):
        with pytest.raises(ModelError):
            prune_output_unit(cnn, 1, 0)  # ReLU

    def test_unit_out_of_range(self, cnn):
        with pytest.raises(ModelError):
            prune_output_unit(cnn, 0, 999)


class TestEnergyAwarePruner:
    def test_meets_budget(self, cnn):
        before = estimate_inference_energy(cnn)
        pruner = EnergyAwarePruner(finetune_epochs=0, final_finetune_epochs=0)
        result = pruner.prune_to_budget(cnn, before * 0.6)
        assert result.met_budget
        assert result.energy_after_j <= before * 0.6
        assert result.n_removed > 0

    def test_original_untouched(self, cnn):
        state_before = {k: v.copy() for k, v in cnn.state_dict().items()}
        shapes_before = [l.output_shape for l in cnn.layers]
        EnergyAwarePruner(finetune_epochs=0, final_finetune_epochs=0).prune_to_budget(
            cnn, estimate_inference_energy(cnn) * 0.7
        )
        assert [l.output_shape for l in cnn.layers] == shapes_before
        for key, value in cnn.state_dict().items():
            np.testing.assert_array_equal(value, state_before[key])

    def test_unreachable_budget_raises(self, cnn):
        with pytest.raises(ModelError, match="unreachable"):
            EnergyAwarePruner(finetune_epochs=0, final_finetune_epochs=0).prune_to_budget(
                cnn, 1e-9
            )

    def test_finetune_runs_and_is_deterministic(self, cnn):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6, 64))
        y = rng.integers(0, 4, size=40)
        budget = estimate_inference_energy(cnn) * 0.7

        def run():
            pruner = EnergyAwarePruner(
                finetune_epochs=1, final_finetune_epochs=2, finetune_every=3
            )
            return pruner.prune_to_budget(cnn, budget, finetune_data=(X, y), seed=5)

        a, b = run(), run()
        assert a.finetune_history is not None
        for key in a.model.state_dict():
            np.testing.assert_array_equal(
                a.model.state_dict()[key], b.model.state_dict()[key]
            )

    def test_step_log_monotone_energy(self, cnn):
        result = EnergyAwarePruner(
            finetune_epochs=0, final_finetune_epochs=0
        ).prune_to_budget(cnn, estimate_inference_energy(cnn) * 0.5)
        energies = [step.energy_after_j for step in result.steps]
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_invalid_budget(self, cnn):
        with pytest.raises(ModelError):
            EnergyAwarePruner().prune_to_budget(cnn, 0.0)
