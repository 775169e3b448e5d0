"""Tests for repro.datasets.base, .windows and the dataset factories."""

import numpy as np
import pytest

from repro.datasets.activities import Activity
from repro.datasets.base import DatasetSpec, LabeledWindows
from repro.datasets.body import BodyLocation
from repro.datasets.mhealth import MHEALTH_ACTIVITIES, make_mhealth, mhealth_spec
from repro.datasets.pamap2 import PAMAP2_ACTIVITIES, make_pamap2, pamap2_spec
from repro.datasets.profiles import mhealth_signatures
from repro.datasets.windows import (
    slice_windows,
    window_count,
    window_index_at,
    window_start_times,
)
from repro.errors import DatasetError


class TestDatasetSpec:
    def test_mhealth_spec(self):
        spec = mhealth_spec()
        assert spec.n_classes == 6
        assert spec.window_duration_s == pytest.approx(2.56)

    def test_pamap2_spec(self):
        spec = pamap2_spec()
        assert spec.n_classes == 5
        assert Activity.JOGGING not in spec.activities

    def test_label_roundtrip(self):
        spec = mhealth_spec()
        for label, activity in enumerate(spec.activities):
            assert spec.label_of(activity) == label
            assert spec.activity_of(label) is activity

    def test_unknown_activity(self):
        with pytest.raises(DatasetError):
            pamap2_spec().label_of(Activity.JOGGING)

    def test_label_out_of_range(self):
        with pytest.raises(DatasetError):
            mhealth_spec().activity_of(6)

    def test_duplicate_activities_rejected(self):
        with pytest.raises(DatasetError):
            DatasetSpec(
                name="bad",
                activities=(Activity.WALKING, Activity.WALKING),
                signature_factory=mhealth_signatures,
            )


class TestLabeledWindows:
    @pytest.fixture
    def windows(self):
        return LabeledWindows(
            X=np.arange(24, dtype=np.float32).reshape(4, 2, 3),
            y=np.array([0, 1, 0, 2]),
        )

    def test_len(self, windows):
        assert len(windows) == 4

    def test_shuffled_preserves_pairs(self, windows):
        shuffled = windows.shuffled(seed=0)
        for row, label in zip(shuffled.X, shuffled.y):
            original = np.where((windows.X == row).all(axis=(1, 2)))[0]
            assert windows.y[original[0]] == label

    def test_class_counts(self, windows):
        np.testing.assert_array_equal(windows.class_counts(3), [2, 1, 1])

    def test_bad_shapes_rejected(self):
        with pytest.raises(DatasetError):
            LabeledWindows(np.zeros((4, 3)), np.zeros(4))
        with pytest.raises(DatasetError):
            LabeledWindows(np.zeros((4, 2, 3)), np.zeros(3))


class TestFactories:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_mhealth(
            seed=0,
            train_windows_per_activity=6,
            val_windows_per_activity=4,
            n_train_subjects=2,
            n_eval_subjects=1,
        )

    def test_all_locations_present(self, dataset):
        for location in BodyLocation:
            assert location in dataset.train

    def test_balanced_classes(self, dataset):
        counts = dataset.train[BodyLocation.CHEST].class_counts(6)
        assert set(counts) == {6}

    def test_subjects_disjoint(self, dataset):
        train_ids = {s.subject_id for s in dataset.train_subjects}
        eval_ids = {s.subject_id for s in dataset.eval_subjects}
        assert not train_ids & eval_ids

    def test_reproducible(self):
        kwargs = dict(
            train_windows_per_activity=4,
            val_windows_per_activity=2,
            n_train_subjects=2,
            n_eval_subjects=1,
        )
        a = make_mhealth(seed=3, **kwargs)
        b = make_mhealth(seed=3, **kwargs)
        np.testing.assert_array_equal(
            a.train[BodyLocation.CHEST].X, b.train[BodyLocation.CHEST].X
        )

    def test_pamap2_has_five_classes(self):
        dataset = make_pamap2(
            seed=0,
            train_windows_per_activity=4,
            val_windows_per_activity=2,
            n_train_subjects=2,
            n_eval_subjects=1,
        )
        assert dataset.n_classes == 5

    def test_activity_constants(self):
        assert len(MHEALTH_ACTIVITIES) == 6
        assert len(PAMAP2_ACTIVITIES) == 5


class TestWindows:
    def test_window_count(self):
        assert window_count(10.0, 2.5) == 4
        assert window_count(9.9, 2.5) == 3

    def test_start_times(self):
        np.testing.assert_allclose(window_start_times(3, 2.0), [0.0, 2.0, 4.0])

    def test_index_at(self):
        assert window_index_at(5.1, 2.5) == 2

    def test_index_negative_time(self):
        with pytest.raises(ValueError):
            window_index_at(-1.0, 2.5)

    def test_slice_windows(self):
        samples = np.arange(20).reshape(2, 10)
        parts = slice_windows(samples, window_size=4, hop=3)
        assert len(parts) == 3
        np.testing.assert_array_equal(parts[1], samples[:, 3:7])

    def test_slice_requires_2d(self):
        with pytest.raises(ValueError):
            slice_windows(np.zeros(10), 4, 2)
