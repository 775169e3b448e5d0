"""Dataset containers.

:class:`LabeledWindows` is the in-memory format every model consumes:
an ``(n, channels, window)`` float32 array plus integer labels.
:class:`HARDataset` bundles one :class:`LabeledWindows` split per body
location together with the spec and synthesizer that produced them, so
downstream code (training, rank tables, confidence seeding, streaming
simulation) works from a single object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.datasets.activities import Activity
from repro.datasets.body import BodyLocation, DEPLOYMENT_ORDER
from repro.datasets.profiles import SignatureTable
from repro.datasets.subjects import SubjectProfile
from repro.datasets.synthesis import SignalSynthesizer
from repro.errors import DatasetError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset variant.

    Attributes
    ----------
    name:
        Human-readable dataset name (``"MHEALTH"`` / ``"PAMAP2"``).
    activities:
        Ordered class set; the order defines integer labels.
    locations:
        Sensor placements, in deployment (round-robin) order.
    sample_rate_hz / window_size:
        IMU sampling parameters shared by all sensors.
    signature_factory:
        Zero-argument callable producing the calibrated
        :class:`~repro.datasets.profiles.SignatureTable`.
    """

    name: str
    activities: Tuple[Activity, ...]
    signature_factory: Callable[[], SignatureTable]
    locations: Tuple[BodyLocation, ...] = DEPLOYMENT_ORDER
    sample_rate_hz: float = 50.0
    window_size: int = 128

    def __post_init__(self) -> None:
        if len(self.activities) < 2:
            raise DatasetError("a dataset needs at least two activities")
        if len(set(self.activities)) != len(self.activities):
            raise DatasetError("activities must be unique")
        if len(self.locations) < 1:
            raise DatasetError("a dataset needs at least one sensor location")

    @property
    def n_classes(self) -> int:
        """Number of activity classes."""
        return len(self.activities)

    @property
    def window_duration_s(self) -> float:
        """Duration of one window in seconds."""
        return self.window_size / self.sample_rate_hz

    def label_of(self, activity: Activity) -> int:
        """Integer label of ``activity`` in this dataset."""
        try:
            return self.activities.index(activity)
        except ValueError as error:
            raise DatasetError(f"{activity} is not part of dataset {self.name}") from error

    def activity_of(self, label: int) -> Activity:
        """Inverse of :meth:`label_of`."""
        if not 0 <= label < self.n_classes:
            raise DatasetError(f"label {label} out of range for {self.name}")
        return self.activities[label]

    def make_synthesizer(self) -> SignalSynthesizer:
        """A synthesizer configured for this dataset."""
        return SignalSynthesizer(
            self.signature_factory(),
            sample_rate_hz=self.sample_rate_hz,
            window_size=self.window_size,
        )


@dataclass
class LabeledWindows:
    """A set of labeled IMU windows for one sensor location."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 3:
            raise DatasetError(f"X must be (n, channels, window), got shape {self.X.shape}")
        if self.y.ndim != 1 or self.y.shape[0] != self.X.shape[0]:
            raise DatasetError(
                f"y must be 1-D with {self.X.shape[0]} entries, got shape {self.y.shape}"
            )

    def __len__(self) -> int:
        return int(self.X.shape[0])

    def shuffled(self, seed: SeedLike = None) -> "LabeledWindows":
        """A shuffled copy (X and y permuted together)."""
        rng = as_generator(seed)
        order = rng.permutation(len(self))
        return LabeledWindows(self.X[order], self.y[order])

    def subset(self, indices: Sequence[int]) -> "LabeledWindows":
        """Rows at ``indices``."""
        idx = np.asarray(indices, dtype=int)
        return LabeledWindows(self.X[idx], self.y[idx])

    def of_class(self, label: int) -> "LabeledWindows":
        """Only the rows labeled ``label``."""
        mask = self.y == label
        return LabeledWindows(self.X[mask], self.y[mask])

    def class_counts(self, n_classes: int) -> np.ndarray:
        """Histogram of labels over ``n_classes`` bins."""
        return np.bincount(self.y, minlength=n_classes)

    def concat(self, other: "LabeledWindows") -> "LabeledWindows":
        """Row-wise concatenation."""
        if self.X.shape[1:] != other.X.shape[1:]:
            raise DatasetError(
                f"window shapes differ: {self.X.shape[1:]} vs {other.X.shape[1:]}"
            )
        return LabeledWindows(
            np.concatenate([self.X, other.X]), np.concatenate([self.y, other.y])
        )


@dataclass
class HARDataset:
    """All splits of one dataset, per sensor location.

    Attributes
    ----------
    spec:
        The static dataset description.
    train / val / test:
        ``location -> LabeledWindows`` mappings.  ``val`` seeds the rank
        table and the confidence matrix; ``test`` is only used for final
        accuracy.
    synthesizer:
        The generator behind the data, reusable for streaming simulation.
    train_subjects / eval_subjects:
        Subject profiles used for the respective splits.
    """

    spec: DatasetSpec
    train: Mapping[BodyLocation, LabeledWindows]
    val: Mapping[BodyLocation, LabeledWindows]
    test: Mapping[BodyLocation, LabeledWindows]
    synthesizer: SignalSynthesizer
    train_subjects: List[SubjectProfile] = field(default_factory=list)
    eval_subjects: List[SubjectProfile] = field(default_factory=list)

    def __post_init__(self) -> None:
        for split_name, split in (("train", self.train), ("val", self.val), ("test", self.test)):
            for location in self.spec.locations:
                if location not in split:
                    raise DatasetError(f"{split_name} split is missing location {location}")

    @property
    def n_classes(self) -> int:
        """Number of activity classes."""
        return self.spec.n_classes

    def split(self, name: str) -> Mapping[BodyLocation, LabeledWindows]:
        """Access a split by name (``"train" | "val" | "test"``)."""
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError as error:
            raise DatasetError(f"unknown split {name!r}") from error


def synthesize_split(
    spec: DatasetSpec,
    synthesizer: SignalSynthesizer,
    subjects: Sequence[SubjectProfile],
    windows_per_activity: int,
    seed: SeedLike,
) -> Dict[BodyLocation, LabeledWindows]:
    """Generate one split: balanced classes, subjects interleaved.

    For each location, ``windows_per_activity`` windows are drawn per
    activity, cycling through ``subjects`` so every subject contributes.
    """
    if windows_per_activity < 1:
        raise DatasetError(f"windows_per_activity must be >= 1, got {windows_per_activity}")
    if not subjects:
        raise DatasetError("subjects must be non-empty")
    rng = as_generator(seed)
    labels = np.repeat(np.arange(len(spec.activities)), windows_per_activity)
    split: Dict[BodyLocation, LabeledWindows] = {}
    for location in spec.locations:
        windows = [
            synthesizer.interleaved(activity, location, subjects, windows_per_activity, rng)
            for activity in spec.activities
        ]
        split[location] = LabeledWindows(np.concatenate(windows), labels).shuffled(rng)
    return split
