"""Dataset containers and the one factory body.

:class:`LabeledWindows` is the in-memory format every model consumes:
an ``(n, channels, window)`` float32 array plus integer labels.
:class:`HARDataset` bundles the spec, the synthesizer and the subjects
with the train/val splits they produce (one :class:`LabeledWindows` per
body location, synthesized on first read), so downstream code
(training, rank tables, confidence seeding, streaming simulation) works
from a single object.  :func:`make_dataset` is the body of
``make_mhealth`` and ``make_pamap2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.activities import Activity
from repro.datasets.body import BodyLocation, DEPLOYMENT_ORDER
from repro.datasets.profiles import SignatureTable
from repro.datasets.subjects import SubjectProfile, sample_subjects
from repro.datasets.synthesis import SignalSynthesizer
from repro.errors import DatasetError
from repro.utils.rng import SeedLike, SeedSequenceFactory, as_generator


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

    def describe(self) -> Dict[str, Any]:
        """The spec's fields as plain JSON values (the signature factory,
        which is code, excluded)."""
        return {
            "name": self.name,
            "activities": [activity.value for activity in self.activities],
            "locations": [location.value for location in self.locations],
            "sample_rate_hz": self.sample_rate_hz,
            "window_size": self.window_size,
        }

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

    def class_counts(self, n_classes: int) -> np.ndarray:
        """Histogram of labels over ``n_classes`` bins."""
        return np.bincount(self.y, minlength=n_classes)


@dataclass
class HARDataset:
    """One dataset: its spec, synthesizer, subjects and train/val splits.

    The splits are synthesized on first read, each from its own
    label-derived stream of ``seed`` (``split/train``, ``split/val``), so
    their bytes do not depend on read order.  A warm experiment build
    forms its store key from stored split digests and never reads them
    (see :mod:`repro.store.bundles`).

    Attributes
    ----------
    spec:
        The static dataset description.
    synthesizer:
        The generator behind the data, reusable for streaming simulation.
    train_subjects / eval_subjects:
        Subject profiles of the train and the validation split.
    seed:
        Root seed the splits derive their streams from.
    train_windows_per_activity / val_windows_per_activity:
        Split sizes per activity and location.
    recipe:
        JSON-ready record of the factory call that built the dataset
        (spec fields, seed, split sizes, subject counts), which with the
        synthesis code determines the splits byte for byte.  ``None``
        when the caller supplied the spec: its signature factory is code
        no record covers.
    """

    spec: DatasetSpec
    synthesizer: SignalSynthesizer
    train_subjects: List[SubjectProfile]
    eval_subjects: List[SubjectProfile]
    seed: int
    train_windows_per_activity: int
    val_windows_per_activity: int
    recipe: Optional[Dict[str, Any]] = None
    _splits: Dict[str, Dict[BodyLocation, LabeledWindows]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name, count in (
            ("train_windows_per_activity", self.train_windows_per_activity),
            ("val_windows_per_activity", self.val_windows_per_activity),
        ):
            if count < 1:
                raise DatasetError(f"{name} must be >= 1, got {count}")
        if not self.train_subjects or not self.eval_subjects:
            raise DatasetError("train and eval subjects must be non-empty")

    @property
    def n_classes(self) -> int:
        """Number of activity classes."""
        return self.spec.n_classes

    @property
    def train(self) -> Mapping[BodyLocation, LabeledWindows]:
        """Training windows per location (synthesized on first read)."""
        return self._split("train", self.train_subjects, self.train_windows_per_activity)

    @property
    def val(self) -> Mapping[BodyLocation, LabeledWindows]:
        """Validation windows per location (synthesized on first read).

        They seed the rank table and the confidence matrix.
        """
        return self._split("val", self.eval_subjects, self.val_windows_per_activity)

    def _split(
        self, name: str, subjects: Sequence[SubjectProfile], windows_per_activity: int
    ) -> Mapping[BodyLocation, LabeledWindows]:
        split = self._splits.get(name)
        if split is None:
            split = self._splits[name] = synthesize_split(
                self.spec,
                self.synthesizer,
                subjects,
                windows_per_activity,
                SeedSequenceFactory(self.seed).generator(f"split/{name}"),
            )
        return split


def make_dataset(
    default_spec: Callable[[], DatasetSpec],
    seed: int,
    *,
    train_windows_per_activity: int,
    val_windows_per_activity: int,
    n_train_subjects: int,
    n_eval_subjects: int,
    spec: Optional[DatasetSpec],
) -> HARDataset:
    """The body of every dataset factory.

    Training and evaluation subjects are disjoint draws; the evaluation
    subjects generate the validation split.  Only a dataset built on
    ``default_spec()`` records its recipe.
    """
    recipe = None
    if spec is None:
        spec = default_spec()
        recipe = {
            "spec": spec.describe(),
            "seed": int(seed),
            "train_windows_per_activity": train_windows_per_activity,
            "val_windows_per_activity": val_windows_per_activity,
            "n_train_subjects": n_train_subjects,
            "n_eval_subjects": n_eval_subjects,
        }
    factory = SeedSequenceFactory(seed)
    return HARDataset(
        spec=spec,
        synthesizer=spec.make_synthesizer(),
        train_subjects=sample_subjects(
            n_train_subjects, factory.generator("subjects/train"), first_id=0
        ),
        eval_subjects=sample_subjects(
            n_eval_subjects,
            factory.generator("subjects/eval"),
            first_id=n_train_subjects,
        ),
        seed=int(seed),
        train_windows_per_activity=train_windows_per_activity,
        val_windows_per_activity=val_windows_per_activity,
        recipe=recipe,
    )


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
