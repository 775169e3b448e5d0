"""PAMAP2-like synthetic dataset.

The real PAMAP2 dataset (Reiss & Stricker) uses IMUs on the hand, chest
and ankle; the paper evaluates five activities from it (Fig. 5b drops
jogging).  The hand sensor maps onto this package's wrist location.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.datasets.activities import Activity
from repro.datasets.base import DatasetSpec, HARDataset, make_dataset
from repro.datasets.profiles import pamap2_signatures

#: The five PAMAP2 activities the paper reports (Fig. 5b).
PAMAP2_ACTIVITIES: Tuple[Activity, ...] = (
    Activity.WALKING,
    Activity.CLIMBING,
    Activity.CYCLING,
    Activity.RUNNING,
    Activity.JUMPING,
)


def pamap2_spec() -> DatasetSpec:
    """The static PAMAP2-like dataset description."""
    return DatasetSpec(
        name="PAMAP2",
        activities=PAMAP2_ACTIVITIES,
        signature_factory=pamap2_signatures,
    )


def make_pamap2(
    seed: int = 0,
    *,
    train_windows_per_activity: int = 140,
    val_windows_per_activity: int = 50,
    n_train_subjects: int = 14,
    n_eval_subjects: int = 2,
    spec: Optional[DatasetSpec] = None,
) -> HARDataset:
    """Build the full PAMAP2-like dataset (same recipe as MHEALTH; see
    :func:`~repro.datasets.base.make_dataset`)."""
    return make_dataset(
        pamap2_spec,
        seed,
        train_windows_per_activity=train_windows_per_activity,
        val_windows_per_activity=val_windows_per_activity,
        n_train_subjects=n_train_subjects,
        n_eval_subjects=n_eval_subjects,
        spec=spec,
    )
