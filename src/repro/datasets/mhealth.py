"""MHEALTH-like synthetic dataset.

The real MHEALTH dataset (Banos et al.) records 10 subjects with IMUs at
the chest, left ankle and right wrist; the paper evaluates six activities
from it.  :func:`make_mhealth` produces a synthetic stand-in with the
same sensor layout and class set — see ``DESIGN.md`` for why the
substitution preserves the behaviors Origin exploits.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.datasets.activities import Activity
from repro.datasets.base import DatasetSpec, HARDataset, make_dataset
from repro.datasets.profiles import mhealth_signatures

#: The six MHEALTH activities the paper reports (Figs. 2, 4, 5a, Table I).
MHEALTH_ACTIVITIES: Tuple[Activity, ...] = (
    Activity.WALKING,
    Activity.CLIMBING,
    Activity.CYCLING,
    Activity.RUNNING,
    Activity.JOGGING,
    Activity.JUMPING,
)


def mhealth_spec() -> DatasetSpec:
    """The static MHEALTH-like dataset description."""
    return DatasetSpec(
        name="MHEALTH",
        activities=MHEALTH_ACTIVITIES,
        signature_factory=mhealth_signatures,
    )


def make_mhealth(
    seed: int = 0,
    *,
    train_windows_per_activity: int = 140,
    val_windows_per_activity: int = 50,
    n_train_subjects: int = 14,
    n_eval_subjects: int = 2,
    spec: Optional[DatasetSpec] = None,
) -> HARDataset:
    """Build the full MHEALTH-like dataset.

    Training and evaluation subjects are disjoint draws; the evaluation
    subjects generate the validation split, which seeds the rank table
    and the confidence matrix.  See :func:`~repro.datasets.base.make_dataset`.
    """
    return make_dataset(
        mhealth_spec,
        seed,
        train_windows_per_activity=train_windows_per_activity,
        val_windows_per_activity=val_windows_per_activity,
        n_train_subjects=n_train_subjects,
        n_eval_subjects=n_eval_subjects,
        spec=spec,
    )
