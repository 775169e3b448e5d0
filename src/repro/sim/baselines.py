"""Fully-powered baseline evaluation (paper §IV-C).

Baseline-1 (unpruned DNNs) and Baseline-2 (energy-aware pruned DNNs)
both run on steady power: every sensor classifies every window and the
host takes a naive majority vote.  To compare apples to apples with the
EH policy runs, the evaluator classifies the seed's run material: the
Markov activity timeline, subject and sensed windows that
:meth:`repro.sim.experiment.HARExperiment.run` consumes for the seed.
A baseline reads every row, and reading the material's arrays completes
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.policies import BaselineSpec
from repro.datasets.activities import Activity
from repro.datasets.base import HARDataset
from repro.datasets.subjects import SubjectProfile
from repro.datasets.synthesis import StyleWobble
from repro.errors import SimulationError
from repro.sim.predcache import RunMaterial, build_run_material, default_subject
from repro.sim.training import TrainedSensorBundle
from repro.utils.rng import SeedSequenceFactory


@dataclass
class BaselineResult:
    """Outcome of one fully-powered baseline run."""

    baseline_name: str
    activities: List[Activity]
    true_labels: np.ndarray
    predicted_labels: np.ndarray

    @property
    def overall_accuracy(self) -> float:
        """Fraction of windows classified correctly."""
        return float((self.true_labels == self.predicted_labels).mean())

    def per_activity_accuracy(self) -> Dict[Activity, float]:
        """Accuracy restricted to windows of each activity."""
        report = {}
        for label, activity in enumerate(self.activities):
            mask = self.true_labels == label
            report[activity] = (
                float((self.predicted_labels[mask] == label).mean())
                if mask.any()
                else float("nan")
            )
        return report


def _majority_vote(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """Naive majority vote over ``votes`` (sensors x windows).

    Ties resolve to the lowest label (fixed, unbiased across a run).
    """
    counts = (votes[:, None, :] == np.arange(n_classes)[:, None]).sum(axis=0)
    return counts.argmax(axis=0)


def per_sensor_accuracy(
    dataset: HARDataset,
    bundle: TrainedSensorBundle,
    *,
    pruned: bool = True,
    windows_per_class: int = 60,
    seed: int = 0,
    subject: Optional[SubjectProfile] = None,
) -> tuple:
    """Fig. 2's data: per-location per-activity accuracy + majority vote.

    Uses a *balanced, aligned* evaluation set: ``windows_per_class``
    windows per activity, with the execution-style wobble shared across
    locations per window (all sensors observe the same instant).
    Returns ``(per_sensor, majority)`` where ``per_sensor`` maps each
    location label to ``{activity: accuracy}`` and ``majority`` is the
    naive-majority ensemble's ``{activity: accuracy}``.
    """
    if windows_per_class < 1:
        raise SimulationError(f"windows_per_class must be >= 1, got {windows_per_class}")
    factory = SeedSequenceFactory(seed)
    spec = dataset.spec
    subject = subject or default_subject(dataset)
    labels = [
        activity for activity in spec.activities for _ in range(windows_per_class)
    ]
    true = np.array([spec.label_of(activity) for activity in labels], dtype=np.int64)
    style_rng = factory.generator("style")
    styles = [StyleWobble.sample(style_rng) for _ in labels]

    def accuracy(name: str, predicted: np.ndarray) -> Dict[Activity, float]:
        result = BaselineResult(name, list(spec.activities), true, predicted)
        return result.per_activity_accuracy()

    models = bundle.models(pruned=pruned)
    votes = []
    per_sensor: Dict[str, Dict[Activity, float]] = {}
    for location in spec.locations:
        node_id = bundle.node_id_of(location)
        rng = factory.generator(f"windows/{location.value}")
        batch = dataset.synthesizer.stream(labels, location, subject, rng, styles=styles)
        votes.append(models[node_id].predict(batch))
        per_sensor[location.label] = accuracy(location.label, votes[-1])
    return per_sensor, accuracy("majority", _majority_vote(np.stack(votes), spec.n_classes))


def evaluate_baseline(
    dataset: HARDataset,
    bundle: TrainedSensorBundle,
    baseline: BaselineSpec,
    *,
    n_windows: int = 600,
    seed: int = 0,
    subject: Optional[SubjectProfile] = None,
    dwell_scale: float = 1.0,
    material: Optional[RunMaterial] = None,
) -> BaselineResult:
    """Run one baseline over a simulated activity timeline.

    Classifies the :class:`~repro.sim.predcache.RunMaterial` of the
    seed, so the baseline sees exactly the timeline and windows the
    policies saw.  Pass ``material`` when the caller already has it
    (built from ``bundle``, for any model variant); without one, the
    material is built with the baseline's variant.
    """
    if n_windows < 1:
        raise SimulationError(f"n_windows must be >= 1, got {n_windows}")
    spec = dataset.spec
    subject = subject or default_subject(dataset)
    params = dict(seed=seed, n_windows=n_windows, dwell_scale=dwell_scale, subject=subject)
    if material is None:
        material = build_run_material(dataset, bundle, use_pruned_models=baseline.pruned, **params)
    else:
        material.check_compatible(use_pruned_models=material.use_pruned_models, **params)

    # ``Sequential.predict`` is the argmax of the same logits; reading
    # the material's arrays completes it.
    if baseline.pruned == material.use_pruned_models:
        labels = {node_id: rows.argmax(axis=1) for node_id, rows in material.logits.items()}
    else:
        models = bundle.models(pruned=baseline.pruned)
        labels = {
            node_id: models[node_id].predict(windows)
            for node_id, windows in material.windows.items()
        }
    votes = np.stack([labels[bundle.node_id_of(location)] for location in spec.locations])

    return BaselineResult(
        baseline_name=baseline.name,
        activities=list(spec.activities),
        true_labels=material.true_labels,
        predicted_labels=_majority_vote(votes, spec.n_classes),
    )
