"""Shared fixtures.

Heavy artifacts (trained bundles) are session-scoped and deliberately
tiny: a few training windows and epochs are enough to exercise every
code path while keeping the whole suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.mhealth import make_mhealth
from repro.datasets.pamap2 import make_pamap2
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.training import TrainedSensorBundle, TrainingConfig


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def make_tiny_dataset():
    """A small but complete MHEALTH-like dataset."""
    return make_mhealth(
        seed=11,
        train_windows_per_activity=14,
        val_windows_per_activity=8,
        test_windows_per_activity=8,
        n_train_subjects=3,
        n_eval_subjects=1,
    )


def train_tiny_bundle(dataset):
    """Trained per-location models + tables (fast training recipe)."""
    config = TrainingConfig(
        epochs=6,
        batch_size=16,
        early_stopping_patience=6,
        finetune_epochs=1,
        final_finetune_epochs=2,
        finetune_every=6,
    )
    return TrainedSensorBundle.train(dataset, budget_j=160e-6, seed=5, config=config)


def make_tiny_pamap2_dataset():
    """A micro PAMAP2-like dataset (the second dataset of identity checks)."""
    return make_pamap2(
        seed=7,
        train_windows_per_activity=8,
        val_windows_per_activity=5,
        test_windows_per_activity=5,
        n_train_subjects=2,
        n_eval_subjects=1,
    )


def train_tiny_pamap2_bundle(dataset):
    """The micro PAMAP2 bundle (an even faster training recipe)."""
    config = TrainingConfig(
        epochs=2,
        batch_size=16,
        early_stopping_patience=2,
        finetune_epochs=1,
        final_finetune_epochs=1,
        finetune_every=8,
    )
    return TrainedSensorBundle.train(dataset, budget_j=160e-6, seed=4, config=config)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but complete MHEALTH-like dataset."""
    return make_tiny_dataset()


@pytest.fixture(scope="session")
def tiny_bundle(tiny_dataset):
    """Trained per-location models + tables (fast training recipe)."""
    return train_tiny_bundle(tiny_dataset)


@pytest.fixture(scope="session")
def tiny_pamap2_dataset():
    return make_tiny_pamap2_dataset()


@pytest.fixture(scope="session")
def tiny_pamap2_bundle(tiny_pamap2_dataset):
    return train_tiny_pamap2_bundle(tiny_pamap2_dataset)


@pytest.fixture(scope="session")
def tiny_experiment(tiny_dataset, tiny_bundle):
    """A ready-to-run EH-WSN experiment with a short horizon."""
    return HARExperiment(
        tiny_dataset,
        tiny_bundle,
        config=SimulationConfig(n_windows=60),
        seed=3,
    )


@pytest.fixture(scope="session")
def per_cell_sweep():
    """A sweep's reference built cell by cell, with no shared material.

    Every ``(policy, seed)`` cell is its own ``HARExperiment.run`` (extra
    keywords such as ``faults=`` pass through), merged across seeds the
    way ``PolicySweep`` merges them; both baselines are evaluated
    directly per seed.
    """
    from repro.core.policies import Baseline1, Baseline2
    from repro.sim.baselines import evaluate_baseline
    from repro.sim.sweep import SweepResult, _merge_baselines, _merge_runs

    def build(experiment, policies, *, n_seeds, seed=None, **run_kwargs):
        base = experiment.seed if seed is None else seed
        seeds = [base + offset for offset in range(n_seeds)]
        result = SweepResult(activities=list(experiment.dataset.spec.activities))
        for spec in policies:
            result.policies[spec.name] = _merge_runs(
                [experiment.run(spec, seed=s, **run_kwargs) for s in seeds]
            )
        for baseline in (Baseline1, Baseline2):
            result.baselines[baseline.name] = _merge_baselines(
                [
                    evaluate_baseline(
                        experiment.dataset,
                        experiment.bundle,
                        baseline,
                        n_windows=experiment.config.n_windows,
                        seed=s,
                        dwell_scale=experiment.config.dwell_scale,
                    )
                    for s in seeds
                ]
            )
        return result

    return build
