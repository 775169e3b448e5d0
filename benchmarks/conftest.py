"""Benchmark fixtures.

Two fully calibrated experiments (MHEALTH-like, PAMAP2-like) are built
once per session — training six CNNs takes under a minute each — and
shared by every bench.  Each bench writes its rendered figure/table to
``benchmarks/results/<name>.txt`` so a bench run leaves the reproduced
paper artifacts on disk (EXPERIMENTS.md is compiled from them), plus a
``<name>.metrics.json`` snapshot of the session's observability
registry (timers, counters, histograms accumulated so far).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.obs.observer import Observability
from repro.obs.trace import NULL_TRACER
from repro.sim.experiment import HARExperiment, SimulationConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Shared evaluation horizon and seeds (averaged for stability).
N_WINDOWS = 500
SEEDS = (11, 12, 13, 14)
DWELL = 5.0

#: One metrics-only observability bundle shared by every bench of the
#: session; its registry snapshot is written next to each result.
SESSION_OBS = Observability(tracer=NULL_TRACER)


def standard_config() -> SimulationConfig:
    return SimulationConfig(n_windows=N_WINDOWS, dwell_scale=DWELL)


@pytest.fixture(scope="session")
def mhealth_exp() -> HARExperiment:
    return HARExperiment.standard_mhealth(seed=7, config=standard_config())


@pytest.fixture(scope="session")
def pamap2_exp() -> HARExperiment:
    return HARExperiment.standard_pamap2(seed=7, config=standard_config())


@pytest.fixture(scope="session")
def bench_obs() -> Observability:
    """The session-wide observability bundle (metrics only, no trace)."""
    return SESSION_OBS


@pytest.fixture(scope="session")
def save_result():
    """Writer: persist a rendered figure (+ metrics snapshot), echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def write(name: str, text: str) -> None:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        SESSION_OBS.export(metrics_path=os.path.join(RESULTS_DIR, f"{name}.metrics.json"))
        print("\n" + text)

    return write


def averaged_event_accuracy(experiment, spec, seeds=SEEDS, obs=SESSION_OBS):
    """Mean event accuracy of a policy over the shared seeds."""
    runs = [
        experiment.run(
            spec,
            seed=seed,
            subject=experiment.dataset.eval_subjects[seed % 2],
            obs=obs,
        )
        for seed in seeds
    ]
    return float(np.mean([run.event_accuracy for run in runs])), runs


def averaged_per_activity(runs):
    """Mean per-activity event accuracy across runs."""
    activities = runs[0].activities
    out = {}
    for activity in activities:
        values = [run.per_activity_event_accuracy()[activity] for run in runs]
        values = [v for v in values if v == v]  # drop NaNs
        out[activity] = float(np.mean(values)) if values else float("nan")
    return out
