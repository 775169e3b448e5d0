"""End-to-end experiment harnesses.

* :mod:`repro.sim.training` — trains the per-location CNNs, prunes the
  Baseline-2 variants, and seeds the rank table + confidence matrix;
* :mod:`repro.sim.experiment` — the slot-by-slot EH-WSN simulation that
  runs any :class:`~repro.core.policies.PolicySpec`;
* :mod:`repro.sim.baselines` — the fully-powered baseline evaluator;
* :mod:`repro.sim.completion` — the Fig. 1 motivation study;
* :mod:`repro.sim.personalization` — the Fig. 6 adaptation study;
* :mod:`repro.sim.sweep` — policy grids for Figs. 4/5 and Table I;
* :mod:`repro.sim.predcache` — the per-seed material shared by every
  policy and baseline of a sweep (timeline, windows, batched logits);
* :mod:`repro.sim.kernel` — the structure-of-arrays slot physics every
  run steps, with fault plans and observability folded into its lanes.
"""

from repro.sim.training import TrainedLocationModel, TrainedSensorBundle, TrainingConfig
from repro.sim.results import CompletionBreakdown, ExperimentResult, SlotRecord
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.kernel import (
    BatchGroup,
    SlotKernel,
    run_group_batch,
    run_policy_batch,
)
from repro.sim.predcache import PredictionCache, RunMaterial, build_run_material
from repro.sim.baselines import BaselineResult, evaluate_baseline, per_sensor_accuracy
from repro.sim.completion import CompletionExperiment, CompletionStudyResult
from repro.sim.personalization import PersonalizationExperiment, PersonalizationResult
from repro.sim.sweep import PolicySweep, SweepResult, paper_policy_grid

__all__ = [
    "TrainedLocationModel",
    "TrainedSensorBundle",
    "TrainingConfig",
    "CompletionBreakdown",
    "ExperimentResult",
    "SlotRecord",
    "HARExperiment",
    "SimulationConfig",
    "BatchGroup",
    "SlotKernel",
    "run_group_batch",
    "run_policy_batch",
    "PredictionCache",
    "RunMaterial",
    "build_run_material",
    "BaselineResult",
    "evaluate_baseline",
    "per_sensor_accuracy",
    "CompletionExperiment",
    "CompletionStudyResult",
    "PersonalizationExperiment",
    "PersonalizationResult",
    "PolicySweep",
    "SweepResult",
    "paper_policy_grid",
]
