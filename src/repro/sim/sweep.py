"""Policy grids for Figs. 4/5 and Table I.

The sweep is the hot path of every headline experiment: the full ladder
is 16 policies x ``n_seeds`` runs, plus both baselines per seed.
:meth:`PolicySweep.run` is a thin front end over the journaled unit
executor :func:`repro.resilience.executor.run_units`: it cuts the grid
into seed-major policy chunks, then one baseline unit per seed, runs
them in one executor pass and merges the results.

* A per-seed :class:`~repro.sim.predcache.PredictionCache` shares the
  timeline/window/logit precompute across every policy and both
  baselines of a seed, and each policy chunk runs as one batched
  :func:`~repro.sim.kernel.run_policy_batch` call, traced or not: one
  kernel and one columnar decision engine.  A chunk runs cell by cell
  only when its batch raises.  A seed's grid is split into chunks only
  for workers the baseline units leave idle, because a batch's
  per-slot cost barely grows with its rows (:meth:`PolicySweep.units`).
* ``run(..., workers=N)`` runs the units on a
  :class:`~repro.resilience.SupervisedPool` — per-task timeouts,
  bounded deterministic-backoff retries and ``BrokenProcessPool``
  recovery — whose workers get the experiment, trained bundle
  included, from this process: a forked worker inherits it and a
  spawned one unpickles it.
* ``run(journal=...)`` checkpoints every completed cell to a
  :class:`~repro.resilience.SweepJournal`, making interrupted sweeps
  resumable; ``run(on_failure="salvage")`` returns the merged surviving
  cells plus a :class:`~repro.resilience.DegradationReport`.

Sequential, parallel, resumed and chaos-perturbed sweeps produce
byte-identical results (asserted by the test suite, the CI benchmark
smoke and the committed benchmark golden digests).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.policies import (
    Baseline1,
    Baseline2,
    BaselineSpec,
    PolicySpec,
    aas_policy,
    aasr_policy,
    origin_policy,
    rr_policy,
)
from repro.datasets.activities import Activity
from repro.errors import ConfigurationError, ResilienceError
from repro.faults.stats import FaultStats
from repro.obs.observer import NULL_OBS, Observability
from repro.resilience.chaos import ChaosPlan
from repro.resilience.executor import (
    Unit,
    check_on_failure,
    each_cell,
    open_journal,
    run_units,
)
from repro.resilience.journal import (
    SweepJournal,
    baseline_cell,
    decode_baseline_result,
    decode_experiment_result,
    encode_baseline_result,
    encode_experiment_result,
    policy_cell,
    sweep_fingerprint,
)
from repro.resilience.report import DegradationReport, FailedCell
from repro.sim.baselines import BaselineResult, evaluate_baseline
from repro.sim.experiment import HARExperiment
from repro.sim.predcache import PredictionCache
from repro.sim.results import SLOT_COLUMNS, ExperimentResult
from repro.wsn.node import NodeStats

logger = logging.getLogger(__name__)

#: The fully-powered baselines every sweep reports, in report order.
_BASELINES: Tuple[BaselineSpec, ...] = (Baseline1, Baseline2)


def paper_policy_grid(rr_lengths: Sequence[int] = (3, 6, 9, 12)) -> List[PolicySpec]:
    """The full Fig. 5 ladder: RR / AAS / AASR / Origin at each length."""
    grid: List[PolicySpec] = []
    for rr_length in rr_lengths:
        grid.append(rr_policy(rr_length))
        grid.append(aas_policy(rr_length))
        grid.append(aasr_policy(rr_length))
        grid.append(origin_policy(rr_length))
    return grid


@dataclass
class SweepResult:
    """Results of a policy grid plus both baselines.

    ``degradation`` is attached whenever the supervised executor had to
    intervene (retries, pool restarts) or — in salvage mode — cells
    were lost; it is ``None`` for a clean, unperturbed sweep.
    """

    activities: List[Activity]
    policies: Dict[str, ExperimentResult] = field(default_factory=dict)
    baselines: Dict[str, BaselineResult] = field(default_factory=dict)
    degradation: Optional[DegradationReport] = None

    def policy(self, name: str) -> ExperimentResult:
        """Result of one policy by display name."""
        try:
            return self.policies[name]
        except KeyError as error:
            raise ConfigurationError(
                f"no policy named {name!r}; have {sorted(self.policies)}"
            ) from error

    def baseline(self, name: str) -> BaselineResult:
        """Result of one baseline by display name."""
        try:
            return self.baselines[name]
        except KeyError as error:
            raise ConfigurationError(
                f"no baseline named {name!r}; have {sorted(self.baselines)}"
            ) from error

    def accuracy_table(self) -> Dict[str, Dict[Activity, float]]:
        """``{policy/baseline name: {activity: accuracy}}``.

        Policies report classification-*event* accuracy (the paper's
        regime — see :attr:`ExperimentResult.event_accuracy`); for the
        fully-powered baselines every window is an event, so their
        window accuracy is the same quantity.
        """
        table: Dict[str, Dict[Activity, float]] = {}
        for name, result in self.policies.items():
            table[name] = result.per_activity_event_accuracy()
        for name, result in self.baselines.items():
            table[name] = result.per_activity_accuracy()
        return table

    def overall_accuracy(self) -> Dict[str, float]:
        """Overall (event) accuracy per configuration."""
        overall = {name: r.event_accuracy for name, r in self.policies.items()}
        overall.update(
            {name: r.overall_accuracy for name, r in self.baselines.items()}
        )
        return overall

    def mean_improvement(
        self, policy_name: str, baseline_name: str
    ) -> float:
        """Mean per-activity accuracy delta, in percentage points.

        This is how the paper states "RR12-Origin is 2.72 more accurate
        than Baseline-2" (Table I's vs columns, averaged).
        """
        policy_acc = self.policy(policy_name).per_activity_event_accuracy()
        base_acc = self.baseline(baseline_name).per_activity_accuracy()
        deltas = [
            (policy_acc[activity] - base_acc[activity]) * 100.0
            for activity in self.activities
        ]
        return float(np.mean(deltas))


class PolicySweep:
    """Runs a list of policies (plus baselines) on one experiment.

    Averaging over ``n_seeds`` independent runs (different timelines and
    traces, same trained models) stabilizes the reported accuracies.

    Parameters
    ----------
    experiment / n_seeds / include_baselines:
        What to sweep, how many seeds to merge, and whether to evaluate
        Baseline-1/2 too.
    """

    def __init__(
        self,
        experiment: HARExperiment,
        *,
        n_seeds: int = 1,
        include_baselines: bool = True,
    ) -> None:
        if n_seeds < 1:
            raise ConfigurationError(f"n_seeds must be >= 1, got {n_seeds}")
        self.experiment = experiment
        self.n_seeds = int(n_seeds)
        self.include_baselines = bool(include_baselines)

    def units(
        self,
        policies: Sequence[PolicySpec],
        *,
        seed: Optional[int] = None,
        workers: int = 1,
    ) -> List[Unit]:
        """The units ``run`` executes: seed-major policy chunks, then baselines.

        With baselines, one unit per seed runs both.  The workers left
        over once every baseline unit has one are shared among the
        seeds: each seed's policy list is split into that many
        contiguous chunks (at least one, at most one per policy).  So a
        seed's grid stays one kernel batch and one material build unless
        spare workers would otherwise idle.
        """
        base_seed = self.experiment.seed if seed is None else int(seed)
        seeds = [base_seed + offset for offset in range(self.n_seeds)]
        baselines = [
            Unit(tuple(baseline_cell(b.name, s) for b in _BASELINES), _BASELINES, (s,))
            for s in seeds
            if self.include_baselines
        ]
        if not policies:
            return baselines
        spare = workers - len(baselines)
        chunks = min(len(policies), max(1, math.ceil(spare / self.n_seeds)))
        step = math.ceil(len(policies) / chunks)
        units = []
        for run_seed in seeds:
            for start in range(0, len(policies), step):
                specs = tuple(policies[start:start + step])
                units.append(
                    Unit(
                        cells=tuple(policy_cell(spec, run_seed) for spec in specs),
                        items=specs,
                        args=(run_seed,),
                    )
                )
        return units + baselines

    def run(
        self,
        policies: Optional[Sequence[PolicySpec]] = None,
        *,
        seed: Optional[int] = None,
        workers: int = 1,
        obs: Optional[Observability] = None,
        journal: Optional[Union[str, SweepJournal]] = None,
        resume: bool = True,
        on_failure: str = "raise",
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        chaos: Optional[ChaosPlan] = None,
    ) -> SweepResult:
        """Run the grid; multi-seed runs are merged slot-wise.

        ``workers > 1`` fans the grid's units out across a
        :class:`~repro.resilience.SupervisedPool` of that many
        processes: a crashed, hung or poisoned worker is retried up to
        ``max_retries`` times (``task_timeout_s`` bounds each attempt,
        ``retry_backoff_s`` spaces resubmissions deterministically).
        ``workers=1`` runs the same units in this process.  Results are
        merged in policy-grid order either way, so the returned
        :class:`SweepResult` is identical for any worker count.  The
        baselines are trailing units (:meth:`units`) on their seed's
        material.

        ``journal`` (a path or an open
        :class:`~repro.resilience.SweepJournal`) checkpoints every
        completed cell as it finishes; with ``resume=True`` (default)
        cells already journaled by a previous — possibly crashed or
        interrupted — run of the *same* sweep are served from disk, and
        the resumed sweep is byte-identical to a clean one.
        ``resume=False`` discards a passed path's existing content.

        ``on_failure`` decides what happens to grid cells that raise or
        exhaust their retries, at every worker count: ``"raise"``
        (default) raises :class:`~repro.errors.ResilienceError` after
        the other units finished (completed cells stay journaled;
        in-process the first original exception is its ``__cause__``),
        ``"salvage"`` merges the surviving cells and attaches a
        :class:`~repro.resilience.DegradationReport` as
        ``result.degradation``.  A failing baseline always raises
        :class:`~repro.errors.ResilienceError`.

        ``chaos`` injects a :class:`~repro.resilience.ChaosPlan` of
        scheduled worker crashes and hangs into the pool — the
        test/bench harness for everything above.

        ``obs`` instruments the sweep.  In this process the runs record
        straight into it; a pool unit records into a fresh registry in
        its worker and the sweep folds the per-unit snapshots back in
        unit order, so counters and histograms merge to the sequential
        values (see :meth:`repro.obs.MetricsRegistry.deterministic_dict`);
        unit traces are re-sequenced into the sweep's tracer in the same
        order.  Supervision incidents land in ``resilience.*`` counters
        (nothing is recorded on the clean path).
        """
        check_on_failure(on_failure)
        policies = list(policies) if policies is not None else paper_policy_grid()
        base_seed = self.experiment.seed if seed is None else int(seed)
        seeds = [base_seed + offset for offset in range(self.n_seeds)]
        obs = obs if obs is not None else NULL_OBS
        book = (
            open_journal(journal, sweep_fingerprint(self.experiment), resume=resume)
            if journal is not None
            else None
        )
        units = self.units(policies, seed=base_seed, workers=workers)
        owners = {
            cell: (spec, unit.args[0])
            for unit in units
            for cell, spec in zip(unit.cells, unit.items)
        }

        def progress(done: List[Any]) -> None:
            cells = sum(isinstance(spec, PolicySpec) for spec in done)
            if cells:
                obs.metrics.inc("sweep.progress.cells", cells)

        result = SweepResult(activities=list(self.experiment.dataset.spec.activities))
        if obs.enabled:
            obs.metrics.gauge("sweep.total_cells").set(len(policies) * self.n_seeds)
        try:
            with obs.timed("sweep.run"):
                grid = run_units(
                    units, _sweep_unit, _SweepWorker(self.experiment),
                    journal=book, encode=_encode_result,
                    decode=_decode_result, obs=obs, progress=progress,
                    workers=workers, task_timeout_s=task_timeout_s,
                    max_retries=max_retries, retry_backoff_s=retry_backoff_s,
                    chaos=chaos,
                )
                runs: Dict[str, List[ExperimentResult]] = {spec.name: [] for spec in policies}
                for cell, (spec, _) in owners.items():  # seed-major
                    if isinstance(spec, PolicySpec) and cell in grid.results:
                        runs[spec.name].append(grid.results[cell])
                for name, surviving in runs.items():
                    if surviving:
                        result.policies[name] = _merge_runs(surviving)

                lost_policies = [c for c in grid.lost if isinstance(owners[c.cell][0], PolicySpec)]
                lost_baselines = [c for c in grid.lost if c not in lost_policies]
                failed = [
                    FailedCell(
                        cell=lost.cell,
                        seed=owners[lost.cell][1],
                        attempts=lost.attempts,
                        cause=lost.cause,
                        policy=owners[lost.cell][0].name,
                    )
                    for lost in lost_policies
                ]
                incidents = grid.incidents
                if failed or any(incidents.values()):
                    result.degradation = DegradationReport(
                        total_cells=len(policies) * self.n_seeds,
                        failed=failed,
                        retries=incidents.get("retries", 0),
                        timeouts=incidents.get("timeouts", 0),
                        crashes=incidents.get("crashes", 0),
                        pool_restarts=incidents.get("pool_restarts", 0),
                    )
                if failed and on_failure == "raise":
                    raise ResilienceError(result.degradation.summary()) from grid.first_error
                if lost_baselines:
                    lost = "; ".join(f"{c.cell}: {c.cause}" for c in lost_baselines)
                    cause = next((c.error for c in lost_baselines if c.error is not None), None)
                    raise ResilienceError(f"baseline(s) failed: {lost}") from cause

                if self.include_baselines:
                    for baseline in _BASELINES:
                        result.baselines[baseline.name] = _merge_baselines(
                            [grid.results[baseline_cell(baseline.name, s)] for s in seeds]
                        )
        finally:
            if book is not None and book is not journal:
                book.close()
        return result


# ---------------------------------------------------------------------------
# units (module level so the pool pickles them by name)
# ---------------------------------------------------------------------------


class _SweepWorker:
    """One worker's sweep state: the experiment and its prediction cache."""

    def __init__(self, experiment: HARExperiment) -> None:
        self.experiment = experiment
        self.cache = PredictionCache(experiment)


def _sweep_unit(
    state: _SweepWorker,
    specs: Sequence[Union[PolicySpec, BaselineSpec]],
    seed: int,
    *,
    obs: Observability,
) -> List[Any]:
    """One seed's chunk of policies, or its baselines, on the seed's shared material.

    A policy chunk runs as one batched kernel call, observed or not; if
    the batch raises, its cells run one by one so each cell's error is
    caught alone.  Baselines ask for the same material as the seed's
    policies, so in a worker that already ran them they reuse it.  The
    grid reads most of a seed's rows and the baselines all of them, so
    the unit completes the material first: one predict per node.
    """
    from repro.sim.kernel import run_policy_batch

    experiment = state.experiment
    material = state.cache.material(seed, obs=obs).complete(obs=obs)
    if isinstance(specs[0], BaselineSpec):
        return each_cell(
            lambda baseline: evaluate_baseline(
                experiment.dataset, experiment.bundle, baseline, seed=seed,
                n_windows=experiment.config.n_windows,
                dwell_scale=experiment.config.dwell_scale, material=material,
            ),
            specs,
        )
    try:
        return run_policy_batch(experiment, specs, seed, material=material, obs=obs)
    except Exception as error:
        logger.warning(
            "kernel batch failed for seed %d (%s); running its cells one by one",
            seed, error,
        )
    return each_cell(
        lambda spec: experiment.run(spec, seed=seed, material=material, obs=obs),
        specs,
    )


def _encode_result(result: Union[ExperimentResult, BaselineResult]) -> Dict[str, Any]:
    if isinstance(result, BaselineResult):
        return encode_baseline_result(result)
    return encode_experiment_result(result)


def _decode_result(payload: Dict[str, Any]) -> Union[ExperimentResult, BaselineResult]:
    if payload["type"] == "baseline":
        return decode_baseline_result(payload)
    return decode_experiment_result(payload)


# ---------------------------------------------------------------------------
# multi-seed merging
# ---------------------------------------------------------------------------


def _merge_runs(runs: List[ExperimentResult]) -> ExperimentResult:
    """Concatenate multi-seed runs into one result.

    Slot columns concatenate (each run's slot indices start at 0);
    per-node counters sum across runs; fault accounting (when any run
    carries it) merges into one :class:`~repro.faults.stats.FaultStats`.
    """
    comm_energy_j = 0.0
    confidence_updates = 0
    for run in runs:
        comm_energy_j += run.comm_energy_j
        confidence_updates += run.confidence_updates
    node_ids = sorted({node_id for run in runs for node_id in run.node_stats})
    faulted = [run.fault_stats for run in runs if run.fault_stats is not None]
    return ExperimentResult(
        policy_name=runs[0].policy_name,
        activities=runs[0].activities,
        **{name: np.concatenate([getattr(run, name) for run in runs]) for name in SLOT_COLUMNS},
        active_nodes=tuple(ids for run in runs for ids in run.active_nodes),
        node_stats={
            node_id: NodeStats.merged(
                run.node_stats[node_id] for run in runs if node_id in run.node_stats
            )
            for node_id in node_ids
        },
        comm_energy_j=comm_energy_j,
        confidence_updates=confidence_updates,
        fault_stats=FaultStats.merged(faulted) if faulted else None,
    )


def _merge_baselines(runs: List[BaselineResult]) -> BaselineResult:
    """Concatenate multi-seed baseline runs."""
    return BaselineResult(
        baseline_name=runs[0].baseline_name,
        activities=runs[0].activities,
        true_labels=np.concatenate([run.true_labels for run in runs]),
        predicted_labels=np.concatenate([run.predicted_labels for run in runs]),
    )
