"""Population-scale execution: cohorts through the mega-batched kernel.

:meth:`FleetRunner.run` is a thin front end over the journaled unit
executor :func:`repro.resilience.executor.run_units`, with one layer of
speed on each side of it:

1. **Kernel mega-batching** — every user of a shard contributes one
   :class:`~repro.sim.kernel.BatchGroup` (its own seed, traces, gains,
   capacitor sizing and material) to a single
   :func:`~repro.sim.kernel.run_group_batch` call, so the whole shard's
   slot physics advances as one structure-of-arrays kernel and its
   decisions as one columnar engine; each user's result comes back as
   columns, which :func:`user_metrics` reduces with array operations.  The base-config reference
   runs a shard needs and its worker has not memoized yet join the
   same call as extra groups.
2. **Sharded execution** — each ``[lo, hi)`` user range is one executor
   unit and one journal cell holding the shard's exact aggregate, run
   in-process or on a :class:`~repro.resilience.SupervisedPool` whose
   workers get the experiment from this process (inherited on fork,
   unpickled on spawn), and resumable after a crash.
3. **Streaming aggregation** — shards reduce to
   :class:`~repro.fleet.aggregate.FleetAggregate` tables whose merge is
   exact and order-invariant, so 1, 3 or N shards (or a resumed run)
   produce byte-identical cohort statistics in ``O(bins)`` memory.

Run material — the per-timeline windows and logits, computed row by row
as lanes complete — is memoized per ``(seed, dwell)`` pair by a
:class:`~repro.sim.predcache.PredictionCache`; :class:`CohortSpec` keeps
those pairs few by drawing timelines from a small seed pool and dwell
from a discrete distribution.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PolicySpec, origin_policy
from repro.errors import ConfigurationError, FleetError
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.spec import CohortSpec, UserSpec
from repro.obs import NULL_OBS, Observability
from repro.resilience.executor import (
    Unit,
    check_on_failure,
    each_cell,
    open_journal,
    run_units,
)
from repro.resilience.journal import SweepJournal, _digest, sweep_fingerprint
from repro.sim.experiment import HARExperiment
from repro.sim.kernel import BatchGroup, run_group_batch
from repro.sim.predcache import PredictionCache, RunMaterial
from repro.sim.results import ExperimentResult

__all__ = [
    "FleetResult",
    "FleetRunner",
    "default_metric_bounds",
    "user_metrics",
    "simulate_users",
    "shard_aggregate",
    "fleet_fingerprint",
    "shard_cell",
]

logger = logging.getLogger(__name__)

_JOURNAL_KIND = "fleet-journal"
FLEET_SCHEMA_VERSION = 1


def default_metric_bounds(
    n_slots: int, n_nodes: int
) -> Dict[str, Tuple[float, float]]:
    """Histogram ranges derived from the experiment shape.

    Every shard of a cohort derives the same bounds from the same
    ``(spec, experiment)``, which is what makes shard aggregates
    mergeable.  Energy ceilings are generous envelopes — outliers clamp
    into the edge bins while min/max/mean stay exact.
    """
    if n_slots < 1 or n_nodes < 1:
        raise ConfigurationError(
            f"need n_slots >= 1 and n_nodes >= 1, got {n_slots}, {n_nodes}"
        )
    events = float(n_slots * n_nodes)
    energy_hi = max(1e-6, 1e-3 * events)
    return {
        "event_accuracy": (0.0, 1.0),
        "overall_accuracy": (0.0, 1.0),
        "completion_rate": (0.0, 1.0),
        "completions": (0.0, events + 1.0),
        "harvested_j": (0.0, energy_hi),
        "consumed_j": (0.0, energy_hi),
        "comm_energy_j": (0.0, energy_hi),
        "accuracy_drop": (-1.0, 1.0),
    }


def user_metrics(
    result: ExperimentResult, reference: Optional[ExperimentResult] = None
) -> Dict[str, float]:
    """One user's scalar metrics for the cohort distributions.

    ``reference`` is the same ``(timeline, dwell, policy)`` run under
    the cohort's *base* config; ``accuracy_drop`` is how much this
    user's sampled deployment degrades event accuracy relative to it
    (negative = the sampled deployment did better).
    """
    stats = result.node_stats.values()
    event_accuracy = result.event_accuracy
    metrics = {
        "event_accuracy": float(event_accuracy),
        "overall_accuracy": float(result.overall_accuracy),
        "completion_rate": float(result.completion_rate),
        "completions": float(result.total_completions),
        "harvested_j": float(sum(s.harvested_j for s in stats)),
        "consumed_j": float(sum(s.consumed_j for s in stats)),
        "comm_energy_j": float(result.comm_energy_j),
    }
    if reference is not None:
        metrics["accuracy_drop"] = float(reference.event_accuracy - event_accuracy)
    return metrics


# ---------------------------------------------------------------------------
# shard execution
# ---------------------------------------------------------------------------


def _user_groups(
    users: Sequence[UserSpec],
    policies: Sequence[PolicySpec],
    materials: Sequence[RunMaterial],
) -> List[BatchGroup]:
    """One batch group per user: its seed, sampled config and material."""
    return [
        BatchGroup(policies=policies, seed=user.seed, config=user.config, material=material)
        for user, material in zip(users, materials)
    ]


def _fetch_materials(
    cache: PredictionCache, users: Sequence[UserSpec], obs: Optional[Observability] = None
) -> List[RunMaterial]:
    """Each user's material, fetched from ``cache`` once per distinct key.

    A user's material depends on its seed, slot count, dwell and model
    variant only (every user runs the default subject); within a cohort
    that is its ``(seed, dwell)`` :attr:`~repro.fleet.spec.UserSpec.material_key`.
    """
    fetched: Dict[tuple, RunMaterial] = {}
    materials = []
    for user in users:
        config = user.config
        key = (user.seed, config.n_windows, config.dwell_scale, config.use_pruned_models)
        material = fetched.get(key)
        if material is None:
            material = fetched[key] = cache.material(user.seed, config=config, obs=obs)
        materials.append(material)
    return materials


def simulate_users(
    experiment: HARExperiment,
    users: Sequence[UserSpec],
    policies: Sequence[PolicySpec],
    *,
    materials: Optional[Sequence[RunMaterial]] = None,
) -> List[List[ExperimentResult]]:
    """Run every policy for every user; one result row per user.

    The whole slice is one :func:`run_group_batch` call (one
    :class:`BatchGroup` per user), each row byte-identical to that
    user's ``HARExperiment.run`` of every policy.  ``materials`` holds
    each user's material (default: built by a fresh cache).
    """
    users = list(users)
    if not users:
        return []
    if materials is None:
        materials = _fetch_materials(PredictionCache(experiment), users)
    return run_group_batch(experiment, _user_groups(users, policies, materials))


def shard_aggregate(
    experiment: HARExperiment,
    spec: CohortSpec,
    policies: Sequence[PolicySpec],
    lo: int,
    hi: int,
    *,
    cache: Optional[PredictionCache] = None,
    references: Optional[Dict[Tuple[int, float], List[ExperimentResult]]] = None,
    obs: Optional[Observability] = None,
) -> FleetAggregate:
    """Simulate users ``[lo, hi)`` and reduce them to one aggregate.

    Each user's ``accuracy_drop`` compares it with its *reference*: the
    same timeline and material under the cohort's base config (dwell
    excepted — dwell shapes the timeline itself), which isolates the
    energy heterogeneity.  References are a pure function of
    ``(experiment, spec, policies)``, memoized per ``(seed, dwell)`` in
    ``references`` (one dict per worker).  The whole shard is one
    :func:`run_group_batch` call: one group per user, plus one per
    reference not memoized yet, and ``obs`` sees that batch.  Each
    ``(seed, dwell)`` material is fetched from ``cache`` once, for the
    runs and the reference on it.
    """
    users = list(spec.users(lo, hi))
    bounds = default_metric_bounds(
        spec.base.n_windows, len(experiment.dataset.spec.locations)
    )
    aggregate = FleetAggregate(bounds=bounds)
    aggregate.shards = 1
    cache = cache if cache is not None else PredictionCache(experiment)
    refs = references if references is not None else {}
    materials = _fetch_materials(cache, users, obs)
    missing: Dict[Tuple[int, float], RunMaterial] = {}
    for user, material in zip(users, materials):
        if user.material_key not in refs:
            missing.setdefault(user.material_key, material)
    groups = _user_groups(users, policies, materials)
    groups.extend(
        BatchGroup(
            policies=policies,
            seed=seed,
            config=replace(spec.base, dwell_scale=dwell),
            material=material,
        )
        for (seed, dwell), material in missing.items()
    )
    results = run_group_batch(experiment, groups, obs=obs)
    refs.update(zip(missing, results[len(users):]))
    for user, row in zip(users, results):
        reference_row = refs[user.material_key]
        aggregate.add_user(
            {
                policy.name: user_metrics(result, reference)
                for policy, result, reference in zip(policies, row, reference_row)
            }
        )
    return aggregate


# ---------------------------------------------------------------------------
# journal plumbing
# ---------------------------------------------------------------------------


def fleet_fingerprint(
    experiment: HARExperiment,
    spec: CohortSpec,
    policies: Sequence[PolicySpec],
    shard_size: int,
) -> str:
    """The digest keying a journal to one fleet run's inputs.

    Folds the sweep fingerprint (dataset + bundle provenance + the
    experiment's own config) together with the full cohort spec, the
    policy set and the shard layout — shard cells are only valid
    against the layout that produced them.
    """
    return _digest(
        {
            "kind": _JOURNAL_KIND,
            "schema_version": FLEET_SCHEMA_VERSION,
            "sweep": sweep_fingerprint(experiment),
            "spec": spec.to_dict(),
            "policies": [asdict(policy) for policy in policies],
            "shard_size": int(shard_size),
        }
    )


def shard_cell(lo: int, hi: int) -> str:
    """The journal key of one ``[lo, hi)`` user range."""
    return f"shard:{int(lo)}-{int(hi)}"


# ---------------------------------------------------------------------------
# the shard unit (module level so the pool pickles it by name)
# ---------------------------------------------------------------------------


class _FleetWorker:
    """One worker's cohort state: spec, policies, the material cache and
    the reference-run memo that amortize work across its shards."""

    def __init__(
        self,
        experiment: HARExperiment,
        spec: CohortSpec,
        policies: Sequence[PolicySpec],
    ) -> None:
        self.experiment = experiment
        self.spec = spec
        self.policies = list(policies)
        self.cache = PredictionCache(experiment)
        self.references: Dict[Tuple[int, float], List[ExperimentResult]] = {}


def _shard_unit(
    state: _FleetWorker, shards: Sequence[Tuple[int, int]], *, obs: Observability
) -> List[Any]:
    """Each ``[lo, hi)`` shard to an exact aggregate document."""
    return each_cell(
        lambda shard: shard_aggregate(
            state.experiment,
            state.spec,
            state.policies,
            *shard,
            cache=state.cache,
            references=state.references,
            obs=obs,
        ).to_dict(),
        shards,
    )


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass
class FleetResult:
    """Outcome of one :meth:`FleetRunner.run`."""

    aggregate: FleetAggregate
    spec: CohortSpec
    policy_names: List[str]
    elapsed_s: float
    #: Users actually simulated this call (journal hits excluded).
    users_simulated: int
    shards: int
    journal_hits: int = 0
    #: ``(cell, attempts, cause)`` per shard lost under ``salvage``.
    failed: List[Tuple[str, int, str]] = field(default_factory=list)

    @property
    def users(self) -> int:
        """Total cohort members covered (simulated + journal-resumed)."""
        return self.aggregate.users

    @property
    def lost_users(self) -> int:
        """Cohort members missing from the aggregate (failed shards)."""
        return self.spec.size - self.aggregate.users

    @property
    def users_per_second(self) -> float:
        """The headline throughput: simulated users per wall second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.users_simulated / self.elapsed_s

    def summary(self) -> str:
        """Human-readable report (headline + percentile tables)."""
        lines = [
            f"fleet: {self.users}/{self.spec.size} user(s) x "
            f"{len(self.policy_names)} policy(ies) in {self.elapsed_s:.2f} s "
            f"({self.users_per_second:,.0f} users/s simulated)",
            f"shards: {self.shards} total, {self.journal_hits} from journal, "
            f"{len(self.failed)} failed",
        ]
        for cell, attempts, cause in self.failed:
            lines.append(f"  LOST {cell} after {attempts} attempt(s): {cause}")
        lines.extend(self.aggregate.summary_lines())
        return "\n".join(lines)


class FleetRunner:
    """Drive a :class:`CohortSpec` through the mega-batched kernel.

    Parameters
    ----------
    experiment:
        The trained :class:`HARExperiment` supplying dataset, bundle
        and the *base* deployment config the cohort perturbs.
    spec:
        Who the users are.
    policies:
        Policy set every user runs (default: ``origin_policy(12)``).
    shard_size:
        Users per kernel mega-batch / journal cell / executor unit.
    """

    def __init__(
        self,
        experiment: HARExperiment,
        spec: CohortSpec,
        *,
        policies: Optional[Sequence[PolicySpec]] = None,
        shard_size: int = 256,
    ) -> None:
        if shard_size < 1:
            raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
        self.experiment = experiment
        self.spec = spec
        self.policies = list(policies) if policies is not None else [origin_policy(12)]
        if not self.policies:
            raise ConfigurationError("fleet needs at least one policy")
        self.shard_size = int(shard_size)

    def shards(self) -> List[Tuple[int, int]]:
        """The ``[lo, hi)`` user ranges, in index order."""
        return [
            (lo, min(lo + self.shard_size, self.spec.size))
            for lo in range(0, self.spec.size, self.shard_size)
        ]

    def fingerprint(self) -> str:
        """Journal fingerprint of this exact cohort/policy/layout."""
        return fleet_fingerprint(
            self.experiment, self.spec, self.policies, self.shard_size
        )

    def run(
        self,
        *,
        workers: int = 1,
        journal: Optional[str] = None,
        resume: bool = True,
        obs: Optional[Observability] = None,
        on_failure: str = "raise",
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> FleetResult:
        """Simulate the cohort and return its aggregate statistics.

        ``journal`` (a path) checkpoints each shard's exact aggregate:
        an interrupted run resumes from completed cells, and the merged
        output is byte-identical to an uninterrupted one.  ``workers >
        1`` runs the shards on a :class:`SupervisedPool`, ``workers=1``
        in this process.  At every worker count ``on_failure`` is
        ``"raise"`` (default — a shard that raises or exhausts its
        retries raises :class:`FleetError` after the other shards
        finished; in-process the first original exception is its
        ``__cause__``) or ``"salvage"`` (drop it, report it in
        ``FleetResult.failed``).
        """
        check_on_failure(on_failure)
        obs = obs if obs is not None else NULL_OBS
        shards = self.shards()
        started = time.perf_counter()
        if obs.enabled:
            obs.metrics.gauge("fleet.total_users").set(self.spec.size)
            obs.metrics.gauge("fleet.total_shards").set(len(shards))
            timeseries = obs.timeseries
            if timeseries is not None:
                timeseries.mark(
                    "fleet.run.started",
                    users=self.spec.size,
                    shards=len(shards),
                    policies=len(self.policies),
                )
                timeseries.sample(force=True)

        def progress(done: List[Tuple[int, int]]) -> None:
            # Journal hits never get here, so the progress counters (and
            # any watcher rate derived from them) count users simulated
            # this run, once per shard and parent-side: the totals are
            # the same for any worker layout.
            obs.metrics.inc("fleet.progress.users", sum(hi - lo for lo, hi in done))
            obs.metrics.inc("fleet.progress.shards", len(done))

        book: Optional[SweepJournal] = None
        if journal is not None:
            try:
                book = open_journal(journal, self.fingerprint(), resume=resume)
            except Exception as error:
                raise FleetError(
                    f"fleet journal {journal!r} could not be opened: {error}"
                ) from error
        try:
            done = run_units(
                [Unit(cells=(shard_cell(lo, hi),), items=((lo, hi),)) for lo, hi in shards],
                _shard_unit,
                _FleetWorker(self.experiment, self.spec, self.policies),
                journal=book,
                obs=obs,
                progress=progress,
                workers=workers,
                task_timeout_s=task_timeout_s,
                max_retries=max_retries,
                retry_backoff_s=retry_backoff_s,
            )
        finally:
            if book is not None and book is not journal:
                book.close()

        failed = [(lost.cell, lost.attempts, lost.cause) for lost in done.lost]
        if failed and on_failure == "raise":
            detail = "; ".join(
                f"{cell} after {attempts} attempt(s): {cause}"
                for cell, attempts, cause in failed
            )
            raise FleetError(
                f"{len(failed)} fleet shard(s) failed: {detail}"
            ) from done.first_error

        bounds = default_metric_bounds(
            self.spec.base.n_windows, len(self.experiment.dataset.spec.locations)
        )
        total = FleetAggregate(bounds=bounds)
        for lo, hi in shards:
            payload = done.results.get(shard_cell(lo, hi))
            if payload is not None:
                total.merge(FleetAggregate.from_dict(payload))
        elapsed = time.perf_counter() - started
        served = set(done.served)
        users_simulated = total.users - sum(
            hi - lo for lo, hi in shards if shard_cell(lo, hi) in served
        )
        if obs.enabled:
            obs.metrics.inc("fleet.users", users_simulated)
            obs.metrics.inc("fleet.shards", len(shards))
            obs.metrics.inc("fleet.journal.hit", len(served))
            obs.metrics.inc("fleet.failed_shards", len(failed))
            obs.metrics.timer("fleet.run").record(elapsed)
            timeseries = obs.timeseries
            if timeseries is not None:
                timeseries.mark(
                    "fleet.run.finished",
                    users=total.users,
                    failed=len(failed),
                    elapsed_s=round(elapsed, 3),
                )
                timeseries.sample(force=True)
        result = FleetResult(
            aggregate=total,
            spec=self.spec,
            policy_names=[policy.name for policy in self.policies],
            elapsed_s=elapsed,
            users_simulated=users_simulated,
            shards=len(shards),
            journal_hits=len(served),
            failed=failed,
        )
        logger.info(
            "fleet run: %d user(s), %d shard(s), %.2f s (%.0f users/s)",
            result.users,
            result.shards,
            result.elapsed_s,
            result.users_per_second,
        )
        return result
