"""Structure-of-arrays vectorized per-slot simulation kernel.

The ROADMAP's hot path is the per-slot energy/harvest/progress update:
``SensorNode.harvest`` + ``SensorNode._active_slot`` +
``NonVolatileProcessor.execute_burst``, stepped slot by slot in python
for every run of a sweep.  This module rewrites that physics as a
structure-of-arrays scan: one *lane* per (run, node) pair, one numpy
statement per capacitor/NVP rule, advancing every lane of a batch in
lockstep over a shared ``(n_lanes, n_slots)`` harvest timeline.

Two stages:

* :func:`run_node_schedule` (stage 1) drives a single node through a
  fixed activation schedule — the python slot loop replaced by the
  kernel, producing the same :class:`~repro.wsn.node.InferenceOutcome`
  stream and :class:`~repro.wsn.node.NodeStats`.
* :func:`run_policy_batch` (stage 2) advances *many runs at once*: every
  policy of a sweep cell shares one batched timeline, while the
  schedulers, host devices, voting and confidence matrices remain the
  real python objects, fed per-run from the lane state.

Byte-identity contract
----------------------
The kernel performs **elementwise-identical IEEE float64 operations in
the same per-lane order** as the scalar path (deposit → leak → idle →
stale-abort → sense → burst → complete/wipe → comm draw), so results are
byte-identical — not merely close — to ``HARExperiment.run``'s scalar
loop.  This is asserted by tests and the ``bench_perf_sweep --kernel``
gate.  Two consequences shape the design:

* The slot loop itself stays in python: capacitor clamping makes each
  slot's state a two-sided ``min``/``max`` function of the previous
  slot's, which has no closed form that reproduces float ordering.
  Vectorization happens across *lanes*, not slots.
* Everything with cross-node or cross-slot feedback (scheduling, host
  recall, voting, confidence adaptation, link accounting) is executed by
  the unmodified python objects, so identity holds by construction.

The per-slot epilogue pays only for what a run does on the slot.  Each
run's :class:`~repro.core.engine.DecisionEngine` reads its slice of
:meth:`SlotKernel.ready_mask` as flags and answers ``[]`` at once on an
ER-r no-op slot; an idle run then records its slot without building any
outcome, and an active run materializes outcomes only for its active
nodes.  Every run still calls ``begin_slot`` and ``finish_slot`` once per
slot, since the scheduler observes and the host votes on idle slots too.

Scalar-fallback rules
---------------------
The kernel only takes runs it can reproduce exactly; everything else
falls back to the scalar path (see :func:`kernel_eligible`): runs with
observability enabled (per-slot timers/traces instrument the scalar
objects), a window transform (per-slot model inference), no precomputed
softmax, or a non-empty fault plan (fault engines drive node state
imperatively).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import DecisionEngine
from repro.core.policies import PolicySpec
from repro.errors import ConfigurationError, SimulationError
from repro.sim.predcache import RunMaterial, build_run_material, default_subject
from repro.sim.results import ExperimentResult, SlotRecord
from repro.utils.rng import SeedSequenceFactory
from repro.wsn.comm import CommLink
from repro.wsn.node import InferenceOutcome, NodeStats, SensorNode

logger = logging.getLogger(__name__)


def kernel_ineligibility_reason(
    *,
    material: Optional[RunMaterial],
    window_transform,
    faults,
    obs,
) -> Optional[str]:
    """Why a run cannot take the vectorized path, or ``None`` if it can.

    The rules mirror the scalar features the kernel does not model (see
    module docstring); the returned tag feeds the ``kernel.fallback.*``
    observability counters so sweeps that quietly lose the kernel
    speedup are visible in ``repro.obs.summarize`` reports.
    """
    # Most specific first: an observed run with a fault plan reports
    # "fault_plan", not the always-true-under-obs "tracing".
    if window_transform is not None:
        return "window_transform"
    if faults is not None and not faults.is_empty:
        return "fault_plan"
    if material is None or material.probabilities is None:
        return "missing_probs"
    if obs is not None and obs.enabled:
        return "tracing"
    return None


def kernel_eligible(
    *,
    material: Optional[RunMaterial],
    window_transform,
    faults,
    obs,
) -> bool:
    """Whether a run with these inputs can take the vectorized path.

    Any ``False`` here routes the run through the scalar loop, whose
    output the kernel is byte-identical to whenever both are possible;
    :func:`kernel_ineligibility_reason` names the blocking feature.
    """
    return (
        kernel_ineligibility_reason(
            material=material,
            window_transform=window_transform,
            faults=faults,
            obs=obs,
        )
        is None
    )


@dataclass(frozen=True)
class SlotEvents:
    """What one :meth:`SlotKernel.advance` call did, per lane.

    Boolean masks select lanes; the float arrays are zero outside their
    mask.  ``started`` is only meaningful for lanes in ``active``.
    """

    active: np.ndarray  # bool: attempted an inference this slot
    sense_fail: np.ndarray  # bool: could not afford the IMU sample
    completed: np.ndarray  # bool: inference finished this slot
    started: np.ndarray  # int64: slot whose window the attempt classifies
    sense_paid: np.ndarray  # float64: IMU draw actually paid
    burst_consumed: np.ndarray  # float64: NVP burst energy drawn
    comm_paid: np.ndarray  # float64: radio draw actually paid


class SlotKernel:
    """Lane-parallel node physics over a shared slot timeline.

    One lane = one (run, node) pair.  All per-lane parameters are
    float64/bool/int64 arrays of shape ``(n_lanes,)``;
    ``slot_energies`` is ``(n_lanes, n_slots)``.  Every update in
    :meth:`advance` is the elementwise image of one scalar-path
    statement, in the same order — see the module docstring's
    byte-identity contract.
    """

    def __init__(
        self,
        *,
        slot_energies: np.ndarray,
        capacity_j: np.ndarray,
        initial_j: np.ndarray,
        leak_j: np.ndarray,
        idle_j: np.ndarray,
        sense_j: np.ndarray,
        task_work_j: np.ndarray,
        useful_fraction: np.ndarray,
        volatile: np.ndarray,
        comm_cost_j: np.ndarray,
        max_task_age_slots: np.ndarray,
    ) -> None:
        self.slot_energies = np.ascontiguousarray(slot_energies, dtype=np.float64)
        if self.slot_energies.ndim != 2:
            raise SimulationError("slot_energies must be (n_lanes, n_slots)")
        n_lanes = self.slot_energies.shape[0]

        def lane_array(name: str, values, dtype=np.float64) -> np.ndarray:
            array = np.ascontiguousarray(values, dtype=dtype)
            if array.shape != (n_lanes,):
                raise SimulationError(
                    f"{name} must have shape ({n_lanes},), got {array.shape}"
                )
            return array

        self.capacity_j = lane_array("capacity_j", capacity_j)
        self.leak_j = lane_array("leak_j", leak_j)
        self.idle_j = lane_array("idle_j", idle_j)
        self.sense_j = lane_array("sense_j", sense_j)
        self.task_work_j = lane_array("task_work_j", task_work_j)
        self.useful_fraction = lane_array("useful_fraction", useful_fraction)
        self.volatile = lane_array("volatile", volatile, dtype=bool)
        self.comm_cost_j = lane_array("comm_cost_j", comm_cost_j)
        self.max_task_age_slots = lane_array("max_task_age_slots", max_task_age_slots)
        # Same expressions as Capacitor.__init__ clamping and
        # SensorNode.can_start_inference / NVP's completion check.
        self.stored = np.minimum(lane_array("initial_j", initial_j), self.capacity_j)
        self.ready_threshold = self.sense_j + self.task_work_j / self.useful_fraction
        self._complete_at = self.task_work_j - 1e-15

        self.n_lanes = n_lanes
        self.n_slots = self.slot_energies.shape[1]
        self.done_work = np.zeros(n_lanes, dtype=np.float64)
        self.pending_slot = np.full(n_lanes, -1, dtype=np.int64)
        self.in_progress = np.zeros(n_lanes, dtype=bool)

        # NodeStats counters, accumulated in the scalar path's per-slot
        # addition order so float sums match bit for bit.
        self.slots = np.zeros(n_lanes, dtype=np.int64)
        self.active_slots = np.zeros(n_lanes, dtype=np.int64)
        self.attempts_started = np.zeros(n_lanes, dtype=np.int64)
        self.completions = np.zeros(n_lanes, dtype=np.int64)
        self.failed_active_slots = np.zeros(n_lanes, dtype=np.int64)
        self.harvested_j = np.zeros(n_lanes, dtype=np.float64)
        self.consumed_j = np.zeros(n_lanes, dtype=np.float64)
        self.comm_j = np.zeros(n_lanes, dtype=np.float64)
        self.leaked_j = np.zeros(n_lanes, dtype=np.float64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_nodes(
        cls, nodes: Sequence[SensorNode], *, n_runs: int, n_slots: int
    ) -> "SlotKernel":
        """Lanes for ``n_runs`` identical runs over freshly built nodes.

        Lane ``r * len(nodes) + k`` is run ``r``'s copy of ``nodes[k]``.
        The nodes must be untouched templates (e.g. fresh from
        ``HARExperiment._build_nodes``): their current capacitor charge
        seeds every run's initial state.
        """
        if n_runs < 1:
            raise SimulationError(f"n_runs must be >= 1, got {n_runs}")
        base = np.stack([node.slot_energy_vector(n_slots) for node in nodes])

        def tiled(values, dtype=np.float64) -> np.ndarray:
            return np.tile(np.asarray(values, dtype=dtype), n_runs)

        return cls(
            slot_energies=np.tile(base, (n_runs, 1)),
            capacity_j=tiled([n.capacitor.capacity_j for n in nodes]),
            initial_j=tiled([n.capacitor.stored_j for n in nodes]),
            leak_j=tiled([n.capacitor.leakage_w * n.slot_duration_s for n in nodes]),
            idle_j=tiled([n.costs.idle_j for n in nodes]),
            sense_j=tiled([n.costs.sense_j for n in nodes]),
            task_work_j=tiled([n.inference_energy_j for n in nodes]),
            useful_fraction=tiled([n.nvp.useful_fraction for n in nodes]),
            volatile=tiled([n.nvp.volatile for n in nodes], dtype=bool),
            comm_cost_j=tiled(
                [n.comm.message_cost_j(n.costs.result_message_bytes) for n in nodes]
            ),
            max_task_age_slots=tiled(
                [
                    np.inf if n.max_task_age_slots is None else float(n.max_task_age_slots)
                    for n in nodes
                ]
            ),
        )

    @classmethod
    def stack(cls, kernels: Sequence["SlotKernel"]) -> "SlotKernel":
        """Concatenate fresh kernels' lanes into one mega-batch kernel.

        The fleet layer's lane packing: each input kernel holds one
        homogeneous slice (e.g. one user's ``policies x nodes`` lanes
        from :meth:`from_nodes`) and the stacked kernel advances every
        slice in a single ``advance`` per slot.  Per-lane physics is
        elementwise, so lane ``i`` of a stacked kernel is byte-identical
        to the same lane advanced in its own kernel.  Inputs must be
        fresh (no slot advanced yet); a single input is returned as-is.
        """
        kernels = list(kernels)
        if not kernels:
            raise SimulationError("stack needs at least one kernel")
        if len(kernels) == 1:
            return kernels[0]
        slot_counts = {kernel.n_slots for kernel in kernels}
        if len(slot_counts) != 1:
            raise SimulationError(
                f"stacked kernels must share one slot count, got {sorted(slot_counts)}"
            )
        for kernel in kernels:
            if kernel.slots.any() or kernel.in_progress.any():
                raise SimulationError("stack needs fresh kernels (no slots advanced)")

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(kernel, name) for kernel in kernels])

        return cls(
            slot_energies=np.concatenate(
                [kernel.slot_energies for kernel in kernels], axis=0
            ),
            capacity_j=cat("capacity_j"),
            # A fresh kernel's ``stored`` is its (already clamped)
            # initial charge, so it seeds the stacked lanes exactly.
            initial_j=cat("stored"),
            leak_j=cat("leak_j"),
            idle_j=cat("idle_j"),
            sense_j=cat("sense_j"),
            task_work_j=cat("task_work_j"),
            useful_fraction=cat("useful_fraction"),
            volatile=cat("volatile"),
            comm_cost_j=cat("comm_cost_j"),
            max_task_age_slots=cat("max_task_age_slots"),
        )

    # ------------------------------------------------------------------
    # per-slot scan
    # ------------------------------------------------------------------

    def ready_mask(self) -> np.ndarray:
        """Per-lane ``SensorNode.can_start_inference()``."""
        return self.stored >= self.ready_threshold

    def advance(self, slot: int, active: np.ndarray) -> SlotEvents:
        """Advance every lane one slot; ``active`` lanes attempt work.

        Each block below is the vectorized image of one scalar-path
        statement (cited in comments), applied in the same order.
        """
        stored = self.stored

        # SensorNode.harvest: deposit -> leak -> idle draw.
        energy = self.slot_energies[:, slot]
        accepted = np.minimum(energy, self.capacity_j - stored)
        stored += accepted
        lost = np.minimum(self.leak_j, stored)
        stored -= lost
        idle = np.minimum(self.idle_j, stored)
        stored -= idle
        self.harvested_j += accepted
        self.consumed_j += idle
        self.leaked_j += lost
        self.slots += 1

        self.active_slots += active

        # Stale in-flight tasks expire before anything runs
        # (SensorNode._active_slot's max_task_age_slots check); the lane
        # then falls through to a fresh sense like the scalar path.
        stale = active & self.in_progress & (
            (slot - self.pending_slot) >= self.max_task_age_slots
        )
        if stale.any():
            self.in_progress &= ~stale
            self.done_work[stale] = 0.0
            self.pending_slot[stale] = -1

        # Fresh inference: sense the current window first.
        fresh = active & ~self.in_progress
        sense_paid = np.where(fresh, np.minimum(self.sense_j, stored), 0.0)
        stored -= sense_paid
        self.consumed_j += sense_paid
        sense_fail = fresh & (sense_paid < self.sense_j)
        started_ok = fresh & ~sense_fail
        self.pending_slot[started_ok] = slot
        self.done_work[started_ok] = 0.0
        self.in_progress |= started_ok
        self.attempts_started += started_ok

        # NVP.execute_burst: consume up to what remaining work (plus
        # checkpoint overhead) requires, bank the useful fraction.
        bursting = active & self.in_progress
        needed = (self.task_work_j - self.done_work) / self.useful_fraction
        burst = np.where(bursting, np.minimum(stored, needed), 0.0)
        stored -= burst
        self.consumed_j += burst
        self.done_work += np.where(bursting, burst * self.useful_fraction, 0.0)

        completed = bursting & (self.done_work >= self._complete_at)
        incomplete = bursting & ~completed
        self.failed_active_slots += sense_fail
        self.failed_active_slots += incomplete

        # Outcome provenance before state is finalized: the slot whose
        # window each attempt classifies.
        started = np.where(sense_fail, slot, self.pending_slot)

        # Volatile MCUs lose an unfinished burst's progress entirely.
        wiped = incomplete & self.volatile
        if wiped.any():
            self.done_work[wiped] = 0.0
            self.in_progress &= ~wiped
            self.pending_slot[wiped] = -1

        # Completion: acknowledge, then pay for the result message.
        self.completions += completed
        self.in_progress &= ~completed
        self.done_work[completed] = 0.0
        self.pending_slot[completed] = -1
        comm_paid = np.where(completed, np.minimum(self.comm_cost_j, stored), 0.0)
        stored -= comm_paid
        self.comm_j += comm_paid
        self.consumed_j += comm_paid

        return SlotEvents(
            active=active,
            sense_fail=sense_fail,
            completed=completed,
            started=started,
            sense_paid=sense_paid,
            burst_consumed=burst,
            comm_paid=comm_paid,
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def lane_stats(self, lane: int) -> NodeStats:
        """One lane's counters as a plain-python :class:`NodeStats`."""
        return NodeStats(
            slots=int(self.slots[lane]),
            active_slots=int(self.active_slots[lane]),
            attempts_started=int(self.attempts_started[lane]),
            completions=int(self.completions[lane]),
            failed_active_slots=int(self.failed_active_slots[lane]),
            harvested_j=float(self.harvested_j[lane]),
            consumed_j=float(self.consumed_j[lane]),
            comm_j=float(self.comm_j[lane]),
            leaked_j=float(self.leaked_j[lane]),
        )


# ---------------------------------------------------------------------------
# stage 1: one node, fixed schedule
# ---------------------------------------------------------------------------


def run_node_schedule(
    node: SensorNode,
    schedule: Sequence[bool],
    *,
    mutate_comm: bool = True,
):
    """Drive one node through a fixed activation schedule via the kernel.

    The vectorized replacement for::

        for slot in range(n_slots):
            if schedule[slot]:
                outcomes.append(node.active_slot(slot, window))
            else:
                node.idle_slot(slot)

    ``node`` must be freshly built (its capacitor charge seeds the lane)
    and must carry a ``prediction_cache`` — the kernel never runs the
    model.  Returns ``(outcomes, stats)``; the node's own capacitor/NVP
    state is left untouched.  With ``mutate_comm`` (default) completed
    results go through ``node.comm.transmit`` so the link's message and
    energy counters advance exactly as in the scalar loop.
    """
    if node.prediction_cache is None:
        raise ConfigurationError(
            "run_node_schedule needs node.prediction_cache (the kernel "
            "does not run models); install the run material's softmax first"
        )
    mask = np.asarray(schedule, dtype=bool)
    n_slots = mask.size
    kernel = SlotKernel.from_nodes([node], n_runs=1, n_slots=n_slots)
    probabilities = node.prediction_cache
    predicted = probabilities.argmax(axis=1)
    confidences = np.var(probabilities, axis=1)

    outcomes: List[InferenceOutcome] = []
    active = np.zeros(1, dtype=bool)
    for slot in range(n_slots):
        active[0] = mask[slot]
        events = kernel.advance(slot, active)
        if not active[0]:
            continue
        outcomes.append(
            _lane_outcome(
                events,
                0,
                node_id=node.node_id,
                location=node.location,
                slot=slot,
                probabilities=probabilities,
                predicted=predicted,
                confidences=confidences,
                comm=node.comm if mutate_comm else CommLink(node.comm.profile),
                result_message_bytes=node.costs.result_message_bytes,
            )
        )
    return outcomes, kernel.lane_stats(0)


def _lane_outcome(
    events: SlotEvents,
    lane: int,
    *,
    node_id: int,
    location,
    slot: int,
    probabilities: np.ndarray,
    predicted: np.ndarray,
    confidences: np.ndarray,
    comm: CommLink,
    result_message_bytes: int,
) -> InferenceOutcome:
    """Materialize one active lane's slot outcome (scalar field order)."""
    if events.sense_fail[lane]:
        return InferenceOutcome(
            node_id, location, slot, slot, False,
            energy_consumed_j=float(events.sense_paid[lane]),
        )
    if not events.completed[lane]:
        return InferenceOutcome(
            node_id, location, slot, int(events.started[lane]), False,
            energy_consumed_j=float(events.burst_consumed[lane]),
        )
    started_slot = int(events.started[lane])
    label = int(predicted[started_slot])
    # The real link transmits, so message/energy counters (and any
    # delivery hook, though eligible runs have none) match the scalar
    # path; the capacitor-side draw already happened in advance().
    sent = comm.transmit(result_message_bytes, slot, label)
    return InferenceOutcome(
        node_id=node_id,
        location=location,
        slot_index=slot,
        started_slot=started_slot,
        completed=True,
        predicted_label=label,
        probabilities=probabilities[started_slot],
        confidence=float(confidences[started_slot]),
        energy_consumed_j=float(events.burst_consumed[lane] + events.comm_paid[lane]),
        delivered=sent.delivery.delivered,
        reported_label=(sent.delivery.label if sent.delivery.corrupted else None),
    )


# ---------------------------------------------------------------------------
# stage 2: batched policy runs (and stage 3: heterogeneous groups)
# ---------------------------------------------------------------------------


@dataclass
class _RunState:
    """The real python objects of one policy run, fed from lane state.

    ``core`` is the shared :class:`~repro.core.engine.DecisionEngine`
    (scheduler + host recall/vote + confidence adaptation) — the same
    object the scalar loop and the serving path drive, fed here from
    the lane arrays.
    """

    spec: PolicySpec
    core: DecisionEngine
    comms: List[CommLink]
    result: ExperimentResult
    active_ids: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class BatchGroup:
    """One homogeneous slice of a (possibly heterogeneous) mega-batch.

    A group is everything that shares a seed, deployment config and run
    material: ``len(policies)`` runs over one set of node templates.
    :func:`run_policy_batch` is a single group; the fleet layer packs
    one group per simulated user — each with its *own* traces,
    capacitor sizing, gains and timeline — into one
    :func:`run_group_batch` call.

    ``config`` (a :class:`~repro.sim.experiment.SimulationConfig`)
    defaults to the experiment's; ``material`` is built on demand when
    omitted; ``confidence_matrices`` optionally supplies (and mutates!)
    one matrix per policy, ``None`` entries meaning fresh copies.
    """

    policies: Sequence[PolicySpec]
    seed: int
    config: Optional[object] = None
    material: Optional[RunMaterial] = None
    subject: Optional[object] = None
    confidence_matrices: Optional[Sequence] = None


@dataclass
class _GroupState:
    """One group's prepared objects plus its lane offset in the batch.

    ``position`` maps a node id to its index in construction order (its
    lane offset inside each run's block); ``node_sources`` holds each
    node's run-independent :func:`_lane_outcome` arguments.
    """

    nodes: List[SensorNode]
    node_ids: List[int]
    material: RunMaterial
    true_labels: List[int]
    class_predictions: dict
    runs: List[_RunState]
    n_slots: int
    base: int = 0
    n_nodes: int = field(init=False)
    position: Dict[int, int] = field(init=False)
    node_sources: List[Dict[str, Any]] = field(init=False)

    def __post_init__(self) -> None:
        self.n_nodes = len(self.nodes)
        self.position = {node_id: k for k, node_id in enumerate(self.node_ids)}
        # Per node, the run-independent ``_lane_outcome`` arguments.
        self.node_sources = [
            {
                "node_id": node.node_id,
                "location": node.location,
                "probabilities": self.material.probabilities[node.node_id],
                "predicted": self.class_predictions[node.node_id][0],
                "confidences": self.class_predictions[node.node_id][1],
                "result_message_bytes": node.costs.result_message_bytes,
            }
            for node in self.nodes
        ]


def _prepare_group(experiment, group: BatchGroup) -> tuple:
    """Materialize one group's nodes, material and run objects.

    Returns ``(_GroupState, SlotKernel)`` — the kernel holds the
    group's ``len(policies) * len(nodes)`` fresh lanes, ready to be
    stacked with other groups'.
    """
    policies = list(group.policies)
    if not policies:
        raise ConfigurationError("a batch group needs at least one policy")
    config = group.config if group.config is not None else experiment.config
    run_seed = int(group.seed)
    dataset_spec = experiment.dataset.spec
    subject = group.subject or default_subject(experiment.dataset)
    confidence_matrices = group.confidence_matrices
    if confidence_matrices is None:
        confidence_matrices = [None] * len(policies)
    elif len(confidence_matrices) != len(policies):
        raise ConfigurationError(
            f"confidence_matrices must match policies "
            f"({len(confidence_matrices)} != {len(policies)})"
        )

    material = group.material
    if material is None:
        material = build_run_material(
            experiment.dataset,
            experiment.bundle,
            run_seed,
            n_windows=config.n_windows,
            dwell_scale=config.dwell_scale,
            use_pruned_models=config.use_pruned_models,
            subject=subject,
            with_predictions=True,
        )
    else:
        material.check_compatible(
            seed=run_seed,
            n_windows=config.n_windows,
            dwell_scale=config.dwell_scale,
            use_pruned_models=config.use_pruned_models,
            subject=subject,
        )
    if material.probabilities is None:
        raise ConfigurationError(
            "the kernel needs material with precomputed softmax "
            "(build_run_material(with_predictions=True))"
        )

    # The seed's node templates: same factory stream as the scalar path,
    # so traces/capacitors/NVPs carry identical parameters.
    factory = SeedSequenceFactory(run_seed)
    nodes = experiment._build_nodes(factory, config)
    node_ids = [node.node_id for node in nodes]
    n_slots = config.n_windows
    kernel = SlotKernel.from_nodes(nodes, n_runs=len(policies), n_slots=n_slots)
    class_predictions = material.class_predictions()
    true_labels = [dataset_spec.label_of(label) for label in material.labels]

    runs: List[_RunState] = []
    for spec, matrix in zip(policies, confidence_matrices):
        if matrix is not None:
            confidence = matrix
        else:
            alpha = (
                experiment.bundle.confidence_matrix.adaptation_alpha
                if spec.adaptive_confidence
                else 0.0
            )
            confidence = experiment.bundle.confidence_matrix.copy(
                adaptation_alpha=alpha
            )
        core = DecisionEngine(
            spec,
            node_ids,
            experiment.bundle.rank_table,
            confidence,
            max_recall_age_slots=config.max_recall_age_slots,
            staleness_half_life_slots=None,
        )
        runs.append(
            _RunState(
                spec=spec,
                core=core,
                comms=[CommLink(config.radio) for _ in nodes],
                result=ExperimentResult(
                    policy_name=spec.name,
                    activities=list(dataset_spec.activities),
                ),
            )
        )

    state = _GroupState(
        nodes=nodes,
        node_ids=node_ids,
        material=material,
        true_labels=true_labels,
        class_predictions=class_predictions,
        runs=runs,
        n_slots=n_slots,
    )
    return state, kernel


def run_group_batch(
    experiment,
    groups: Sequence[BatchGroup],
) -> List[List[ExperimentResult]]:
    """Advance every run of every group in lockstep on one kernel.

    The mega-batch entry point: groups may differ in seed, traces,
    capacitor sizing, gains, dwell and material — each contributes its
    own ``policies x nodes`` lane block to one stacked
    :class:`SlotKernel`, so the whole cohort's physics advances with
    one numpy statement per rule per slot instead of one kernel
    invocation per user.  Schedulers, hosts, voting and confidence
    matrices remain per-run python objects fed from their lanes.

    Returns one ``List[ExperimentResult]`` per group (one entry per
    policy, in order).  Every result is byte-identical to running that
    group's ``(policy, seed, config)`` alone through
    ``HARExperiment.run`` — per-lane physics is elementwise, and the
    per-run epilogue executes the same statements in the same order.

    All groups must share one slot count (``config.n_windows``).
    """
    groups = list(groups)
    if not groups:
        return []

    states: List[_GroupState] = []
    kernels: List[SlotKernel] = []
    base = 0
    for group in groups:
        state, group_kernel = _prepare_group(experiment, group)
        state.base = base
        base += group_kernel.n_lanes
        states.append(state)
        kernels.append(group_kernel)
    n_slots = states[0].n_slots
    for state in states[1:]:
        if state.n_slots != n_slots:
            raise ConfigurationError(
                f"all groups of a batch must share n_windows "
                f"({state.n_slots} != {n_slots})"
            )
    kernel = SlotKernel.stack(kernels)

    logger.debug(
        "kernel batch: %d group(s), %d lanes x %d slots",
        len(states), kernel.n_lanes, n_slots,
    )

    active_mask = np.zeros(kernel.n_lanes, dtype=bool)
    for slot in range(n_slots):
        # Scheduling: each run's engine reads its slice of the lane
        # ready flags; a run idling on an ER-r no-op slot returns [].
        ready = kernel.ready_mask().tolist()
        active_lanes: List[int] = []
        for state in states:
            n_nodes = state.n_nodes
            position = state.position
            run_base = state.base
            for run in state.runs:
                run.active_ids = run.core.begin_slot(
                    slot, ready[run_base:run_base + n_nodes]
                )
                for node_id in run.active_ids:
                    active_lanes.append(run_base + position[node_id])
                run_base += n_nodes
        active_mask[:] = False
        active_mask[active_lanes] = True

        events = kernel.advance(slot, active_mask)

        # Epilogue: per run, materialize outcomes for its active nodes
        # in construction order and drive host/confidence/scheduler
        # exactly as the scalar loop does.
        for state in states:
            true_label = state.true_labels[slot]
            n_nodes = state.n_nodes
            position = state.position
            run_base = state.base
            for run in state.runs:
                active = run.active_ids
                if not active:
                    final = run.core.finish_slot(slot, (), receive=True)
                    record = SlotRecord(slot, true_label, final, (), 0, 0)
                else:
                    outcomes = [
                        _lane_outcome(
                            events,
                            run_base + k,
                            slot=slot,
                            comm=run.comms[k],
                            **state.node_sources[k],
                        )
                        for k in sorted({position[node_id] for node_id in active})
                    ]
                    final = run.core.finish_slot(slot, outcomes, receive=True)
                    record = SlotRecord(
                        slot_index=slot,
                        true_label=true_label,
                        predicted_label=final,
                        active_nodes=tuple(active),
                        completions=sum(1 for o in outcomes if o.completed),
                        attempts=len(outcomes),
                        dropped_messages=sum(
                            1 for o in outcomes if o.completed and not o.delivered
                        ),
                    )
                run.result.records.append(record)
                run_base += n_nodes

    results: List[List[ExperimentResult]] = []
    for state in states:
        group_results: List[ExperimentResult] = []
        for r, run in enumerate(state.runs):
            run_base = state.base + r * state.n_nodes
            run.result.node_stats = {
                state.node_ids[k]: kernel.lane_stats(run_base + k)
                for k in range(state.n_nodes)
            }
            run.result.comm_energy_j = sum(
                link.energy_spent_j for link in run.comms
            )
            run.result.confidence_updates = run.core.confidence_updates
            group_results.append(run.result)
        results.append(group_results)
    return results


def run_policy_batch(
    experiment,
    policies: Sequence[PolicySpec],
    seed: int,
    *,
    material: Optional[RunMaterial] = None,
    subject=None,
    config=None,
    confidence_matrices: Optional[Sequence] = None,
) -> List[ExperimentResult]:
    """Run every policy for one seed on a single batched timeline.

    The stage-2 entry point: ``len(policies)`` runs advance in lockstep
    as lanes of one :class:`SlotKernel` (they share the seed's traces
    and material), while each run keeps its own scheduler, host, voting,
    confidence matrix and comm links — the scalar objects, driven
    per-slot from the lane arrays.  Returns one
    :class:`~repro.sim.results.ExperimentResult` per policy, in order,
    byte-identical to ``experiment.run(policy, seed=seed, ...)``.

    This is :func:`run_group_batch` with a single :class:`BatchGroup`;
    ``confidence_matrices`` optionally supplies (and mutates!) one
    matrix per policy, mirroring ``run(confidence_matrix=...)``, with
    ``None`` entries for the default fresh copies.
    """
    policies = list(policies)
    if not policies:
        return []
    return run_group_batch(
        experiment,
        [
            BatchGroup(
                policies=policies,
                seed=seed,
                config=config,
                material=material,
                subject=subject,
                confidence_matrices=confidence_matrices,
            )
        ],
    )[0]
