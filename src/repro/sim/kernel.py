"""Structure-of-arrays slot physics: the simulator's one node model.

Every simulated run steps its nodes through :class:`SlotKernel` — a
single ``HARExperiment.run``, a policy sweep, a fleet cohort and a
served device alike.  One *lane* is one (run, node) pair; every
capacitor/NVP rule is one numpy statement, and all lanes of a batch
advance in lockstep over a shared ``(n_lanes, n_slots)`` harvest
timeline.  Per slot each lane runs, in this order: deposit → leak → idle
draw → stale-task abort → sense → NVP burst → completion or volatile
wipe → result-message draw.

* The slot loop itself stays in python: capacitor clamping makes each
  slot's state a two-sided ``min``/``max`` function of the previous
  slot's, which has no closed form that keeps float ordering.
  Vectorization happens across *lanes*, not slots.
* Everything with cross-node or cross-slot feedback (scheduling, host
  recall, voting, confidence adaptation) is one columnar
  :class:`~repro.core.engine.DecisionEngine` per batch, whose rows are
  the batch's runs: :func:`run_group_batch` calls its ``begin_slot``
  and ``finish_slot`` once per slot each, with ``(rows, nodes)`` flag
  and report arrays read off the lanes.

A batch builds its lanes once, as arrays: one
:meth:`~repro.sim.experiment.HARExperiment.build_nodes` call returns a
:class:`LaneTable` for every group at once — the harvest rows of every
``(group, node)``, written from one office walk per distinct seed a
block of groups per slot-sum pass, and each config read once —
each group folds its fault plan into its own rows, and one
:meth:`SlotKernel.from_lanes` call gathers every lane from the table.
No per-node object is built; :meth:`SlotKernel.from_nodes` turns
hand-built :class:`~repro.wsn.node.SensorNode` records into the same
table.  The outcome stays columnar too: every run's
:class:`~repro.sim.results.ExperimentResult` is its row of the batch's
``(rows, slots)`` arrays (final label, attempts, completions, dropped
messages) plus its active-node tuples, and its ``NodeStats`` come from
the lane counter columns, read once per batch, so neither end of a
batch builds a per-slot object.

Link accounting is lane arithmetic too: every completion sends one
result message, whose radio energy accumulates per lane, message by
message.  Per-run python remains only where the state is per run and
rare: a faulted run's :class:`~repro.faults.engine.FaultEngine`, a lossy
link's delivery hook (called once per message in node order, so the
run's link RNG draws keep their order) and per-run trace emission.

Faults fold into lane inputs.  A :class:`BatchGroup` carries a
:class:`~repro.faults.FaultPlan`; each run compiles its own
:class:`~repro.faults.engine.FaultEngine`.  Harvester dropouts scale the
lanes' slot energies and offline slots (after a death, inside a
brownout) get none, so a dark lane adds exactly +0.0 to every ledger
and only counts its slot.  The fault engine drains a lane through
:meth:`SlotKernel.power_down`, restarts the run's host through its
engine row and masks the row's flags.  Fault-free runs pay nothing for
any of this per slot.

A material's rows are computed on demand: in each slot the batch
brings in the ``(material, node, started slot)`` rows of the lanes that
completed, computing the new ones with one render, one predict and one
softmax per model across all of the batch's materials
(:func:`~repro.sim.predcache.fill_rows`), so a batch synthesizes and
classifies only the windows its runs finish.

Observed runs synthesize the node trace events (``window.sensed``,
``nvp.*``, ``inference.*``, ``message.*``) and metrics from lane state,
one trace buffer per run; the buffers join the caller's tracer in run
order after the batch, so every run stays contiguous and turning
observability on changes neither the physics nor the batching.  An
observed batch also times its set-up (lane table to row tables) as one
``kernel.setup`` timer; an unobserved one reads no clock.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import DecisionEngine, EngineRow, SlotReports
from repro.core.policies import PolicySpec
from repro.errors import ConfigurationError, SimulationError
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.faults.stats import LinkStats
from repro.obs.observer import NULL_OBS, Observability
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.predcache import RunMaterial, build_run_material, default_subject, fill_rows
from repro.sim.results import ExperimentResult
from repro.utils.rng import SeedSequenceFactory
from repro.wsn.node import NodeStats, SensorNode

logger = logging.getLogger(__name__)


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


#: A :class:`LaneTable`'s parameter columns in :func:`_lane_params`
#: order, with their dtypes.
_PARAM_COLUMNS = (
    ("capacity_j", np.float64),
    ("initial_j", np.float64),
    ("leak_j", np.float64),
    ("idle_j", np.float64),
    ("sense_j", np.float64),
    ("useful_fraction", np.float64),
    ("volatile", bool),
    ("comm_cost_j", np.float64),
    ("max_task_age_slots", np.float64),
    ("message_bytes", np.int64),
)


def _lane_params(
    *,
    capacity_j: float,
    initial_j: float,
    leakage_w: float,
    slot_duration_s: float,
    costs,
    checkpoint_overhead: float,
    volatile: bool,
    radio,
    max_task_age_slots: Optional[int],
) -> tuple:
    """One deployment's lane parameters, in :data:`_PARAM_COLUMNS` order.

    The kernel's one derivation from raw parameters, for a config and
    for a :class:`~repro.wsn.node.SensorNode` alike: the initial charge
    clamped to capacity, the leak over one slot, the NVP's useful
    fraction, one result message's radio cost and ``inf`` for no task
    age limit.
    """
    capacity_j = float(capacity_j)
    return (
        capacity_j,
        min(float(initial_j), capacity_j),
        leakage_w * slot_duration_s,
        costs.idle_j,
        costs.sense_j,
        1.0 - checkpoint_overhead,
        volatile,
        radio.message_cost_j(costs.result_message_bytes),
        math.inf if max_task_age_slots is None else float(max_task_age_slots),
        costs.result_message_bytes,
    )


@dataclass
class LaneTable:
    """Harvest rows and lane parameters of a batch's ``(setup, node)`` pairs.

    A *setup* is one deployment of ``node_ids`` (a batch group's
    ``(seed, config)``).  ``energies`` is ``(setups, nodes, n_slots)``;
    every other column is ``(setups, nodes)``: capacity, initial charge
    (clamped to capacity), leak per slot, idle and sense draws, the
    inference's work, the NVP's useful fraction, volatility, the cost
    and size of one result message, and the task age limit (``inf`` =
    none).  :meth:`SlotKernel.from_lanes` gathers lanes from it.
    """

    node_ids: List[int]
    energies: np.ndarray
    task_work_j: np.ndarray
    capacity_j: np.ndarray
    initial_j: np.ndarray
    leak_j: np.ndarray
    idle_j: np.ndarray
    sense_j: np.ndarray
    useful_fraction: np.ndarray
    volatile: np.ndarray
    comm_cost_j: np.ndarray
    max_task_age_slots: np.ndarray
    message_bytes: np.ndarray

    @property
    def n_slots(self) -> int:
        return self.energies.shape[2]

    @classmethod
    def _build(cls, node_ids, energies, task_work_j, params, *, per_node: bool) -> "LaneTable":
        """The table of one :func:`_lane_params` tuple per setup (or, with
        ``per_node``, per node), broadcast to ``(setups, nodes)`` columns."""
        energies = np.asarray(energies, dtype=np.float64)
        shape = energies.shape[:2]

        def column(values, dtype=np.float64) -> np.ndarray:
            values = np.asarray(values, dtype=dtype)
            if values.ndim == 1:
                values = values[None, :] if per_node else values[:, None]
            return np.array(np.broadcast_to(values, shape))

        return cls(
            node_ids=list(node_ids),
            energies=energies,
            task_work_j=column(task_work_j),
            **{
                name: column(values, dtype)
                for (name, dtype), values in zip(_PARAM_COLUMNS, zip(*params))
            },
        )

    @classmethod
    def of_configs(
        cls,
        node_ids: Sequence[int],
        energies: np.ndarray,
        task_work_j: np.ndarray,
        configs: Sequence,
        slot_duration_s: float,
    ) -> "LaneTable":
        """One setup per :class:`~repro.sim.experiment.SimulationConfig`,
        each config read once; ``task_work_j`` is ``(setups, nodes)``."""
        return cls._build(
            node_ids,
            energies,
            task_work_j,
            [
                _lane_params(
                    capacity_j=config.capacitor_capacity_j,
                    initial_j=config.capacitor_initial_j,
                    leakage_w=config.capacitor_leakage_w,
                    slot_duration_s=slot_duration_s,
                    costs=config.costs,
                    checkpoint_overhead=config.checkpoint_overhead,
                    volatile=config.volatile,
                    radio=config.radio,
                    max_task_age_slots=config.max_task_age_slots,
                )
                for config in configs
            ],
            per_node=False,
        )

    @classmethod
    def of_nodes(cls, nodes: Sequence[SensorNode], n_slots: int) -> "LaneTable":
        """One setup of hand-built node records, each harvesting its own
        :meth:`~repro.wsn.node.SensorNode.slot_energy_vector`."""
        return cls._build(
            [node.node_id for node in nodes],
            np.stack([node.slot_energy_vector(n_slots) for node in nodes])[None],
            [node.inference_energy_j for node in nodes],
            [
                _lane_params(
                    capacity_j=node.capacitor.capacity_j,
                    initial_j=node.capacitor.initial_j,
                    leakage_w=node.capacitor.leakage_w,
                    slot_duration_s=node.slot_duration_s,
                    costs=node.costs,
                    checkpoint_overhead=node.nvp.checkpoint_overhead,
                    volatile=node.nvp.volatile,
                    radio=node.radio,
                    max_task_age_slots=node.max_task_age_slots,
                )
                for node in nodes
            ],
            per_node=True,
        )


class SlotKernel:
    """Lane-parallel node physics over a shared slot timeline.

    One lane = one (run, node) pair.  All per-lane parameters are
    float64/bool/int64 arrays of shape ``(n_lanes,)``;
    ``slot_energies`` is ``(n_lanes, n_slots)``.  Lanes never interact:
    every update in :meth:`advance` is elementwise, so a lane's float
    results do not depend on which other lanes share its kernel.
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
        # The initial charge is clamped to capacity; a lane is ready
        # when one burst could sense and finish a fresh inference; a
        # task completes within 1e-15 J of its work.
        self.stored = np.minimum(lane_array("initial_j", initial_j), self.capacity_j)
        self.ready_threshold = self.sense_j + self.task_work_j / self.useful_fraction
        self._complete_at = self.task_work_j - 1e-15

        self.n_lanes = n_lanes
        self.n_slots = self.slot_energies.shape[1]
        self.done_work = np.zeros(n_lanes, dtype=np.float64)
        self.pending_slot = np.full(n_lanes, -1, dtype=np.int64)
        self.in_progress = np.zeros(n_lanes, dtype=bool)

        # NodeStats counters, accumulated slot by slot (the addition
        # order fixes the float sums).
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
        """Lanes for ``n_runs`` identical runs over hand-built node records.

        Lane ``r * len(nodes) + k`` is run ``r``'s copy of ``nodes[k]``,
        harvesting the node's own
        :meth:`~repro.wsn.node.SensorNode.slot_energy_vector`; the
        records become a one-setup :class:`LaneTable` first
        (:meth:`LaneTable.of_nodes`).
        """
        if n_runs < 1:
            raise SimulationError(f"n_runs must be >= 1, got {n_runs}")
        return cls.from_lanes(
            LaneTable.of_nodes(nodes, n_slots), np.tile(np.arange(len(nodes)), n_runs)
        )

    @classmethod
    def from_lanes(cls, table: LaneTable, lanes: Sequence[int]) -> "SlotKernel":
        """Fresh lanes gathered from ``table``: lane ``i`` is its flat
        ``(setup, node)`` entry ``lanes[i]``, i.e. ``setup * n_nodes + node``.

        A kernel batch folds its fault plans' dropouts and outages into
        the table's harvest rows first.  Lanes never interact, so a lane
        advances the same whichever entries share the kernel.
        """
        lanes = np.asarray(lanes, dtype=np.int64)

        def gather(column: np.ndarray) -> np.ndarray:
            return column.reshape(-1)[lanes]

        return cls(
            slot_energies=table.energies.reshape(-1, table.n_slots)[lanes],
            capacity_j=gather(table.capacity_j),
            initial_j=gather(table.initial_j),
            leak_j=gather(table.leak_j),
            idle_j=gather(table.idle_j),
            sense_j=gather(table.sense_j),
            task_work_j=gather(table.task_work_j),
            useful_fraction=gather(table.useful_fraction),
            volatile=gather(table.volatile),
            comm_cost_j=gather(table.comm_cost_j),
            max_task_age_slots=gather(table.max_task_age_slots),
        )

    # ------------------------------------------------------------------
    # per-slot scan
    # ------------------------------------------------------------------

    def ready_mask(self) -> np.ndarray:
        """Per lane: could a fresh inference finish within one burst now?"""
        return self.stored >= self.ready_threshold

    def power_down(self, lane: int) -> bool:
        """Brownout or death: drain ``lane`` and drop its in-flight task.

        Returns whether a task was lost.  The charge leaves no ledger
        entry (the supply collapsed; nothing consumed it).  While the
        lane stays dark it advances on 0.0 J slots, which keep it at 0.0
        and add +0.0 to every ledger, so only ``slots`` counts.
        """
        lost = bool(self.in_progress[lane])
        self.stored[lane] = 0.0
        self.in_progress[lane] = False
        self.done_work[lane] = 0.0
        self.pending_slot[lane] = -1
        return lost

    def advance(self, slot: int, active: np.ndarray) -> SlotEvents:
        """Advance every lane one slot; ``active`` lanes attempt work."""
        stored = self.stored

        # Harvest: deposit (clamped to capacity) -> leak -> idle draw.
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

        # Stale in-flight tasks expire before anything runs; the lane
        # then falls through to a fresh sense.
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

        # NVP burst: consume up to what the remaining work (plus
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

    def node_stats(self) -> List[NodeStats]:
        """Every lane's counters as a plain-python :class:`NodeStats`, in
        lane order; each counter column is read once."""
        columns = [getattr(self, stat.name).tolist() for stat in fields(NodeStats)]
        return [NodeStats(*counters) for counters in zip(*columns)]


# ---------------------------------------------------------------------------
# lane trace events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LaneSnapshot:
    """Task state of every lane before an :meth:`SlotKernel.advance`."""

    in_progress: np.ndarray
    done_work: np.ndarray
    pending_slot: np.ndarray

    @classmethod
    def of(cls, kernel: SlotKernel) -> "_LaneSnapshot":
        return cls(
            kernel.in_progress.copy(),
            kernel.done_work.copy(),
            kernel.pending_slot.copy(),
        )


def _trace_lane(
    tracer: Tracer,
    kernel: SlotKernel,
    events: SlotEvents,
    before: _LaneSnapshot,
    lane: int,
    *,
    slot: int,
    node_id: int,
    reports: SlotReports,
    at: tuple,
    result_message_bytes: int,
) -> None:
    """Append one active lane's node events for its slot.

    ``at`` is the lane's ``(row, node)`` index into ``reports``.  The
    order is the node's: stale abort, ``window.sensed``,
    ``nvp.task_started``, ``nvp.burst``, volatile abort,
    ``inference.completed``, ``message.sent``, ``message.dropped``.
    Payloads are recomputed from the lane's task state before the
    advance, with the same float operations the advance performed.
    """
    append = tracer.append
    running = bool(before.in_progress[lane])
    done_j = float(before.done_work[lane])
    if running and slot - int(before.pending_slot[lane]) >= kernel.max_task_age_slots[lane]:
        append("nvp.task_aborted", slot, node_id, {"done_work_j": done_j})
        append("inference.aborted", slot, node_id, {"reason": "stale"})
        running = False
    if events.sense_fail[lane]:
        return
    total_j = float(kernel.task_work_j[lane])
    if not running:
        done_j = 0.0
        append("window.sensed", slot, node_id, {})
        append("nvp.task_started", slot, node_id, {"total_work_j": total_j})
    consumed = float(events.burst_consumed[lane])
    progressed = consumed * float(kernel.useful_fraction[lane])
    completed = bool(reports.completed[at])
    wiped = not completed and bool(kernel.volatile[lane])
    append(
        "nvp.burst",
        slot,
        node_id,
        {
            "consumed_j": consumed,
            "progressed_j": progressed,
            "completed": completed,
            "progress_fraction": 0.0 if wiped else (done_j + progressed) / total_j,
        },
    )
    if wiped:
        append("nvp.task_aborted", slot, node_id, {"done_work_j": 0.0})
        append("inference.aborted", slot, node_id, {"reason": "volatile"})
    if not completed:
        return
    delivered = bool(reports.delivered[at])
    append(
        "inference.completed",
        slot,
        node_id,
        {
            "started_slot": int(reports.started[at]),
            "label": int(reports.predicted[at]),
            "confidence": float(reports.confidence[at]),
            "delivered": delivered,
        },
    )
    append(
        "message.sent",
        slot,
        node_id,
        {
            "bytes": result_message_bytes,
            "cost_j": float(kernel.comm_cost_j[lane]),
            "delivered": delivered,
            "corrupted": bool(reports.reported[at] >= 0),
        },
    )
    if not delivered:
        append("message.dropped", slot, node_id, {})


# ---------------------------------------------------------------------------
# batched policy runs
# ---------------------------------------------------------------------------


@dataclass
class _RunState:
    """The per-run python a batch keeps: trace buffer and faults.

    ``row`` is the run's row in the batch's
    :class:`~repro.core.engine.DecisionEngine`; node ``k`` of the run is
    kernel lane ``row * n_nodes + k``.  ``faults`` is the run's compiled
    fault plan (``None`` = fault-free), and ``links`` its per-node
    delivery hooks (``None`` = lossless); ``obs`` carries the run's own
    trace buffer over the caller's metrics registry.
    """

    spec: PolicySpec
    obs: Observability = NULL_OBS
    faults: Optional[FaultEngine] = None
    links: List[Optional[Callable]] = field(default_factory=list)
    row: int = 0
    restart: Optional[Callable[[], None]] = None
    power_down: Optional[Callable[[int, int], None]] = None


@dataclass(frozen=True)
class BatchGroup:
    """One homogeneous slice of a (possibly heterogeneous) mega-batch.

    A group is everything that shares a seed, deployment config, run
    material and fault plan: ``len(policies)`` runs over one set of node
    templates.  :func:`run_policy_batch` is a single group; the fleet
    layer packs one group per simulated user — each with its *own*
    traces, capacitor sizing, gains and timeline — into one
    :func:`run_group_batch` call.

    ``config`` (a :class:`~repro.sim.experiment.SimulationConfig`)
    defaults to the experiment's; ``material`` is built when omitted;
    ``faults`` is a :class:`~repro.faults.FaultPlan` every run of the
    group compiles for itself.  Every run votes with the bundle's
    confidence matrix and, under an adaptive policy, adapts a private
    copy of it.
    """

    policies: Sequence[PolicySpec]
    seed: int
    config: Optional[object] = None
    material: Optional[RunMaterial] = None
    subject: Optional[object] = None
    faults: Optional[FaultPlan] = None


@dataclass
class _GroupState:
    """One group's prepared runs over its :class:`LaneTable` setup.

    ``node_ids`` is the batch's deployment in construction order and
    ``message_bytes`` each node's result-message size.
    """

    node_ids: List[int]
    message_bytes: List[int]
    material: RunMaterial
    runs: List[_RunState]


def _run_obs(obs: Observability) -> Observability:
    """A run's observability: its own trace buffer, the caller's metrics."""
    if not obs.enabled:
        return NULL_OBS
    tracer = Tracer(validate=obs.tracer.validate) if obs.tracer.enabled else NULL_TRACER
    return Observability(tracer=tracer, metrics=obs.metrics)


def _prepare_group(
    experiment,
    group: BatchGroup,
    config,
    table: LaneTable,
    setup: int,
    obs: Observability,
) -> tuple:
    """Materialize one group's material and runs over its table setup.

    ``table`` is the batch's :class:`LaneTable` from
    :meth:`~repro.sim.experiment.HARExperiment.build_nodes` and
    ``setup`` the group's index in it; the group's fault plan folds
    into its harvest rows in place.  Returns ``(_GroupState, rows)``,
    ``rows`` holding one :class:`~repro.core.engine.EngineRow` per run.
    """
    policies = list(group.policies)
    run_seed = int(group.seed)
    factory = SeedSequenceFactory(run_seed)
    dataset_spec = experiment.dataset.spec
    subject = group.subject or default_subject(experiment.dataset)

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
        )
    else:
        material.check_compatible(
            seed=run_seed,
            n_windows=config.n_windows,
            dwell_scale=config.dwell_scale,
            use_pruned_models=config.use_pruned_models,
            subject=subject,
        )

    node_ids = table.node_ids
    n_slots = config.n_windows
    plan = group.faults if group.faults is not None else FaultPlan()

    runs: List[_RunState] = []
    rows: List[EngineRow] = []
    for spec in policies:
        run_obs = _run_obs(obs)
        engine = None
        links: List[Optional[Callable]] = [None] * len(node_ids)
        if plan.faults:
            # Each run compiles its own engine: its link-loss chains draw
            # from the seed's "faults" stream, never from another run's.
            engine = plan.compile(
                node_ids=node_ids,
                n_slots=n_slots,
                n_classes=len(dataset_spec.activities),
                rng=factory.generator("faults") if plan.has_link_faults else None,
            )
            engine.obs = run_obs
            links = [engine.link_hook(node_id) for node_id in node_ids]
        rows.append(
            EngineRow(
                policy=spec,
                confidence=experiment.bundle.confidence_matrix,
                obs=run_obs,
                on_completion=None if engine is None else engine.note_completion,
            )
        )
        if run_obs.tracer.enabled:
            run_obs.tracer.emit(
                "run.started",
                policy=spec.name,
                seed=run_seed,
                n_windows=n_slots,
                n_nodes=len(node_ids),
            )
        if run_obs.enabled:
            # Registered up front: an observed run reports the histogram
            # even when nothing completes.
            run_obs.metrics.histogram("nvp.slots_per_inference")
        runs.append(
            _RunState(
                spec=spec,
                obs=run_obs,
                faults=engine,
                links=links,
            )
        )
    if runs[0].faults is not None:
        # Dropouts and outages are static schedules: fold them into
        # each node's harvest timeline, which every run's lane shares.
        energies = table.energies[setup]
        for k, node_id in enumerate(node_ids):
            energies[k] = runs[0].faults.slot_energies(node_id, energies[k])

    state = _GroupState(
        node_ids=node_ids,
        message_bytes=table.message_bytes[setup].tolist(),
        material=material,
        runs=runs,
    )
    return state, rows


def _power_down(
    kernel: SlotKernel,
    run: _RunState,
    position: Dict[int, int],
    n_nodes: int,
    node_id: int,
    slot: int,
) -> None:
    """A run's fault engine browned out or killed ``node_id`` at ``slot``.

    A task lost to the power-down is traced at that slot, just before
    the engine's ``fault.fired`` event.
    """
    lane = run.row * n_nodes + position[node_id]
    done_j = float(kernel.done_work[lane])
    if kernel.power_down(lane) and run.obs.tracer.enabled:
        run.obs.tracer.append("nvp.task_aborted", slot, node_id, {"done_work_j": done_j})


class _RowTables:
    """Every material's per-slot labels and confidences, filled on demand.

    ``labels`` and ``confidences`` are ``(materials, nodes, slots)``; an
    entry holds its row's values once ``known``, which starts with the
    rows each material computed before the batch (all of them for a
    completed material).  ``material_of_row`` maps each batch row to
    its material.
    """

    def __init__(self, states: Sequence[_GroupState], node_ids: Sequence[int], n_slots: int):
        index: Dict[int, int] = {}
        self.materials: List[RunMaterial] = []
        material_of_row = []
        for state in states:
            m = index.setdefault(id(state.material), len(self.materials))
            if m == len(self.materials):
                self.materials.append(state.material)
            material_of_row.extend([m] * len(state.runs))
        self.material_of_row = np.array(material_of_row, dtype=np.int64)
        self.node_ids = list(node_ids)
        shape = (len(self.materials), len(self.node_ids), n_slots)
        self.labels = np.zeros(shape, dtype=np.int64)
        self.confidences = np.zeros(shape, dtype=np.float64)
        self.known = np.zeros(shape, dtype=bool)
        for m, material in enumerate(self.materials):
            for k, node_id in enumerate(self.node_ids):
                self.labels[m, k], self.confidences[m, k] = material.predictions(node_id)
                self.known[m, k] = material.filled(node_id)

    def fill(self, material: np.ndarray, node: np.ndarray, slot: np.ndarray, obs) -> None:
        """Bring in the rows at the ``(material, node, slot)`` index arrays.

        Rows no material has computed yet are computed together (one
        render, one predict and one softmax per model across the batch's
        materials), then read straight from the materials' columns.
        """
        shape = self.known.shape
        flat = np.unique(np.ravel_multi_index((material, node, slot), shape))
        material, node, slot = np.unravel_index(flat, shape)
        pair = material * shape[1] + node
        cuts = (np.flatnonzero(np.diff(pair)) + 1).tolist()
        groups = [
            (int(material[lo]), int(node[lo]), slot[lo:hi])
            for lo, hi in zip([0, *cuts], [*cuts, len(flat)])
        ]
        fill_rows(
            [(self.materials[m], self.node_ids[k], slots) for m, k, slots in groups], obs=obs
        )
        for m, k, slots in groups:
            labels, confidences = self.materials[m].predictions(self.node_ids[k])
            self.labels[m, k, slots] = labels[slots]
            self.confidences[m, k, slots] = confidences[slots]
        self.known.flat[flat] = True


def run_group_batch(
    experiment,
    groups: Sequence[BatchGroup],
    *,
    obs: Optional[Observability] = None,
) -> List[List[ExperimentResult]]:
    """Advance every run of every group in lockstep on one kernel.

    The mega-batch entry point: groups may differ in seed, traces,
    capacitor sizing, gains, dwell, material and fault plan — each
    contributes its own ``policies x nodes`` lane block to the batch's
    one :class:`SlotKernel` (gathered in one :meth:`SlotKernel.from_lanes`
    call from the batch's :class:`LaneTable`), so the whole
    cohort's physics advances with one numpy statement per rule per
    slot, and every run is one row of a single columnar
    :class:`~repro.core.engine.DecisionEngine`, called once per slot for
    scheduling and once for the decision.

    Returns one ``List[ExperimentResult]`` per group (one entry per
    policy, in order), each holding its row of the batch's ``(rows,
    slots)`` outcome arrays; no per-slot object is built.  Every result
    is byte-identical to running that
    group's ``(policy, seed, config, faults)`` alone through
    ``HARExperiment.run`` — per-lane physics is elementwise, and every
    engine row decides from its own row of state only.

    ``obs`` records every run's metrics into its registry, the batch's
    set-up (lane table, groups, engine, kernel and row tables) as one
    ``kernel.setup`` timer and each run's share of the batch as an
    ``experiment.run`` timer; when it traces, it appends each run's
    events to its tracer after the batch, in run order.  All groups must
    share one slot count (``config.n_windows``).
    """
    groups = list(groups)
    if not groups:
        return []
    obs = obs if obs is not None else NULL_OBS
    clock_start = perf_counter() if obs.enabled else 0.0

    configs = []
    for group in groups:
        if not group.policies:
            raise ConfigurationError("a batch group needs at least one policy")
        configs.append(group.config if group.config is not None else experiment.config)
    # One office walk per distinct seed for the whole batch.
    table = experiment.build_nodes(
        [(group.seed, config) for group, config in zip(groups, configs)]
    )
    states: List[_GroupState] = []
    rows: List[EngineRow] = []
    for g, (group, config) in enumerate(zip(groups, configs)):
        state, group_rows = _prepare_group(experiment, group, config, table, g, obs)
        states.append(state)
        rows.extend(group_rows)
    n_slots = table.n_slots
    node_ids = table.node_ids
    engine = DecisionEngine(rows, node_ids, experiment.bundle.rank_table)
    runs = [run for state in states for run in state.runs]
    shape = engine.shape
    n_rows, n_nodes = shape
    # Lane ``r * n_nodes + k`` is row ``r``'s copy of its group's node ``k``.
    setup_of_row = np.repeat(np.arange(len(states)), [len(state.runs) for state in states])
    kernel = SlotKernel.from_lanes(
        table, (setup_of_row[:, None] * n_nodes + np.arange(n_nodes)).reshape(-1)
    )
    # A node id's index in construction order: its lane offset in a run's block.
    position = {node_id: k for k, node_id in enumerate(node_ids)}
    for r, run in enumerate(runs):
        run.row = r
        if run.faults is not None:
            run.restart = functools.partial(engine.restart, r)
            run.power_down = functools.partial(_power_down, kernel, run, position, n_nodes)
    tables = _RowTables(states, node_ids, n_slots)
    material_of_row = tables.material_of_row
    if obs.enabled:
        obs.metrics.timer("kernel.setup").record(perf_counter() - clock_start)

    logger.debug(
        "kernel batch: %d group(s), %d lanes x %d slots",
        len(states), kernel.n_lanes, n_slots,
    )

    faulted = [run for run in runs if run.faults is not None]
    lossy = [run for run in runs if any(hook is not None for hook in run.links)]
    observed = [(run, state) for state in states for run in state.runs if run.obs.enabled]
    traced = obs.tracer.enabled
    predicted = np.zeros(shape, dtype=np.int64)
    confidence = np.zeros(shape, dtype=np.float64)
    delivered = np.ones(shape, dtype=bool)
    reported = np.full(shape, -1, dtype=np.int64)
    corrupted = np.zeros(shape, dtype=np.int64)
    link_energy = np.zeros(kernel.n_lanes, dtype=np.float64)
    finals = np.empty((n_slots, n_rows), dtype=np.int64)
    attempted = np.empty((n_slots, n_rows, n_nodes), dtype=bool)
    completions = np.empty((n_slots, n_rows, n_nodes), dtype=bool)
    dropped = np.zeros((n_slots, n_rows, n_nodes), dtype=bool)
    protocol_active: Dict[int, List[tuple]] = {r: [] for r in engine.protocol_active}
    online = None
    before: Optional[_LaneSnapshot] = None
    for slot in range(n_slots):
        if faulted:
            # Fault events fire at the slot boundary, before scheduling.
            online = np.ones(shape, dtype=bool)
            for run in faulted:
                run.faults.begin_slot(slot, run.restart, run.power_down)
                online[run.row] = [run.faults.node_online(n) for n in node_ids]
        active = engine.begin_slot(slot, kernel.ready_mask().reshape(shape), online=online)
        for r, ids in engine.protocol_active.items():
            protocol_active[r].append(tuple(ids))
        if traced:
            before = _LaneSnapshot.of(kernel)

        events = kernel.advance(slot, active.reshape(-1))

        done = events.completed.reshape(shape)
        started = events.started.reshape(shape)
        if lossy:
            delivered.fill(True)
            reported.fill(-1)
        if done.any():
            row, node = np.nonzero(done)
            material = material_of_row[row]
            at = started[row, node]
            fresh = ~tables.known[material, node, at]
            if fresh.any():
                tables.fill(material[fresh], node[fresh], at[fresh], obs)
            predicted[row, node] = tables.labels[material, node, at]
            confidence[row, node] = tables.confidences[material, node, at]
            # Each completion sends one result message; its radio energy
            # accumulates per link, message by message.
            np.add(link_energy, kernel.comm_cost_j, out=link_energy, where=events.completed)
            for run in lossy:
                # A lossy link decides each message in node order, so
                # the run's link RNG draws keep their order.
                r = run.row
                for k in done[r].nonzero()[0].tolist():
                    hook = run.links[k]
                    if hook is None:
                        continue
                    delivery = hook(slot, int(predicted[r, k]))
                    if not delivery.delivered:
                        delivered[r, k] = False
                    elif delivery.corrupted:
                        reported[r, k] = delivery.label
                        corrupted[r, k] += 1
        reports = SlotReports(active, done, delivered, predicted, reported, confidence, started)
        for run, state in observed:
            _observe_lanes(run, state, kernel, events, before, reports, slot)

        finals[slot] = engine.finish_slot(slot, reports)
        attempted[slot] = active
        completions[slot] = done
        if lossy:
            dropped[slot] = done & ~delivered

    # Per-run columns: row ``r`` of each ``(rows, slots)`` array.
    finals = np.ascontiguousarray(finals.T)
    n_tried, n_done, n_dropped = (
        np.ascontiguousarray(flags.sum(axis=2).T) for flags in (attempted, completions, dropped)
    )
    slot_index = np.arange(n_slots)
    # Each slot's active set as a bit code over the construction order.
    codes, inverse = np.unique(attempted @ (1 << np.arange(n_nodes)), return_inverse=True)
    active_sets = np.empty(len(codes), dtype=object)
    for i, code in enumerate(codes.tolist()):
        active_sets[i] = tuple(node_id for k, node_id in enumerate(node_ids) if code >> k & 1)
    active_rows = inverse.reshape(n_slots, n_rows).T
    sent = kernel.completions.reshape(shape)
    lost = dropped.sum(axis=0)
    lane_stats = kernel.node_stats()
    activities = experiment.dataset.spec.activities
    results: List[List[ExperimentResult]] = []
    for state in states:
        group_results: List[ExperimentResult] = []
        for run in state.runs:
            r = run.row
            base = r * n_nodes
            fault_stats = None
            if run.faults is not None:
                fault_stats = run.faults.finalize(
                    {
                        node_id: LinkStats(
                            messages_sent=int(sent[r, k]),
                            messages_delivered=int(sent[r, k] - lost[r, k]),
                            messages_dropped=int(lost[r, k]),
                            messages_corrupted=int(corrupted[r, k]),
                        )
                        for k, node_id in enumerate(node_ids)
                    }
                )
            result = ExperimentResult(
                policy_name=run.spec.name,
                activities=list(activities),
                slot_index=slot_index,
                true_label=state.material.true_labels,
                final_label=finals[r],
                completions=n_done[r],
                attempts=n_tried[r],
                dropped_messages=n_dropped[r],
                active_nodes=(
                    tuple(protocol_active[r])
                    if r in protocol_active
                    else tuple(active_sets[active_rows[r]].tolist())
                ),
                node_stats=dict(zip(node_ids, lane_stats[base:base + n_nodes])),
                comm_energy_j=sum(link_energy[base:base + n_nodes].tolist()),
                confidence_updates=int(engine.confidence_updates[r]),
                fault_stats=fault_stats,
            )
            if run.obs.enabled:
                _finish_observed_run(run, result, engine)
            group_results.append(result)
        results.append(group_results)
    if obs.enabled:
        share = (perf_counter() - clock_start) / len(runs)
        timer = obs.metrics.timer("experiment.run")
        for run in runs:
            timer.record(share)
            if traced:
                obs.tracer.absorb(run.obs.tracer)
    return results


def _observe_lanes(
    run: _RunState,
    state: _GroupState,
    kernel: SlotKernel,
    events: SlotEvents,
    before: Optional[_LaneSnapshot],
    reports: SlotReports,
    slot: int,
) -> None:
    """Metrics and (when tracing) node events of one run's active lanes."""
    r = run.row
    positions = np.flatnonzero(reports.attempted[r]).tolist()
    if not positions:
        return
    spans = run.obs.metrics.histogram("nvp.slots_per_inference")
    tracer = run.obs.tracer
    n_nodes = reports.attempted.shape[1]
    for k in positions:
        if reports.completed[r, k]:
            # Completed-inference span: slots from sensing to completion
            # (recall staleness's source).
            spans.observe(slot - int(reports.started[r, k]) + 1)
        if tracer.enabled:
            _trace_lane(
                tracer, kernel, events, before, r * n_nodes + k,
                slot=slot, node_id=state.node_ids[k], reports=reports, at=(r, k),
                result_message_bytes=state.message_bytes[k],
            )


def _finish_observed_run(
    run: _RunState, result: ExperimentResult, engine: DecisionEngine
) -> None:
    """Fold a finished run's counters into the metrics; trace its end.

    Everything here is a pure function of the simulated run, so
    sequential and parallel sweeps merge to identical values (the
    determinism contract of :mod:`repro.obs.metrics`).
    """
    decisions = int(engine.decisions[run.row])
    metrics = run.obs.metrics
    metrics.inc("sim.runs")
    metrics.inc("sim.slots", result.n_slots)
    metrics.inc("sim.attempts", result.total_attempts)
    metrics.inc("sim.completions", result.total_completions)
    metrics.inc("sim.messages_dropped", result.total_dropped_messages)
    metrics.inc("sim.confidence_updates", result.confidence_updates)
    metrics.inc("sim.decisions", decisions)
    metrics.inc("sim.messages_received", int(engine.messages_received[run.row]))
    correct = int(np.count_nonzero(result.final_label == result.true_label))
    metrics.inc("sim.correct_slots", correct)
    metrics.inc("sim.comm_energy_j", result.comm_energy_j)
    for node_id, stats in result.node_stats.items():
        prefix = f"node.{node_id}"
        metrics.inc(f"{prefix}.slots", stats.slots)
        metrics.inc(f"{prefix}.active_slots", stats.active_slots)
        metrics.inc(f"{prefix}.attempts_started", stats.attempts_started)
        metrics.inc(f"{prefix}.completions", stats.completions)
        metrics.inc(f"{prefix}.failed_active_slots", stats.failed_active_slots)
        metrics.inc(f"{prefix}.harvested_j", stats.harvested_j)
        metrics.inc(f"{prefix}.consumed_j", stats.consumed_j)
        metrics.inc(f"{prefix}.comm_j", stats.comm_j)
        metrics.inc(f"{prefix}.leaked_j", stats.leaked_j)
    tracer = run.obs.tracer
    if tracer.enabled:
        tracer.emit(
            "run.finished",
            policy=run.spec.name,
            completions=result.total_completions,
            decisions=decisions,
        )


def run_policy_batch(
    experiment,
    policies: Sequence[PolicySpec],
    seed: int,
    *,
    material: Optional[RunMaterial] = None,
    subject=None,
    config=None,
    faults: Optional[FaultPlan] = None,
    obs: Optional[Observability] = None,
) -> List[ExperimentResult]:
    """Run every policy for one seed on a single batched timeline.

    ``len(policies)`` runs advance in lockstep as lanes of one
    :class:`SlotKernel` (they share the seed's traces, material and
    fault plan), while each run keeps its own scheduler, host, voting,
    confidence matrix, link fault channels and fault engine.  Returns one
    :class:`~repro.sim.results.ExperimentResult` per policy, in order,
    each byte-identical to ``experiment.run(policy, seed=seed, ...)``.

    This is :func:`run_group_batch` with a single :class:`BatchGroup`.
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
                faults=faults,
            )
        ],
        obs=obs,
    )[0]
