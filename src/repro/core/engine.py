"""The policy decision core, shared by simulation and serving.

One slot of Origin's host-side logic — schedule, ingest node reports,
vote, adapt, observe — runs behind a two-phase per-slot API::

    active = engine.begin_slot(slot, ready, online=online)  # scheduling
    ... the caller runs/receives the physics for `active` ...
    final = engine.finish_slot(slot, reports)               # vote + adaptation

Two engines implement it, one per consumer shape:

* :class:`DecisionEngine` is columnar.  It decides for every run (a
  *row*) of one kernel batch at once, so :mod:`repro.sim.kernel` calls
  each phase once per slot however many runs the batch holds.  Flags
  and reports are ``(rows, nodes)`` arrays, and the decision state is
  arrays too: ER-r owner tables per cycle length, AAS activation,
  strike and backoff slots per (row, node), recall memory per (row,
  node), confidence matrices per (row, node, class).  A row whose
  scheduler is not one of the three built-ins is stepped through the
  :class:`~repro.core.scheduling.base.SchedulingPolicy` protocol, for
  that row only.  Fault plans reach only this engine: host restarts
  and completion hooks.
* :class:`SessionEngine` is scalar: one run, one scheduler object, one
  recall memory and one vote.  An online serving session
  (:mod:`repro.serve`) steps it one window at a time.  A session has
  one row, and a one-row columnar step costs 11–14x the scalar one
  (DESIGN §16).

``ready`` and ``online`` flags are in **node construction order**
(ER-r/AAS tie-breaking follows that order).  A node is responsive
exactly when it is online: an AAS choice that is offline draws a
strike, and after :data:`~repro.core.scheduling.aas.RETRY_BUDGET`
strikes the node backs off for one ER-r cycle.  Both engines make the
same decisions from the same inputs: a served session fed the states
and reports of an offline run produces the identical decision stream.

A node's slot report reaches the engines in one of two shapes: a batch
hands the columnar engine :class:`SlotReports` arrays, and a session
hands the scalar engine :class:`WireReport` records — the serving wire's
record, which :func:`wire_reports` reads off one row of the arrays.

The vote both engines cast:

* a label's vote weights are summed from 0.0 in recall-memory insertion
  order; a new report from a remembered node keeps its position, and a
  host restart clears the order;
* a vote weighs 1.0 under majority recall and ``0.5 * confidence + 0.5
  * matrix.weight(node, label)`` under confidence recall;
* ties within ``1e-12`` go to the label with the freshest
  ``started_slot``, then to the smaller label;
* a remembered vote never expires and never fades: it stays until the
  node reports again or the host restarts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import AggregationMode, PolicySpec
from repro.core.scheduling.aas import RETRY_BUDGET, ActivityAwareScheduler
from repro.core.scheduling.base import SchedulingContext
from repro.core.scheduling.naive import NaiveAllOn
from repro.core.scheduling.rank_table import RankTable
from repro.core.scheduling.round_robin import ExtendedRoundRobin
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.obs.observer import NULL_OBS, Observability

__all__ = [
    "DecisionEngine",
    "EngineRow",
    "NodeSlotState",
    "SessionEngine",
    "SlotReports",
    "WireReport",
    "wire_reports",
]

#: ``last_activated`` of a node AAS never chose: off cooldown at any slot.
_NEVER = -(1 << 62)
#: Sort key of recall slots that do not vote, after every real rank.
_LAST = np.iinfo(np.int64).max


@dataclass(frozen=True)
class NodeSlotState:
    """One node's state at the top of a slot, as a device reports it.

    The wire record of :mod:`repro.serve`: the engines themselves take
    the ``ready`` and ``online`` flags (see
    :meth:`SessionEngine.begin_slot`).  ``online=False`` models a
    dead/browned-out node: the scheduler sees it not-ready and
    unresponsive, and the node is filtered out of the active set even
    if the policy insists on it.
    """

    energy_j: float
    ready: bool
    online: bool = True


# ---------------------------------------------------------------------------
# the scalar engine
# ---------------------------------------------------------------------------


class SessionEngine:
    """Host-side per-slot decision logic for one served run.

    Owns the scheduler, the recall memory, the vote and the confidence
    matrix of a single run, advancing them one slot at a time.  It never
    touches node physics: callers hand it scheduler-visible node flags
    and completed-inference reports, which is exactly what lets it serve
    online traffic where the nodes live on the other end of a socket.
    Kernel batches use the columnar :class:`DecisionEngine` instead; the
    two decide alike.

    The recall memory (the paper's §III-B) holds each reporting node's
    most recent ``(label, confidence, started_slot)`` in insertion
    order.  The vote is rerun only when :attr:`messages_received` or
    the matrix's update count moved since the last one; otherwise the
    previous label is reused, still counted in :attr:`decisions`,
    observed and traced.

    Parameters
    ----------
    policy:
        The :class:`~repro.core.policies.PolicySpec` to execute.
    node_ids:
        Deployment node ids **in construction order** (scheduling
        tie-breaks follow this order).
    rank_table:
        Per-activity sensor ranking (required by activity-aware specs).
    confidence:
        The run's confidence matrix; adaptive policies mutate it in
        place, so a caller hands each run its own copy.
    obs:
        Observability bundle; the engine emits ``slot.scheduled`` /
        ``confidence.updated`` / ``vote.cast`` events and observes
        ``host.recall_age_slots`` when enabled.
    """

    def __init__(
        self,
        policy: PolicySpec,
        node_ids: Sequence[int],
        rank_table: Optional[RankTable],
        confidence: ConfidenceMatrix,
        *,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.policy = policy
        self._uses_recall = policy.uses_recall
        self._weighted = policy.aggregation is AggregationMode.CONFIDENCE_RECALL
        self.node_ids = list(node_ids)
        self.confidence = confidence
        self.obs = obs
        # Registered up front: an observed run reports it before any vote.
        self._recall_hist = (
            obs.metrics.histogram("host.recall_age_slots") if obs.enabled else None
        )
        self._memory: Dict[int, tuple] = {}
        #: Delivered reports ingested so far.
        self.messages_received = 0
        #: Votes cast so far (a reused vote counts again).
        self.decisions = 0
        self._vote_key: Optional[tuple] = None
        self._vote_label: Optional[int] = None
        self.scheduler = policy.make_scheduler(self.node_ids, rank_table)
        self.scheduler.reset()
        #: The most recent final classification (the anticipated label).
        self.last_final: Optional[int] = None
        self._confidence_updates_before = confidence.updates

    @property
    def confidence_updates(self) -> int:
        """Online confidence updates applied since construction."""
        return self.confidence.updates - self._confidence_updates_before

    # ------------------------------------------------------------------
    # the two slot phases
    # ------------------------------------------------------------------

    def begin_slot(
        self,
        slot: int,
        ready: Sequence[bool],
        *,
        online: Optional[Sequence[bool]] = None,
    ) -> List[int]:
        """Scheduling phase: pick (and trace) this slot's active set.

        ``ready`` holds one flag per node (could it finish a fresh
        inference now?) and ``online`` (default: all up) one power flag
        per node, both in construction order.  Offline nodes are
        masked: the scheduler sees them not-ready and unresponsive, and
        any offline id it picks anyway is dropped from the returned set.
        """
        if not isinstance(ready, list) and isinstance(ready, Mapping):
            raise TypeError(
                "begin_slot takes per-node ready flags in construction "
                "order, not a mapping"
            )
        node_ids = self.node_ids
        if len(ready) != len(node_ids) or (
            online is not None and len(online) != len(node_ids)
        ):
            raise SimulationError(
                f"begin_slot needs one flag per node ({len(node_ids)})"
            )
        scheduler = self.scheduler
        if not scheduler.is_compute_slot(slot):
            active: List[int] = []
        elif online is None:
            context = SchedulingContext(dict(zip(node_ids, ready)), self.last_final)
            active = scheduler.active_nodes(slot, context)
        else:
            node_ready = {
                node_id: (is_ready and is_up)
                for node_id, is_ready, is_up in zip(node_ids, ready, online)
            }
            # Responsive exactly when online, as in a batch row.
            up = dict(zip(node_ids, online))
            context = SchedulingContext(node_ready, self.last_final, up)
            active = [node_id for node_id in scheduler.active_nodes(slot, context) if up[node_id]]
        trace = self.obs.tracer
        if trace.enabled:
            trace.append(
                "slot.scheduled",
                slot,
                None,
                {"active": list(active), "anticipated": self.last_final},
            )
        return active

    def finish_slot(
        self,
        slot: int,
        reports: Sequence[WireReport],
        *,
        decide: bool = True,
    ) -> Optional[int]:
        """Decision phase: ingest reports, adapt, vote, observe.

        Each completed, delivered report enters the recall memory and,
        under an adaptive policy, folds its confidence into the matrix.

        Parameters
        ----------
        reports:
            This slot's node reports in node construction order.
        decide:
            ``False`` skips the vote (an overloaded serving session
            shedding work): reports are still ingested and the
            scheduler still observes the slot — with ``final=None`` —
            so the session stays consistent, but no decision is made
            and ``last_final`` is unchanged.
        """
        trace = self.obs.tracer
        memory = self._memory
        adaptive = self.policy.adaptive_confidence
        for report in reports:
            if not (report.completed and report.delivered):
                continue
            # The host stores and adapts on what arrived, including a
            # corrupted label.
            label = report.delivered_label
            confidence = report.confidence
            memory[report.node_id] = (
                label,
                0.0 if confidence is None else confidence,
                report.started_slot,
            )
            self.messages_received += 1
            if adaptive:
                self.confidence.update(report.node_id, label, confidence)
                if trace.enabled:
                    trace.append(
                        "confidence.updated",
                        slot,
                        report.node_id,
                        {"label": label, "confidence": float(confidence)},
                    )
        final: Optional[int] = None
        if decide:
            if self._uses_recall:
                final = self._classify(slot)
            else:
                completed = [r for r in reports if r.completed and r.delivered]
                if completed:
                    self.last_final = completed[-1].delivered_label
                final = self.last_final
            if final is not None:
                self.last_final = final
        # The scheduler is host-side: it never observes a result whose
        # message was lost in transit.
        self.scheduler.observe(slot, [r for r in reports if r.delivered], final)
        return final

    # ------------------------------------------------------------------
    # the recall vote
    # ------------------------------------------------------------------

    def _classify(self, slot: int) -> Optional[int]:
        """Vote over the recalled votes (``None``: none)."""
        votes = self._memory
        ages = None
        if self._recall_hist is not None:
            # Recall staleness: the age of every vote that participates
            # in this slot's ensemble (the paper's stale-recall risk).
            observe = self._recall_hist.observe
            ages = [slot - started for _, _, started in votes.values()]
            for age in ages:
                observe(age)
        if not votes:
            return None
        # Unchanged reports and weights mean an unchanged vote.
        key = (self.messages_received, self.confidence.updates)
        if key != self._vote_key:
            self._vote_label = self._tally(votes)
            self._vote_key = key
        label = self._vote_label
        self.decisions += 1
        trace = self.obs.tracer
        if trace.enabled:
            # A tracing bundle is enabled, so ``ages`` were observed above.
            trace.append(
                "vote.cast",
                slot,
                None,
                {"label": label, "n_votes": len(votes), "max_age": max(ages)},
            )
        return label

    def _tally(self, votes: Dict[int, tuple]) -> int:
        """The label with the largest summed weight; ties go to fresh evidence."""
        scores: Dict[int, float] = {}
        if self._weighted:
            prior = self.confidence.weight
            for node_id, (label, confidence, _) in votes.items():
                scores[label] = scores.get(label, 0.0) + (
                    0.5 * confidence + 0.5 * prior(node_id, label)
                )
        else:
            for label, _, _ in votes.values():
                scores[label] = scores.get(label, 0.0) + 1.0
        top = max(scores.values())
        tied = [label for label, score in scores.items() if abs(score - top) < 1e-12]
        if len(tied) == 1:
            return tied[0]
        freshest: Dict[int, int] = {}
        for label, _, started in votes.values():
            freshest[label] = max(freshest.get(label, -1), started)
        return max(tied, key=lambda label: (freshest[label], -label))


# ---------------------------------------------------------------------------
# the columnar engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineRow:
    """One run of a :class:`DecisionEngine` batch.

    ``confidence`` is the matrix the row votes with.  An adaptive row
    adapts a private copy of its weights at the matrix's
    ``adaptation_alpha`` and leaves the matrix untouched, so rows may
    share one matrix.  ``on_completion(node_id, slot)`` is called for
    every completed report, delivered or not (the fault engine's
    recovery hook).  ``obs`` carries the run's own trace buffer.
    """

    policy: Any
    confidence: ConfidenceMatrix
    obs: Observability = NULL_OBS
    on_completion: Optional[Callable[[int, int], None]] = None


class SlotReports(NamedTuple):
    """One slot's node reports for every row, as ``(rows, nodes)`` arrays.

    ``attempted`` marks the nodes that ran this slot.  The label and
    confidence fields are read only where ``completed``; ``delivered``
    is ``True`` on every lane whose message was not lost (incomplete
    lanes sent none), and ``reported`` holds the garbled label of a
    corrupted message, ``-1`` otherwise — the wire's ``reported_label``.
    """

    attempted: np.ndarray  # bool
    completed: np.ndarray  # bool
    delivered: np.ndarray  # bool
    predicted: np.ndarray  # int64: the node's own label
    reported: np.ndarray  # int64: the garbled label, or -1
    confidence: np.ndarray  # float64: transmitted confidence
    started: np.ndarray  # int64: slot whose window was classified


@dataclass(frozen=True)
class WireReport:
    """One node's slot report, as the host receives it.

    The wire record of :mod:`repro.serve`, what
    :meth:`SessionEngine.finish_slot` and a scheduler's ``observe``
    take, and what a batch row's protocol-stepped scheduler observes.
    Softmax vectors never cross the wire: only the label and the
    variance-of-softmax confidence, exactly what the paper's result
    message carries.  ``started_slot`` is the slot whose window was
    classified; ``reported_label`` is the garbled label of a corrupted
    message (``None`` otherwise).
    """

    node_id: int
    slot_index: int
    started_slot: int
    completed: bool
    delivered: bool = True
    predicted_label: Optional[int] = None
    confidence: Optional[float] = None
    reported_label: Optional[int] = None

    @property
    def delivered_label(self) -> Optional[int]:
        """The label as the host receives it (garbled if corrupted)."""
        return (
            self.reported_label
            if self.reported_label is not None
            else self.predicted_label
        )


class DecisionEngine:
    """Host-side per-slot decisions for every run of one kernel batch.

    Each row is one :class:`EngineRow`; every row shares ``node_ids``
    (construction order) and ``rank_table``.  The per-row counters a
    result needs are public arrays: :attr:`decisions`,
    :attr:`messages_received`, :attr:`confidence_updates`,
    :attr:`restarts` and :attr:`last_final` (``-1`` = no decision yet).
    """

    def __init__(
        self,
        rows: Sequence[EngineRow],
        node_ids: Sequence[int],
        rank_table: Optional[RankTable],
    ) -> None:
        rows = list(rows)
        if not rows:
            raise ConfigurationError("a decision engine needs at least one row")
        self.rows = rows
        self.node_ids = list(node_ids)
        n_rows, n_nodes = len(rows), len(self.node_ids)
        self.shape = (n_rows, n_nodes)
        self._position = {node_id: k for k, node_id in enumerate(self.node_ids)}
        self._row_index = np.arange(n_rows)

        # -- scheduling ------------------------------------------------
        schedulers = [row.policy.make_scheduler(self.node_ids, rank_table) for row in rows]
        cycles: List[List[int]] = []
        self._all_on = np.zeros(n_rows, dtype=bool)
        self._round_robin = np.zeros(n_rows, dtype=bool)
        self._aware = np.zeros(n_rows, dtype=bool)
        self._cooldown = np.zeros(n_rows, dtype=np.int64)
        #: ``(row, scheduler)`` of rows stepped through the protocol.
        self._protocol: List[tuple] = []
        tables: Dict[int, np.ndarray] = {}
        orders: Dict[int, np.ndarray] = {}
        for r, scheduler in enumerate(schedulers):
            kind = type(scheduler)
            cycle = [-1]
            # Parameters are read only off the exact built-in classes;
            # anything else keeps its own behaviour as a protocol row.
            if kind is NaiveAllOn and scheduler.node_ids == self.node_ids:
                self._all_on[r] = True
            elif kind is ExtendedRoundRobin:
                self._round_robin[r] = True
                cycle = self._owners(scheduler)
            elif kind is ActivityAwareScheduler and type(scheduler.base) is ExtendedRoundRobin:
                self._aware[r] = True
                cycle = self._owners(scheduler.base)
                self._cooldown[r] = scheduler.cooldown_slots
                table = scheduler.rank_table
                if id(table) not in tables:
                    tables[id(table)] = self._ranks(table)
                orders[r] = tables[id(table)]
            else:
                scheduler.reset()
                self._protocol.append((r, scheduler))
            cycles.append(cycle)
        # ER-r owner tables: one row of owner positions per run, padded
        # to the longest cycle; slot ``s`` reads column ``s % length``.
        longest = max(len(cycle) for cycle in cycles)
        self._cycle_length = np.array([len(cycle) for cycle in cycles], dtype=np.int64)
        self._owner = np.full((n_rows, longest), -1, dtype=np.int64)
        for r, cycle in enumerate(cycles):
            self._owner[r, : len(cycle)] = cycle
        #: Every row's schedule repeats with this period; the ER-r and
        #: AAS turns of each phase are computed once (:meth:`_phase`).
        self._period = math.lcm(*set(self._cycle_length.tolist()))
        self._phases: Dict[int, tuple] = {}
        self._all_on_mask = np.zeros((n_rows, n_nodes), dtype=bool)
        self._all_on_mask[self._all_on] = True
        # AAS rank positions per (row, label), best first; ``-1`` rows
        # are labels the row's table does not rank.
        n_labels = max((order.shape[0] for order in orders.values()), default=0)
        self._rank_order = np.full((n_rows, n_labels, n_nodes), -1, dtype=np.int64)
        for r, order in orders.items():
            self._rank_order[r, : order.shape[0]] = order
        self._rank_gaps = bool((self._rank_order[self._aware, :, 0] < 0).any())
        self._aware_rows = np.flatnonzero(self._aware)
        self._last_activated = np.full((n_rows, n_nodes), _NEVER, dtype=np.int64)
        self._strikes = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._backoff_until = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._anticipated = np.full(n_rows, -1, dtype=np.int64)
        #: Per protocol row, its last active list (scheduler order).
        self.protocol_active: Dict[int, List[int]] = {r: [] for r, _ in self._protocol}

        # -- host recall memory ---------------------------------------
        self._valid = np.zeros((n_rows, n_nodes), dtype=bool)
        self._label = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._confidence = np.zeros((n_rows, n_nodes), dtype=np.float64)
        self._started = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._rank = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._next_rank = np.zeros(n_rows, dtype=np.int64)
        self._recall_rows = np.array(
            [r for r, row in enumerate(rows) if row.policy.uses_recall], dtype=np.int64
        )
        self._last_rows = np.array(
            [r for r, row in enumerate(rows) if not row.policy.uses_recall], dtype=np.int64
        )
        weighted = np.array(
            [row.policy.aggregation is AggregationMode.CONFIDENCE_RECALL for row in rows]
        )
        self._weighted_recall = weighted[self._recall_rows]
        self._weighted_index = np.flatnonzero(self._weighted_recall)
        self._weighted_rows = self._recall_rows[self._weighted_index]
        # A vote is rerun only when its inputs moved: the memory or the
        # matrices.
        self._stale = True
        self._winner = np.full(self._recall_rows.size, -1, dtype=np.int64)
        self._voted = self._winner >= 0
        self._voter_index = np.arange(self._recall_rows.size)[:, None]

        # -- confidence matrices --------------------------------------
        self._n_classes = rows[0].confidence.n_classes
        self._weights = np.empty((n_rows, n_nodes, self._n_classes), dtype=np.float64)
        self._alpha = np.zeros(n_rows, dtype=np.float64)
        self._adaptive = np.zeros(n_rows, dtype=bool)
        seeded: Dict[int, np.ndarray] = {}
        for r, row in enumerate(rows):
            matrix = row.confidence
            if matrix.n_classes != self._n_classes:
                raise ConfigurationError("every row's matrix must cover the same classes")
            if id(matrix) not in seeded:
                seeded[id(matrix)] = np.stack([matrix.row(n) for n in self.node_ids])
            self._weights[r] = seeded[id(matrix)]
            self._alpha[r] = matrix.adaptation_alpha
            self._adaptive[r] = bool(row.policy.adaptive_confidence)
        self.confidence_updates = np.zeros(n_rows, dtype=np.int64)

        # -- per-run python: hooks and observability ------------------
        self._hooks = [(r, row.on_completion) for r, row in enumerate(rows) if row.on_completion]
        self._traced = [r for r, row in enumerate(rows) if row.obs.tracer.enabled]
        self._traced_set = set(self._traced)
        # Registered up front, as the session engine does.
        self._recall_hist = {
            r: row.obs.metrics.histogram("host.recall_age_slots")
            for r, row in enumerate(rows)
            if row.obs.enabled
        }

        self.last_final = np.full(n_rows, -1, dtype=np.int64)
        self.decisions = np.zeros(n_rows, dtype=np.int64)
        self.messages_received = np.zeros(n_rows, dtype=np.int64)
        self.restarts = np.zeros(n_rows, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _owners(self, scheduler: ExtendedRoundRobin) -> List[int]:
        """An ER-r cycle as node positions, ``-1`` on no-op slots."""
        return [-1 if owner is None else self._position[owner] for owner in scheduler.cycle]

    def _ranks(self, table: RankTable) -> np.ndarray:
        """``(labels, nodes)`` positions best first; ``-1`` rows are unranked labels."""
        labels = table.labels
        order = np.full((max(labels) + 1, len(self.node_ids)), -1, dtype=np.int64)
        for label in labels:
            order[label] = [self._position[node_id] for node_id in table.ranked_nodes(label)]
        return order

    # ------------------------------------------------------------------
    # host state
    # ------------------------------------------------------------------

    def restart(self, row: int) -> None:
        """Reboot one row's host: its recall memory goes.

        Cumulative counters survive: they are bookkeeping, not host RAM.
        """
        self._valid[row] = False
        self.restarts[row] += 1
        self._stale = True

    def matrix(self, row: int) -> np.ndarray:
        """One row's confidence weights, ``(nodes, classes)`` in node-id
        order (the layout of :meth:`ConfidenceMatrix.as_array`)."""
        return self._weights[row][np.argsort(self.node_ids)]

    # ------------------------------------------------------------------
    # the two slot phases
    # ------------------------------------------------------------------

    def begin_slot(
        self,
        slot: int,
        ready: np.ndarray,
        *,
        online: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Scheduling phase: every row's active set as a ``(rows, nodes)`` mask.

        ``ready`` says whether each node could finish a fresh inference
        now; ``online`` (default: all up) masks dead or browned-out
        nodes, which the schedulers see not-ready and unresponsive and
        which are dropped from the active set even when chosen.  AAS
        charges a strike to an offline node it chooses.
        """
        shape = self.shape
        ready = np.asarray(ready, dtype=bool)
        if ready.shape != shape or (online is not None and online.shape != shape):
            raise SimulationError(f"begin_slot needs one flag per row and node {shape}")
        can_run = ready if online is None else ready & online
        turn, turn_owner, aware, aware_owner = self._phase(slot)
        active = self._all_on_mask.copy()
        active[turn, turn_owner] = True
        if aware.size:
            chosen = self._select(slot, aware, aware_owner, can_run, online)
            active[aware, chosen] = True
        for r, scheduler in self._protocol:
            self.protocol_active[r] = self._protocol_begin(
                slot, r, scheduler, can_run[r], online
            )
            active[r, [self._position[n] for n in self.protocol_active[r]]] = True
        if online is not None:
            active &= online
        for r in self._traced:
            self.rows[r].obs.tracer.append(
                "slot.scheduled",
                slot,
                None,
                {"active": self.active_ids(r, active), "anticipated": self._final_of(r)},
            )
        return active

    def _phase(self, slot: int) -> tuple:
        """The ER-r rows whose owner runs at ``slot`` and the AAS rows on
        a compute slot: ``(rows, owners, aware rows, their owners)``."""
        phase = slot % self._period
        plan = self._phases.get(phase)
        if plan is None:
            owner = self._owner[self._row_index, phase % self._cycle_length]
            turn = (self._round_robin & (owner >= 0)).nonzero()[0]
            aware = (self._aware & (owner >= 0)).nonzero()[0]
            plan = self._phases[phase] = (turn, owner[turn], aware, owner[aware])
        return plan

    def _select(
        self,
        slot: int,
        rows: np.ndarray,
        owner: np.ndarray,
        can_run: np.ndarray,
        online: Optional[np.ndarray],
    ) -> np.ndarray:
        """AAS on a compute slot: each row's chosen node position.

        The anticipated label is the last final decision, else the
        scheduler's own; without one the ER-r owner runs.  Otherwise the
        best-ranked node that is reachable, rested and ready wins, then
        the best rested one, then the best reachable one (every node
        when all are backing off).
        """
        anticipated = self.last_final[rows]
        anticipated = np.where(anticipated >= 0, anticipated, self._anticipated[rows])
        chosen = owner.copy()
        known = np.flatnonzero(anticipated >= 0)
        if known.size:
            r = rows[known]
            labels = anticipated[known]
            n_labels = self._rank_order.shape[1]
            if labels.max() >= n_labels or (
                self._rank_gaps and (self._rank_order[r, labels, 0] < 0).any()
            ):
                for row, label in zip(r.tolist(), labels.tolist()):
                    if label >= n_labels or self._rank_order[row, label, 0] < 0:
                        raise SchedulingError(f"no ranking for class {label}")
            ranked = self._rank_order[r, labels]
            column = r[:, None]
            reachable = slot >= self._backoff_until[column, ranked]
            candidates = reachable | ~reachable.any(axis=1, keepdims=True)
            rested = candidates & (
                slot - self._last_activated[column, ranked] >= self._cooldown[column]
            )
            tier = 4 * (rested & can_run[column, ranked]) + 2 * rested + candidates
            chosen[known] = ranked[np.arange(r.size), np.argmax(tier, axis=1)]
        # A chosen node counts as activated even if it is then masked
        # offline; only an offline choice draws a strike.
        self._last_activated[rows, chosen] = slot
        strikes = self._strikes[rows, chosen] + 1
        if online is None:
            strikes[:] = 0
        else:
            strikes[online[rows, chosen]] = 0
            out = strikes >= RETRY_BUDGET
            self._backoff_until[rows[out], chosen[out]] = slot + self._cycle_length[rows[out]]
            strikes[out] = 0
        self._strikes[rows, chosen] = strikes
        return chosen

    def _protocol_begin(
        self,
        slot: int,
        r: int,
        scheduler,
        can_run: np.ndarray,
        online: Optional[np.ndarray],
    ) -> List[int]:
        """One protocol row's active list, in the scheduler's order."""
        if not scheduler.is_compute_slot(slot):
            return []
        node_ready = dict(zip(self.node_ids, can_run.tolist()))
        if online is None:
            context = SchedulingContext(node_ready, self._final_of(r))
            return list(scheduler.active_nodes(slot, context))
        # Responsive exactly when online; an offline choice is dropped.
        up = dict(zip(self.node_ids, online[r].tolist()))
        context = SchedulingContext(node_ready, self._final_of(r), up)
        return [node_id for node_id in scheduler.active_nodes(slot, context) if up[node_id]]

    def active_ids(self, row: int, active: np.ndarray) -> List[int]:
        """One row's active node ids: scheduler order on a protocol row,
        construction order otherwise."""
        if row in self.protocol_active:
            return list(self.protocol_active[row])
        return [self.node_ids[k] for k in active[row].nonzero()[0].tolist()]

    def _final_of(self, row: int) -> Optional[int]:
        final = int(self.last_final[row])
        return None if final < 0 else final

    def finish_slot(self, slot: int, reports: SlotReports) -> np.ndarray:
        """Decision phase: ingest reports, adapt, vote, observe.

        Completed, delivered reports reach each row's host first; then,
        per completed report in node order, the row's completion hook
        fires and an adaptive row folds a delivered confidence into its
        matrix.  Recall rows vote over their memory, the others keep the
        last delivered label; the schedulers observe what arrived.
        Returns each row's final label, ``-1`` for no decision.
        """
        completed = reports.completed
        got = None
        if completed.any():
            got = completed & reports.delivered
            label = np.where(reports.reported >= 0, reports.reported, reports.predicted)
            adapt = got & self._adaptive[:, None]
            if got.any():
                self._receive(got, label, reports)
                if adapt.any():
                    self._adapt(adapt, label, reports.confidence)
            for r, hook in self._hooks:
                traced = r in self._traced_set
                for k in completed[r].nonzero()[0].tolist():
                    hook(self.node_ids[k], slot)
                    if traced and adapt[r, k]:
                        self._trace_update(slot, r, k, label, reports.confidence)
            for r in self._traced:
                if self.rows[r].on_completion is None:
                    for k in adapt[r].nonzero()[0].tolist():
                        self._trace_update(slot, r, k, label, reports.confidence)

        final = self.last_final.copy()
        if self._recall_rows.size:
            final[self._recall_rows] = self._vote(slot)
        last = self._last_rows
        if last.size and got is not None:
            last_got = got[last]
            heard = last_got.any(axis=1)
            k = last_got.shape[1] - 1 - np.argmax(last_got[:, ::-1], axis=1)
            final[last] = np.where(heard, label[last, k], final[last])
        self.last_final = np.where(final >= 0, final, self.last_final)
        self._observe(slot, got, reports, final)
        return final

    def _receive(self, got: np.ndarray, label: np.ndarray, reports: SlotReports) -> None:
        """Write delivered reports into recall memory, keeping insertion order."""
        new = got & ~self._valid
        if new.any():
            ranks = self._next_rank[:, None] + np.cumsum(new, axis=1) - 1
            self._rank[new] = ranks[new]
            self._next_rank += new.sum(axis=1)
        self._valid |= got
        self._label[got] = label[got]
        self._confidence[got] = reports.confidence[got]
        self._started[got] = reports.started[got]
        self.messages_received += got.sum(axis=1)
        self._stale = True

    def _adapt(self, adapt: np.ndarray, label: np.ndarray, confidence: np.ndarray) -> None:
        """Fold delivered confidences into the matrices (moving average)."""
        rows, nodes = np.nonzero(adapt)
        labels = label[rows, nodes]
        scores = confidence[rows, nodes]
        bad = ~(np.isfinite(scores) & (scores >= 0))
        if bad.any():
            raise ConfigurationError(
                f"confidence must be >= 0 and finite, got {float(scores[bad][0])}"
            )
        if ((labels < 0) | (labels >= self._n_classes)).any():
            raise ConfigurationError(f"label {int(labels.max())} out of range")
        # Rows with a zero alpha adapt nothing and count nothing.
        live = self._alpha[rows] != 0.0
        self._stale = True
        if live.any():
            rows, nodes, labels, scores = rows[live], nodes[live], labels[live], scores[live]
            current = self._weights[rows, nodes, labels]
            self._weights[rows, nodes, labels] = current + self._alpha[rows] * (scores - current)
            np.add.at(self.confidence_updates, rows, 1)

    def _trace_update(
        self, slot: int, r: int, k: int, label: np.ndarray, confidence: np.ndarray
    ) -> None:
        self.rows[r].obs.tracer.append(
            "confidence.updated",
            slot,
            self.node_ids[k],
            {"label": int(label[r, k]), "confidence": float(confidence[r, k])},
        )

    def _vote(self, slot: int) -> np.ndarray:
        """The recall rows' votes over their memory; ``-1`` for no votes.

        A vote counts as a decision, is observed and is traced on every
        slot, but it is recomputed only when something it reads moved.
        """
        rows = self._recall_rows
        if self._stale or self._recall_hist:
            part = self._valid[rows]
        if self._stale:
            self._winner = self._tally(rows, part)
            self._voted = self._winner >= 0
            self._stale = False
        self.decisions[rows] += self._voted
        if self._recall_hist:
            self._observe_votes(slot, rows, part, self._winner)
        return self._winner

    def _tally(self, rows: np.ndarray, part: np.ndarray) -> np.ndarray:
        """Each row's winning label over its remembered votes, or ``-1``.

        Votes are taken in memory insertion order; a label's score is
        the running sum of its votes' weights from 0.0, then the top
        score wins, ties within ``1e-12`` going to the freshest
        ``started_slot`` and then to the smaller label.
        """
        n_nodes = self.shape[1]
        labels = self._label[rows]
        weight = np.ones(part.shape)
        weighted = self._weighted_index
        if weighted.size:
            # Half the transmitted confidence, half the matrix prior.
            w_rows = self._weighted_rows
            prior = self._weights[w_rows[:, None], np.arange(n_nodes), labels[weighted]]
            weight[weighted] = 0.5 * self._confidence[w_rows] + 0.5 * prior

        index = self._voter_index
        order = np.argsort(np.where(part, self._rank[rows], _LAST), axis=1, kind="stable")
        voting = part[index, order]
        labels = labels[index, order]
        weight = np.where(voting, weight[index, order], 0.0)
        started = self._started[rows][index, order]
        # ``same[:, i, j]``: vote i counts toward vote j's label.
        same = (labels[:, :, None] == labels[:, None, :]) & voting[:, :, None]
        score = np.zeros(labels.shape)
        for i in range(n_nodes):
            score = score + np.where(same[:, i], weight[:, i, None], 0.0)
        freshest = np.where(same, started[:, :, None], -1).max(axis=1)
        top = np.where(voting, score, -np.inf).max(axis=1)
        tied = voting & (np.abs(score - top[:, None]) < 1e-12)
        key = np.where(tied, freshest * (self._n_classes + 1) + (self._n_classes - labels), -1)
        best = np.argmax(key, axis=1)
        winner = labels[np.arange(rows.size), best]
        return np.where(voting.any(axis=1), winner, -1)

    def _observe_votes(
        self,
        slot: int,
        rows: np.ndarray,
        part: np.ndarray,
        winner: np.ndarray,
    ) -> None:
        """Recall-age histograms and ``vote.cast`` events of observed rows."""
        age = slot - self._started[rows]
        for i, r in enumerate(rows.tolist()):
            histogram = self._recall_hist.get(r)
            if histogram is None:
                continue
            ages = age[i][part[i]].tolist()
            for value in ages:
                histogram.observe(value)
            if winner[i] >= 0 and r in self._traced_set:
                self.rows[r].obs.tracer.append(
                    "vote.cast",
                    slot,
                    None,
                    {"label": int(winner[i]), "n_votes": len(ages), "max_age": max(ages)},
                )

    def _observe(
        self, slot: int, got: Optional[np.ndarray], reports: SlotReports, final: np.ndarray
    ) -> None:
        """The schedulers' feedback: what arrived (``None``: nothing
        completed), and the final label."""
        aware = self._aware_rows
        if aware.size:
            fallback = self._anticipated[aware]
            if got is not None:
                heard = got[aware]
                cleared = got & self._aware[:, None]
                self._strikes[cleared] = 0
                self._backoff_until[cleared] = 0
                k = heard.shape[1] - 1 - np.argmax(heard[:, ::-1], axis=1)
                fallback = np.where(heard.any(axis=1), reports.predicted[aware, k], fallback)
            self._anticipated[aware] = np.where(final[aware] >= 0, final[aware], fallback)
        for r, scheduler in self._protocol:
            label = int(final[r])
            scheduler.observe(
                slot,
                wire_reports(slot, reports, self.node_ids, row=r),
                None if label < 0 else label,
            )


def wire_reports(
    slot: int, reports: SlotReports, node_ids: Sequence[int], *, row: int = 0
) -> List[WireReport]:
    """One row's delivered reports, node construction order, as wire records.

    A served device's window frame and a protocol row's scheduler
    feedback are both built here; ``node_ids`` names the columns.
    """
    out = []
    for k in (reports.attempted[row] & reports.delivered[row]).nonzero()[0].tolist():
        node_id = node_ids[k]
        started = int(reports.started[row, k])
        if not reports.completed[row, k]:
            out.append(WireReport(node_id, slot, started, False))
            continue
        reported = int(reports.reported[row, k])
        out.append(
            WireReport(
                node_id,
                slot,
                started,
                True,
                predicted_label=int(reports.predicted[row, k]),
                confidence=float(reports.confidence[row, k]),
                reported_label=None if reported < 0 else reported,
            )
        )
    return out
