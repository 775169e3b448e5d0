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
  arrays too: each row's ER-r cycle, AAS rest, strike and backoff
  slots per (row, node), recall memory per (row, slot) in insertion
  order, confidence matrices per (row, node, class).  A row whose
  scheduler is not one of the three built-ins is stepped through the
  :class:`~repro.core.scheduling.base.SchedulingPolicy` protocol, for
  that row only.  Fault plans reach only this engine: host restarts
  and completion hooks.
* :class:`SessionEngine` is scalar: one run, one scheduler object, one
  recall memory and one vote.  An online serving session
  (:mod:`repro.serve`) steps it one window at a time.  A session has
  one row, and a one-row columnar step costs about 5x the scalar one
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

#: ``rested_from`` of a node AAS never chose: off cooldown at any slot.
_NEVER = -(1 << 62)
#: Tie-break key of a label that is not tied for the top score.
_UNTIED = np.iinfo(np.int64).min
#: Schedule phases whose plan a columnar engine keeps.
_PLANS = 1024


@dataclass(frozen=True)
class NodeSlotState:
    """One node's state at the top of a slot, as a device reports it.

    The record a simulated device (:mod:`repro.serve.client`) puts on
    the wire; the engines themselves take the ``ready`` and ``online``
    flags (see :meth:`SessionEngine.begin_slot`), which the server reads
    straight off the wire.  ``online=False`` models a
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

        The slot is checked before any state changes, as in
        :meth:`DecisionEngine.finish_slot`: every delivered label must be
        a class, and every confidence a confidence-weighted session
        receives finite and >= 0.
        """
        n_classes = self.confidence.n_classes
        for report in reports:
            if report.completed and report.delivered:
                label = report.delivered_label
                if label is None or not 0 <= label < n_classes:
                    raise ConfigurationError(f"label {label} out of range")
                confidence = report.confidence
                if self._weighted and not (
                    confidence is None or 0.0 <= confidence < math.inf
                ):
                    raise ConfigurationError(
                        f"confidence must be >= 0 and finite, got {confidence}"
                    )
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

    A slot makes a fixed number of numpy calls, whatever the batch
    holds, and only the rows a report or a restart touched revote.
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
        self._n_classes = n_classes = rows[0].confidence.n_classes

        # -- scheduling ------------------------------------------------
        self._all_on = np.zeros(n_rows, dtype=bool)
        self._round_robin = np.zeros(n_rows, dtype=bool)
        self._aware = np.zeros(n_rows, dtype=bool)
        self._cooldown = np.zeros(n_rows, dtype=np.int64)
        # Each ER-r row's cadence, read as ExtendedRoundRobin.slot_owner
        # does: slot ``s`` is node ``k``'s turn when ``divmod(s % length,
        # stride) == (k, 0)``.  Other rows keep a one-slot cycle.
        self._cycle_length = np.ones(n_rows, dtype=np.int64)
        self._stride = np.ones(n_rows, dtype=np.int64)
        #: ``(row, scheduler)`` of rows stepped through the protocol.
        self._protocol: List[tuple] = []
        # AAS: the rank order each row follows per anticipated label; the
        # last column (index -1) is "no decision yet", -2 an unranked label.
        self._order_of = np.full((n_rows, n_classes + 1), -1, dtype=np.int64)
        orders: Dict[tuple, int] = {}
        ranked: Dict[int, List[int]] = {}
        for r, row in enumerate(rows):
            scheduler = row.policy.make_scheduler(self.node_ids, rank_table)
            kind = type(scheduler)
            aware = kind is ActivityAwareScheduler and type(scheduler.base) is ExtendedRoundRobin
            base = scheduler.base if aware else scheduler
            # Parameters are read only off the exact built-in classes over
            # this deployment's node order; anything else keeps its own
            # behaviour as a protocol row.
            if not (aware or kind in (NaiveAllOn, ExtendedRoundRobin)) or (
                base.node_ids != self.node_ids
            ):
                scheduler.reset()
                self._protocol.append((r, scheduler))
            elif kind is NaiveAllOn:
                self._all_on[r] = True
            else:
                self._cycle_length[r] = base.cycle_length
                self._stride[r] = base.noops_per_node + 1
                self._round_robin[r] = not aware
                self._aware[r] = aware
            if self._aware[r]:
                self._cooldown[r] = scheduler.cooldown_slots
                table = scheduler.rank_table
                if id(table) not in ranked:
                    ranked[id(table)] = self._orders(table, orders)
                self._order_of[r, :n_classes] = ranked[id(table)]
        #: Every row's schedule repeats with this period; the turns of a
        #: phase are computed once (:meth:`_plan`).
        self._period = math.lcm(*set(self._cycle_length.tolist()))
        self._plans: Dict[int, tuple] = {}
        self._all_on_mask = np.zeros((n_rows, n_nodes), dtype=bool)
        self._all_on_mask[self._all_on] = True
        # ``[order, node]``: the node's rank in the order as a fraction
        # below 1, higher for better nodes (a choice adds its tier flags);
        # the last row, all 0, serves undecided rows.
        self._rank_key = np.zeros((len(orders) + 1, n_nodes), dtype=np.float64)
        for order, o in orders.items():
            self._rank_key[o, list(order)] = np.arange(n_nodes, 0, -1) / (n_nodes + 1)
        # AAS per (row, node): the slot from which the node is rested
        # again, strikes, and the slot its backoff ends.
        self._rested_from = np.full((n_rows, n_nodes), _NEVER, dtype=np.int64)
        self._strikes = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._backoff_until = np.zeros((n_rows, n_nodes), dtype=np.int64)
        #: Whether ``online`` flags ever struck, and when every backoff ends.
        self._struck = False
        self._backoff_end = 0
        #: Per protocol row, its last active list (scheduler order).
        self.protocol_active: Dict[int, List[int]] = {r: [] for r, _ in self._protocol}

        # -- host recall memory, in insertion order --------------------
        # Slot ``i`` of a row holds the ``i``-th node to report since the
        # row's last restart; a node's later report keeps its slot.  An
        # empty slot's label is -1; a majority vote weighs 1.0.
        # ``_slot_of[row, node]`` is the node's flat memory index, or -1.
        self._slot_of = np.full((n_rows, n_nodes), -1, dtype=np.int64)
        self._filled = np.zeros(n_rows, dtype=np.int64)
        self._memory_label = np.full((n_rows, n_nodes), -1, dtype=np.int64)
        self._memory_weight = np.ones((n_rows, n_nodes), dtype=np.float64)
        self._memory_started = np.zeros((n_rows, n_nodes), dtype=np.int64)
        self._recall = np.array([row.policy.uses_recall for row in rows])
        self._weighted = np.array(
            [row.policy.aggregation is AggregationMode.CONFIDENCE_RECALL for row in rows]
        )
        self._adaptive = np.array([bool(row.policy.adaptive_confidence) for row in rows])
        if (self._adaptive & ~self._weighted).any():
            raise ConfigurationError("adaptive_confidence requires CONFIDENCE_RECALL aggregation")
        self._classes = np.arange(n_classes)
        #: Each row's decision this slot (-1: none): a recall row's vote,
        #: a last-inference row's last delivered label.
        self._final = np.full(n_rows, -1, dtype=np.int64)
        self._voting = np.zeros(n_rows, dtype=bool)

        # -- confidence matrices --------------------------------------
        self._weights = np.empty((n_rows, n_nodes, n_classes), dtype=np.float64)
        self._alpha = np.zeros(n_rows, dtype=np.float64)
        seeded: Dict[int, np.ndarray] = {}
        for r, row in enumerate(rows):
            matrix = row.confidence
            if matrix.n_classes != n_classes:
                raise ConfigurationError("every row's matrix must cover the same classes")
            if id(matrix) not in seeded:
                seeded[id(matrix)] = np.stack([matrix.row(n) for n in self.node_ids])
            self._weights[r] = seeded[id(matrix)]
            if self._adaptive[r]:
                self._alpha[r] = matrix.adaptation_alpha
        # Rows with a zero alpha adapt nothing and count nothing.
        self._adapts = self._alpha != 0.0
        self._weighing = bool(self._weighted.any())

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
        self._observed_recall = [r for r in self._recall_hist if self._recall[r]]

        self.last_final = np.full(n_rows, -1, dtype=np.int64)
        self.decisions = np.zeros(n_rows, dtype=np.int64)
        self.messages_received = np.zeros(n_rows, dtype=np.int64)
        self.restarts = np.zeros(n_rows, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _orders(self, table: RankTable, orders: Dict[tuple, int]) -> List[int]:
        """Per class, the id in ``orders`` of the table's node positions
        best first; -2 for a class the table does not rank."""
        ranked = set(table.labels)
        return [
            orders.setdefault(tuple(self._position[n] for n in table.ranked_nodes(c)), len(orders))
            if c in ranked
            else -2
            for c in range(self._n_classes)
        ]

    # ------------------------------------------------------------------
    # host state
    # ------------------------------------------------------------------

    def restart(self, row: int) -> None:
        """Reboot one row's host: its recall memory goes.

        Cumulative counters survive: they are bookkeeping, not host RAM.
        """
        self._slot_of[row] = -1
        self._filled[row] = 0
        self._memory_label[row] = -1
        if self._recall[row]:
            self._final[row] = -1
            self._voting[row] = False
        self.restarts[row] += 1

    @property
    def confidence_updates(self) -> np.ndarray:
        """Per row, online matrix updates so far: an adapting row adapts
        once per received report."""
        return self.messages_received * self._adapts

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
        turns, aware, owner, cooldown = self._plan(slot)
        active = turns.copy()
        if aware.size:
            chosen = self._select(slot, aware, owner, cooldown, can_run, online)
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

    def _plan(self, slot: int) -> tuple:
        """The schedule at ``slot``: the all-on and ER-r turns as a mask,
        then the AAS rows on a compute slot, their ER-r owners and their
        cooldowns."""
        phase = slot % self._period
        plan = self._plans.get(phase)
        if plan is None:
            owner, offset = np.divmod(slot % self._cycle_length, self._stride)
            turns = self._all_on_mask.copy()
            rows = np.flatnonzero(self._round_robin & (offset == 0))
            turns[rows, owner[rows]] = True
            aware = np.flatnonzero(self._aware & (offset == 0))
            plan = (turns, aware, owner[aware], self._cooldown[aware])
            if len(self._plans) < _PLANS:
                self._plans[phase] = plan
        return plan

    def _select(
        self,
        slot: int,
        rows: np.ndarray,
        owner: np.ndarray,
        cooldown: np.ndarray,
        can_run: np.ndarray,
        online: Optional[np.ndarray],
    ) -> np.ndarray:
        """AAS on a compute slot: each row's chosen node position.

        The anticipated label is the last final decision; without one
        the ER-r owner runs.  Otherwise the best-ranked node that is
        reachable, rested and ready wins, then the best rested one,
        then the best reachable one (every node when all are backing
        off).
        """
        labels = self.last_final[rows]
        order = self._order_of[rows, labels]
        lowest = np.minimum.reduce(order)
        if lowest < -1:
            raise SchedulingError(f"no ranking for class {int(labels[order < -1][0])}")
        # Tier flags over the rank key: the argmax is the best-ranked node
        # of the best non-empty tier.
        key = self._rank_key[order]
        if lowest < 0:
            # No decision yet: the ER-r owner runs.
            undecided = order < 0
            key[undecided, owner[undecided]] = 4.0
        rested = self._rested_from[rows] <= slot
        if slot < self._backoff_end:
            reachable = self._backoff_until[rows] <= slot
            candidates = reachable | ~reachable.any(axis=1, keepdims=True)
            rested &= candidates
            key += candidates
        key += rested
        key += rested & can_run[rows]
        chosen = key.argmax(axis=1)
        # A chosen node counts as activated even if it is then masked
        # offline; only an offline choice draws a strike.
        self._rested_from[rows, chosen] = slot + cooldown
        if online is not None:
            self._struck = True
            strikes = np.where(online[rows, chosen], 0, self._strikes[rows, chosen] + 1)
            out = strikes >= RETRY_BUDGET
            if out.any():
                until = slot + self._cycle_length[rows[out]]
                self._backoff_until[rows[out], chosen[out]] = until
                self._backoff_end = max(self._backoff_end, int(until.max()))
                strikes[out] = 0
            self._strikes[rows, chosen] = strikes
        elif self._struck:
            self._strikes[rows, chosen] = 0
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

        The slot is checked before any state changes: every array must
        be ``(rows, nodes)``, every delivered label a class, and every
        confidence a confidence-weighted row receives finite and >= 0.
        """
        shape = self.shape
        for name, column in zip(SlotReports._fields, reports):
            if getattr(column, "shape", None) != shape:
                raise SimulationError(
                    f"finish_slot needs {name} as one value per row and node {shape}, "
                    f"got {np.shape(column)}"
                )
        got = reports.completed & reports.delivered
        entries = got.ravel().nonzero()[0]
        if entries.size:
            self._ingest(reports, entries)
        if self._hooks or self._traced:
            self._notify(slot, reports, got)
        self.decisions += self._voting
        final = self._final.copy()
        if self._observed_recall:
            self._observe_votes(slot)
        self._observe(slot, reports, final)
        return final

    def _ingest(self, reports: SlotReports, entries: np.ndarray) -> None:
        """Check, store and adapt the delivered reports at the flat
        ``(row, node)`` indices ``entries``, then revote the recall rows
        they reached."""
        n_rows, n_nodes = self.shape
        rows = entries // n_nodes
        labels = np.where(reports.reported >= 0, reports.reported, reports.predicted).take(entries)
        if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= self._n_classes:
            bad = labels[(labels < 0) | (labels >= self._n_classes)]
            raise ConfigurationError(f"label {int(bad[0])} out of range")
        # Only a confidence-weighted row reads the confidence.
        weighted = self._weighted[rows]
        scores = np.where(weighted, reports.confidence.take(entries), 0.0)
        if not (np.minimum.reduce(scores) >= 0.0 and np.maximum.reduce(scores) < math.inf):
            bad = scores[~(np.isfinite(scores) & (scores >= 0))]
            raise ConfigurationError(f"confidence must be >= 0 and finite, got {float(bad[0])}")

        # Recall memory: a new node takes its row's next free slot, and
        # new nodes of one row take them in node order.
        memory = self._slot_of.take(entries)
        if np.minimum.reduce(memory) < 0:
            new = memory < 0
            new_rows = rows[new]
            rank = np.arange(new_rows.size) - np.searchsorted(new_rows, new_rows)
            memory[new] = new_rows * n_nodes + self._filled[new_rows] + rank
            self._slot_of.put(entries[new], memory[new])
            self._filled += np.bincount(new_rows, minlength=n_rows)
        self._memory_label.put(memory, labels)
        self._memory_started.put(memory, reports.started.take(entries))
        if self._weighing:
            # Moving average at the row's alpha (0 keeps the weight), then
            # half the transmitted confidence, half the matrix prior.
            cells = entries * self._n_classes + labels
            prior = self._weights.take(cells)
            prior += self._alpha[rows] * (scores - prior)
            self._weights.put(cells, prior)
            self._memory_weight.put(memory, np.where(weighted, 0.5 * scores + 0.5 * prior, 1.0))
        if self._struck:
            # A completed report is evidence the node is alive again.
            self._strikes.put(entries, 0)
            self._backoff_until.put(entries, 0)

        received = np.bincount(rows, minlength=n_rows)
        self.messages_received += received
        touched = received.nonzero()[0]
        # Entries run row by row: a row's last one is its last delivered label.
        self._final[touched] = labels[np.add.accumulate(received)[touched] - 1]
        voters = touched[self._recall[touched]]
        if voters.size:
            self._final[voters] = self._tally(voters)
            self._voting[voters] = True
        self.last_final[touched] = self._final[touched]

    def _tally(self, rows: np.ndarray) -> np.ndarray:
        """Each row's winning label over its remembered votes.

        A label's score is the running sum of its votes' weights in
        memory insertion order (one cumulative sum over the slots, so
        the additions keep that order); the top score wins, ties within
        ``1e-12`` going to the freshest ``started_slot`` and then to
        the smaller label.  Every row has at least one vote.
        """
        votes = self._memory_label[rows][:, :, None] == self._classes
        weight = np.where(votes, self._memory_weight[rows][:, :, None], 0.0)
        score = np.add.accumulate(weight, axis=1)[:, -1]
        freshest = np.maximum.reduce(
            np.where(votes, self._memory_started[rows][:, :, None], _UNTIED), axis=1
        )
        # Weights are >= 0, so a label without votes never outscores one
        # with votes, and its ``_UNTIED`` freshness never wins a tie.
        tied = score - np.maximum.reduce(score, axis=1, keepdims=True) > -1e-12
        # ``argmax`` takes the first of equal keys: the smaller label.
        return np.where(tied, freshest, _UNTIED).argmax(axis=1)

    def _notify(self, slot: int, reports: SlotReports, got: np.ndarray) -> None:
        """Completion hooks and ``confidence.updated`` events, per
        completed report in node order."""
        adapted = got & self._adaptive[:, None]
        label = np.where(reports.reported >= 0, reports.reported, reports.predicted)
        for r, hook in self._hooks:
            traced = r in self._traced_set
            for k in reports.completed[r].nonzero()[0].tolist():
                hook(self.node_ids[k], slot)
                if traced and adapted[r, k]:
                    self._trace_update(slot, r, k, label, reports.confidence)
        for r in self._traced:
            if self.rows[r].on_completion is None:
                for k in adapted[r].nonzero()[0].tolist():
                    self._trace_update(slot, r, k, label, reports.confidence)

    def _trace_update(
        self, slot: int, r: int, k: int, label: np.ndarray, confidence: np.ndarray
    ) -> None:
        self.rows[r].obs.tracer.append(
            "confidence.updated",
            slot,
            self.node_ids[k],
            {"label": int(label[r, k]), "confidence": float(confidence[r, k])},
        )

    def _observe_votes(self, slot: int) -> None:
        """Recall-age histograms and ``vote.cast`` events of observed
        recall rows, in memory insertion order."""
        for r in self._observed_recall:
            filled = int(self._filled[r])
            if not filled:
                continue
            ages = (slot - self._memory_started[r, :filled]).tolist()
            histogram = self._recall_hist[r]
            for value in ages:
                histogram.observe(value)
            if r in self._traced_set:
                self.rows[r].obs.tracer.append(
                    "vote.cast",
                    slot,
                    None,
                    {"label": int(self._final[r]), "n_votes": filled, "max_age": max(ages)},
                )

    def _observe(self, slot: int, reports: SlotReports, final: np.ndarray) -> None:
        """The protocol schedulers' feedback: what arrived, and the final
        label (a built-in AAS row anticipates its last final decision)."""
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
