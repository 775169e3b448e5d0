"""The policy decision core, shared by simulation and serving.

One slot of Origin's host-side logic — schedule, ingest node reports,
vote, observe — lives behind :class:`DecisionEngine`'s two-phase
per-slot API, so the same object drives both consumers:

* the slot kernel (:mod:`repro.sim.kernel`), where every simulated run's
  physics advances as lane arrays;
* an online serving session (:mod:`repro.serve`), where the "physics"
  is a remote device streaming its own state and reports.

The contract is byte-identity: a served session fed the same per-slot
states and reports as an offline run produces the identical decision
stream.

Per slot::

    active = engine.begin_slot(slot, ready, online=online)  # scheduling
    ... the caller runs/receives the physics for `active` ...
    final = engine.finish_slot(slot, outcomes)              # vote + adaptation

``ready`` and ``online`` are per-node flags in **node construction
order** (ER-r/AAS tie-breaking follows that order): the kernel passes
its run's slice of ``SlotKernel.ready_mask()`` and a serving session
unpacks the wire's :class:`NodeSlotState` records.  ``outcomes`` are
:class:`~repro.wsn.node.InferenceOutcome`-shaped objects — the serving
path feeds wire-decoded reports that duck-type the same fields.

Both phases pay only for what happens on the slot.  On a slot the
scheduler declares pure harvesting (:meth:`~repro.core.scheduling.base.
SchedulingPolicy.is_compute_slot`) ``begin_slot`` returns ``[]``
without building a scheduling context.  ``finish_slot`` reuses the
previous recall vote while nothing it reads has changed — the host's
memory version, the confidence matrix's update count — and recall can
neither expire nor fade; the host still counts, observes and traces the
reused decision exactly as a fresh one.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.ensemble.voting import MajorityVote, WeightedMajorityVote
from repro.core.policies import AggregationMode, PolicySpec
from repro.core.scheduling.base import SchedulingContext
from repro.core.scheduling.rank_table import RankTable
from repro.errors import SimulationError
from repro.obs.observer import NULL_OBS, Observability
from repro.wsn.host import HostDevice

__all__ = ["DecisionEngine", "NodeSlotState", "make_vote"]


@dataclass(frozen=True)
class NodeSlotState:
    """One node's state at the top of a slot, as a device reports it.

    The wire record of :mod:`repro.serve`: the engine itself takes the
    ``ready`` and ``online`` flags (see :meth:`DecisionEngine.begin_slot`).
    ``online=False`` models a dead/browned-out node: the scheduler sees
    it not-ready, and the node is filtered out of the active set even if
    the policy insists on it.
    """

    energy_j: float
    ready: bool
    online: bool = True


def make_vote(spec: PolicySpec, confidence: ConfidenceMatrix):
    """The host-side vote function for a recall-aggregating policy."""
    if spec.aggregation is AggregationMode.MAJORITY_RECALL:
        return MajorityVote()
    if spec.aggregation is AggregationMode.CONFIDENCE_RECALL:
        return WeightedMajorityVote(confidence)
    raise SimulationError(f"{spec.aggregation} has no host-side vote")


class _RecalledVote:
    """A host vote rerun only when something it reads has changed.

    Sound only while recall can neither expire nor fade: the host then
    passes every remembered vote at full weight, so an unchanged memory
    version and matrix update count mean an unchanged vote.  The host
    owns this object, so it is held weakly; a cycle would keep every
    finished run alive until the garbage collector next ran.
    """

    def __init__(self, vote, host: HostDevice, confidence: ConfidenceMatrix) -> None:
        self.vote = vote
        self._host = weakref.ref(host)
        self._confidence = confidence
        self._key: Optional[tuple] = None
        self._label: Optional[int] = None

    def __call__(self, votes: Sequence, current_slot: int) -> Optional[int]:
        key = (self._host().memory_version, self._confidence.updates)
        if key != self._key:
            self._label = self.vote(votes, current_slot)
            self._key = key
        return self._label


class DecisionEngine:
    """Host-side per-slot decision logic for one policy run.

    Owns the scheduler, the :class:`~repro.wsn.host.HostDevice` (recall
    memory + vote) and the confidence matrix of a single run, advancing
    them one slot at a time.  It never touches node physics: callers
    hand it scheduler-visible node states and completed-inference
    reports, which is exactly what lets it serve online traffic where
    the nodes live on the other end of a socket.

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
        The run's confidence matrix; mutated in place by adaptive
        policies, exactly like ``HARExperiment.run(confidence_matrix=)``.
    max_recall_age_slots / staleness_half_life_slots:
        Host recall knobs (see :class:`~repro.wsn.host.HostDevice`).
    obs:
        Observability bundle; the engine emits ``slot.scheduled`` /
        ``confidence.updated`` events and the host emits ``vote.cast``
        when enabled.
    """

    def __init__(
        self,
        policy: PolicySpec,
        node_ids: Sequence[int],
        rank_table: Optional[RankTable],
        confidence: ConfidenceMatrix,
        *,
        max_recall_age_slots: Optional[int] = None,
        staleness_half_life_slots: Optional[int] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.policy = policy
        self._uses_recall = policy.uses_recall
        self.node_ids = list(node_ids)
        self._position = {node_id: k for k, node_id in enumerate(self.node_ids)}
        self.confidence = confidence
        self.obs = obs
        self.host = HostDevice(
            make_vote(policy, confidence) if self._uses_recall else MajorityVote(),
            max_recall_age_slots=max_recall_age_slots,
            staleness_half_life_slots=staleness_half_life_slots,
        )
        if max_recall_age_slots is None and staleness_half_life_slots is None:
            self.host.vote = _RecalledVote(self.host.vote, self.host, confidence)
        if obs.enabled:
            self.host.attach_obs(obs)
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
        node_responsive: Optional[Dict[int, bool]] = None,
    ) -> List[int]:
        """Scheduling phase: pick (and trace) this slot's active set.

        ``ready`` holds one flag per node (could it finish a fresh
        inference now?) and ``online`` (default: all up) one power flag
        per node, both in construction order.  Offline nodes are masked: the scheduler sees
        them not-ready, and any offline id it picks anyway is dropped
        from the returned set.
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
        else:
            if online is None:
                node_ready = dict(zip(node_ids, ready))
            else:
                node_ready = {
                    node_id: (is_ready and is_up)
                    for node_id, is_ready, is_up in zip(node_ids, ready, online)
                }
            context = SchedulingContext(
                node_ready=node_ready,
                anticipated_label=self.last_final,
                node_responsive=node_responsive if node_responsive is not None else {},
            )
            active = scheduler.active_nodes(slot, context)
            if online is not None:
                position = self._position
                active = [node_id for node_id in active if online[position[node_id]]]
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
        outcomes: Sequence,
        *,
        decide: bool = True,
        on_completion: Optional[Callable] = None,
    ) -> Optional[int]:
        """Decision phase: ingest reports, adapt, vote, observe.

        Completed, delivered reports reach the host first.  When recall can neither expire nor fade, the vote itself reruns
        only if the host's memory version or the matrix's update count
        moved since the last one; otherwise the host reuses its label.

        Parameters
        ----------
        outcomes:
            This slot's inference outcomes in node construction order
            (``InferenceOutcome`` or any object carrying its report
            fields).
        decide:
            ``False`` skips the vote (an overloaded serving session
            shedding work): reports are still ingested and the
            scheduler still observes the slot — with ``final=None`` —
            so the session stays consistent, but no decision is made
            and ``last_final`` is unchanged.
        on_completion:
            Called with each completed outcome before confidence
            adaptation (the fault engine's completion hook).
        """
        policy = self.policy
        trace = self.obs.tracer
        for outcome in outcomes:
            if outcome.completed and outcome.delivered:
                self.host.receive(outcome)
        for outcome in outcomes:
            if not outcome.completed:
                continue
            if on_completion is not None:
                on_completion(outcome)
            if policy.adaptive_confidence and outcome.delivered:
                # The matrix lives on the host: it adapts on what
                # arrived, including a corrupted label.
                self.confidence.update(
                    outcome.node_id, outcome.delivered_label, outcome.confidence
                )
                if trace.enabled:
                    trace.append(
                        "confidence.updated",
                        slot,
                        outcome.node_id,
                        {
                            "label": outcome.delivered_label,
                            "confidence": float(outcome.confidence),
                        },
                    )
        final: Optional[int] = None
        if decide:
            if self._uses_recall:
                final = self.host.classify(slot)
            else:
                completed = [o for o in outcomes if o.completed and o.delivered]
                if completed:
                    self.last_final = completed[-1].delivered_label
                final = self.last_final
            if final is not None:
                self.last_final = final
        # The scheduler is host-side: it never observes a result whose
        # message was lost in transit.
        self.scheduler.observe(
            slot, [o for o in outcomes if o.delivered], final
        )
        return final
