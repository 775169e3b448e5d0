"""Runtime fault machinery.

A :class:`FaultEngine` is one run's compiled fault plan: it owns the
per-link loss chains (with their own RNG streams, derived from the
experiment's ``"faults"`` stream so fault randomness never perturbs the
simulation's other streams), applies node deaths/brownouts and host
restarts at slot boundaries, and accumulates the degradation accounting
that ends up in :class:`~repro.faults.stats.FaultStats`.

The engine layers on top of the slot kernel without the kernel knowing
about plans.  Static schedules fold into a node's harvest timeline
(:meth:`FaultEngine.slot_energies`); a power-down drains the node
through a callback the caller supplies; a lossy link's channel is a
per-message delivery hook (:meth:`FaultEngine.link_hook`) the kernel
calls for each result message; a host restart calls the ``restart``
callable passed to :meth:`FaultEngine.begin_slot`.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.faults.models import (
    Brownout,
    GilbertElliottLoss,
    HarvesterDropout,
    HostRestart,
    NodeDeath,
    PacketLoss,
    PayloadCorruption,
)
from repro.faults.stats import FaultStats, LinkStats, RecoveryEvent
from repro.obs.observer import NULL_OBS, Observability
from repro.utils.rng import spawn_generators
from repro.wsn.comm import Delivery, DeliveryHook

logger = logging.getLogger(__name__)


class _GilbertElliottState:
    """Per-link two-state loss chain, stepped once per message."""

    def __init__(self, model: GilbertElliottLoss) -> None:
        self.model = model
        self.bad = False

    def message_lost(self, rng: np.random.Generator) -> bool:
        loss = self.model.loss_bad if self.bad else self.model.loss_good
        lost = rng.random() < loss
        flip = self.model.p_bad_to_good if self.bad else self.model.p_good_to_bad
        if rng.random() < flip:
            self.bad = not self.bad
        return lost


class _LinkChannel:
    """Delivery decision pipeline for one node→host link."""

    def __init__(
        self,
        loss_models: Sequence[object],
        corruption_models: Sequence[PayloadCorruption],
        rng: np.random.Generator,
        n_classes: int,
    ) -> None:
        self._rng = rng
        self._n_classes = n_classes
        # Keep plan order; GE models get persistent chain state.
        self._loss: List[object] = [
            _GilbertElliottState(m) if isinstance(m, GilbertElliottLoss) else m
            for m in loss_models
        ]
        self._corrupt = list(corruption_models)

    def __call__(self, slot_index: int, label: int) -> Delivery:
        dropped = False
        for model in self._loss:
            if isinstance(model, _GilbertElliottState):
                # Chains advance on every message so burst timing does
                # not depend on what the other models decided.
                if model.message_lost(self._rng):
                    dropped = True
            elif model.active_at(slot_index) and self._rng.random() < model.rate:
                dropped = True
        if dropped:
            return Delivery(delivered=False, label=None)
        for model in self._corrupt:
            if model.active_at(slot_index) and self._rng.random() < model.rate:
                if self._n_classes > 1:
                    wrong = int(
                        (label + 1 + self._rng.integers(self._n_classes - 1))
                        % self._n_classes
                    )
                    return Delivery(delivered=True, label=wrong, corrupted=True)
        return Delivery(delivered=True, label=label)


class _PendingRecovery:
    """A brownout that ended; waiting for the node's first completion."""

    __slots__ = ("node_id", "start_slot", "end_slot", "recovered_slot")

    def __init__(self, node_id: int, start_slot: int, end_slot: int) -> None:
        self.node_id = node_id
        self.start_slot = start_slot
        self.end_slot = end_slot
        self.recovered_slot: Optional[int] = None

    def freeze(self) -> RecoveryEvent:
        return RecoveryEvent(
            node_id=self.node_id,
            start_slot=self.start_slot,
            end_slot=self.end_slot,
            recovered_slot=self.recovered_slot,
        )


class FaultEngine:
    """One run's live fault state (built by :meth:`FaultPlan.compile`)."""

    def __init__(
        self,
        faults: Sequence[object],
        node_ids: Sequence[int],
        n_slots: int,
        n_classes: int,
        rng: Optional[np.random.Generator],
    ) -> None:
        self._node_ids = list(node_ids)
        self._n_slots = int(n_slots)
        self._deaths: Dict[int, int] = {}
        self._brownouts: Dict[int, List[Brownout]] = {}
        self._dropouts: Dict[int, List[HarvesterDropout]] = {}
        self._restart_slots: set = set()
        loss_by_node: Dict[int, list] = {nid: [] for nid in self._node_ids}
        corrupt_by_node: Dict[int, list] = {nid: [] for nid in self._node_ids}

        for fault in faults:
            if isinstance(fault, NodeDeath):
                current = self._deaths.get(fault.node_id)
                self._deaths[fault.node_id] = (
                    fault.at_slot if current is None else min(current, fault.at_slot)
                )
            elif isinstance(fault, Brownout):
                self._brownouts.setdefault(fault.node_id, []).append(fault)
            elif isinstance(fault, HarvesterDropout):
                self._dropouts.setdefault(fault.node_id, []).append(fault)
            elif isinstance(fault, HostRestart):
                self._restart_slots.add(fault.at_slot)
            elif isinstance(fault, (PacketLoss, GilbertElliottLoss)):
                for nid in self._links_of(fault.node_id):
                    loss_by_node[nid].append(fault)
            elif isinstance(fault, PayloadCorruption):
                for nid in self._links_of(fault.node_id):
                    corrupt_by_node[nid].append(fault)

        # One RNG stream per link, derived in sorted-node order so the
        # streams are a pure function of the compile RNG.
        self._channels: Dict[int, _LinkChannel] = {}
        noisy = [
            nid
            for nid in sorted(self._node_ids)
            if loss_by_node[nid] or corrupt_by_node[nid]
        ]
        if noisy:
            if rng is None:
                raise ValueError("link faults need an RNG")
            streams = spawn_generators(rng, len(noisy))
            for nid, stream in zip(noisy, streams):
                self._channels[nid] = _LinkChannel(
                    loss_by_node[nid], corrupt_by_node[nid], stream, n_classes
                )

        for outages in self._brownouts.values():
            outages.sort(key=lambda b: b.start_slot)

        self._online: Dict[int, bool] = {nid: True for nid in self._node_ids}
        self._offline_slots: Dict[int, int] = {nid: 0 for nid in self._node_ids}
        self._recoveries: List[_PendingRecovery] = []
        self._awaiting: Dict[int, _PendingRecovery] = {}
        self._host_restarts = 0
        #: Observability surface (assigned by the experiment when on).
        self.obs: Observability = NULL_OBS

    def _links_of(self, node_id: Optional[int]) -> List[int]:
        return self._node_ids if node_id is None else [node_id]

    # ------------------------------------------------------------------
    # slot lifecycle
    # ------------------------------------------------------------------

    def _scheduled_online(self, node_id: int, slot: int) -> bool:
        death = self._deaths.get(node_id)
        if death is not None and slot >= death:
            return False
        return not any(b.covers(slot) for b in self._brownouts.get(node_id, ()))

    def begin_slot(
        self,
        slot: int,
        restart: Callable[[], None],
        power_down: Callable[[int, int], None],
    ) -> None:
        """Apply slot-boundary fault events before scheduling runs.

        ``restart()`` is called when the host reboots: it loses its
        recall memory.  ``power_down(node_id, slot)`` is called when a
        node's supply collapses: the node loses its stored charge and
        in-flight task.
        """
        trace = self.obs.tracer
        if slot in self._restart_slots:
            restart()
            self._host_restarts += 1
            logger.debug("slot %d: host restarted (recall store wiped)", slot)
            if trace.enabled:
                trace.emit("fault.fired", slot=slot, fault="host_restart")
        for node_id in self._node_ids:
            was = self._online[node_id]
            now = self._scheduled_online(node_id, slot)
            if was and not now:
                power_down(node_id, slot)
                logger.debug("slot %d: node %d powered down", slot, node_id)
                if trace.enabled:
                    trace.emit(
                        "fault.fired", slot=slot, node_id=node_id, fault="power_down"
                    )
                death = self._deaths.get(node_id)
                if death is None or slot < death:
                    # Transient outage: find the covering brownout and
                    # open a recovery record for it.
                    for outage in self._brownouts.get(node_id, ()):
                        if outage.covers(slot):
                            pending = _PendingRecovery(
                                node_id, outage.start_slot, outage.end_slot
                            )
                            self._recoveries.append(pending)
                            self._awaiting.pop(node_id, None)
                            break
            elif not was and now:
                logger.debug("slot %d: node %d powered up", slot, node_id)
                if trace.enabled:
                    trace.emit(
                        "fault.fired", slot=slot, node_id=node_id, fault="power_up"
                    )
                for pending in reversed(self._recoveries):
                    if pending.node_id == node_id and pending.recovered_slot is None:
                        self._awaiting[node_id] = pending
                        break
            if not now:
                self._offline_slots[node_id] += 1
            self._online[node_id] = now

    def node_online(self, node_id: int) -> bool:
        """Whether the node is up in the current slot."""
        return self._online[node_id]

    def note_completion(self, node_id: int, slot: int) -> None:
        """Record a completed inference (closes pending recoveries)."""
        pending = self._awaiting.pop(node_id, None)
        if pending is not None:
            pending.recovered_slot = slot
            logger.debug(
                "slot %d: node %d recovered (outage %d-%d)",
                slot, node_id, pending.start_slot, pending.end_slot,
            )
            if self.obs.tracer.enabled:
                self.obs.tracer.emit(
                    "fault.fired", slot=slot, node_id=node_id, fault="recovered"
                )

    # ------------------------------------------------------------------
    # per-node inputs for the substrate
    # ------------------------------------------------------------------

    def link_hook(self, node_id: int) -> Optional[DeliveryHook]:
        """Delivery hook for one node's link to the host (None = lossless)."""
        return self._channels.get(node_id)

    def slot_energies(self, node_id: int, energies: np.ndarray) -> np.ndarray:
        """One node's per-slot harvest under the plan's static schedules.

        Harvester dropouts multiply a slot's energy by ``scale``, built
        as ``1.0`` times each dropout's ``scale_at(slot)`` in plan order
        (that float order is part of the result).  Offline slots — from
        a death on, inside a brownout — harvest nothing.
        """
        energies = np.array(energies, dtype=np.float64)
        dropouts = self._dropouts.get(node_id, ())
        for slot in range(energies.size):
            if not self._scheduled_online(node_id, slot):
                energies[slot] = 0.0
            elif dropouts:
                scale = 1.0
                for dropout in dropouts:
                    scale *= dropout.scale_at(slot)
                energies[slot] *= scale
        return energies

    # ------------------------------------------------------------------

    def finalize(self, links: Mapping[int, LinkStats]) -> FaultStats:
        """Aggregate the run's degradation accounting.

        ``links`` holds each node's message counters, keyed by node id.
        """
        per_link = dict(links)
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.inc("faults.host_restarts", self._host_restarts)
            for node_id in sorted(self._offline_slots):
                metrics.inc(
                    f"faults.node.{node_id}.offline_slots",
                    self._offline_slots[node_id],
                )
            for node_id in sorted(per_link):
                link = per_link[node_id]
                metrics.inc(f"faults.node.{node_id}.dropped", link.messages_dropped)
                metrics.inc(f"faults.node.{node_id}.corrupted", link.messages_corrupted)
        return FaultStats(
            per_link=per_link,
            offline_slots=dict(self._offline_slots),
            recoveries=tuple(p.freeze() for p in self._recoveries),
            host_restarts=self._host_restarts,
        )
