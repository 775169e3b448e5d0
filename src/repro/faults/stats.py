"""Graceful-degradation accounting.

A faulted run reports *how* it degraded, not just its final accuracy:
per-link delivery statistics, per-node offline time, and time-to-recover
after each transient outage.  :class:`FaultStats` is attached to
:class:`~repro.sim.results.ExperimentResult` by the experiment loop when
a non-empty fault plan is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LinkStats:
    """Delivery counters of one node→host link."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_corrupted: int = 0

    def __add__(self, other: "LinkStats") -> "LinkStats":
        """Counter-wise sum (merging one link across runs)."""
        return LinkStats(
            messages_sent=self.messages_sent + other.messages_sent,
            messages_delivered=self.messages_delivered + other.messages_delivered,
            messages_dropped=self.messages_dropped + other.messages_dropped,
            messages_corrupted=self.messages_corrupted + other.messages_corrupted,
        )


@dataclass(frozen=True)
class RecoveryEvent:
    """One transient outage and how long the node took to come back.

    ``recovered_slot`` is the slot of the node's first *completed*
    inference after power returned (``None`` if it never recovered
    within the run); ``time_to_recover_slots`` counts from the end of
    the outage window to that completion.
    """

    node_id: int
    start_slot: int
    end_slot: int
    recovered_slot: Optional[int] = None

    @property
    def recovered(self) -> bool:
        """Whether the node completed an inference after power-up."""
        return self.recovered_slot is not None

    @property
    def time_to_recover_slots(self) -> Optional[int]:
        """Slots from power-up until the first completion (None if never)."""
        if self.recovered_slot is None:
            return None
        return self.recovered_slot - self.end_slot


@dataclass
class FaultStats:
    """Aggregated degradation accounting for one faulted run."""

    per_link: Dict[int, LinkStats] = field(default_factory=dict)
    offline_slots: Dict[int, int] = field(default_factory=dict)
    recoveries: Tuple[RecoveryEvent, ...] = ()
    host_restarts: int = 0

    @classmethod
    def merged(cls, runs: Sequence["FaultStats"]) -> "FaultStats":
        """Aggregate several runs' accounting into one.

        Delivery counters sum per link, offline slots sum per node,
        recovery events concatenate in run order, restarts sum — so a
        multi-seed sweep reports the fault exposure of *all* its runs,
        not just the last one.
        """
        per_link: Dict[int, LinkStats] = {}
        offline_slots: Dict[int, int] = {}
        recoveries: list = []
        host_restarts = 0
        for stats in runs:
            for node_id, link in stats.per_link.items():
                per_link[node_id] = (
                    per_link[node_id] + link if node_id in per_link else link
                )
            for node_id, slots in stats.offline_slots.items():
                offline_slots[node_id] = offline_slots.get(node_id, 0) + slots
            recoveries.extend(stats.recoveries)
            host_restarts += stats.host_restarts
        return cls(
            per_link=per_link,
            offline_slots=offline_slots,
            recoveries=tuple(recoveries),
            host_restarts=host_restarts,
        )

    # ------------------------------------------------------------------

    @property
    def messages_sent(self) -> int:
        """Result messages transmitted across all links."""
        return sum(s.messages_sent for s in self.per_link.values())

    @property
    def messages_delivered(self) -> int:
        """Messages that reached the host (including corrupted ones)."""
        return sum(s.messages_delivered for s in self.per_link.values())

    @property
    def messages_dropped(self) -> int:
        """Messages lost in transit."""
        return sum(s.messages_dropped for s in self.per_link.values())

    @property
    def messages_corrupted(self) -> int:
        """Delivered messages whose label was garbled."""
        return sum(s.messages_corrupted for s in self.per_link.values())

    @property
    def total_offline_slots(self) -> int:
        """Node-slots spent dead or browned out, summed over nodes."""
        return sum(self.offline_slots.values())

    def mean_time_to_recover(self) -> Optional[float]:
        """Mean slots-to-first-completion over recovered outages."""
        times = [
            event.time_to_recover_slots
            for event in self.recoveries
            if event.time_to_recover_slots is not None
        ]
        return sum(times) / len(times) if times else None

    def summary(self) -> str:
        """One-line human-readable account of the degradation."""
        parts = [
            f"{self.messages_dropped}/{self.messages_sent} msgs dropped",
            f"{self.messages_corrupted} corrupted",
            f"{self.total_offline_slots} node-slots offline",
        ]
        ttr = self.mean_time_to_recover()
        if ttr is not None:
            parts.append(f"mean time-to-recover {ttr:.1f} slots")
        if self.host_restarts:
            parts.append(f"{self.host_restarts} host restart(s)")
        return ", ".join(parts)
