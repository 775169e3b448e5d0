"""Extended round-robin (ER-r) scheduling.

Fig. 3 of the paper: the basic 3-node round robin (RR3) is stretched by
inserting no-op slots after each node's turn so every node harvests
longer before its next attempt.  The policy is named after the cycle
length: RR3 has no no-ops, RR6 one per node, RR9 two, RR12 three.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.scheduling.base import SchedulingContext, SchedulingPolicy
from repro.errors import SchedulingError


class ExtendedRoundRobin(SchedulingPolicy):
    """RR-*n* cycle over the deployment's nodes.

    Parameters
    ----------
    node_ids:
        Nodes in cycle order (the paper uses chest, right wrist, left
        ankle).
    noops_per_node:
        No-op slots inserted after each node's turn (0 = plain RR).
    """

    def __init__(self, node_ids: Sequence[int], noops_per_node: int = 0) -> None:
        if not node_ids:
            raise SchedulingError("node_ids must be non-empty")
        if noops_per_node < 0:
            raise SchedulingError(f"noops_per_node must be >= 0, got {noops_per_node}")
        self.node_ids = list(node_ids)
        self.noops_per_node = int(noops_per_node)
        self.name = f"RR{self.cycle_length}"

    # ------------------------------------------------------------------

    @classmethod
    def from_rr_length(
        cls, node_ids: Sequence[int], rr_length: int
    ) -> "ExtendedRoundRobin":
        """Build the paper's ``RR{rr_length}`` for these nodes.

        ``rr_length`` must be a multiple of the node count (RR3, RR6,
        RR9, RR12 for three nodes).
        """
        n = len(node_ids)
        if n == 0:
            raise SchedulingError("node_ids must be non-empty")
        if rr_length < n or rr_length % n != 0:
            raise SchedulingError(
                f"rr_length {rr_length} must be a positive multiple of the node "
                f"count {n}"
            )
        return cls(node_ids, noops_per_node=rr_length // n - 1)

    # ------------------------------------------------------------------

    @property
    def cycle_length(self) -> int:
        """Slots per full cycle."""
        return len(self.node_ids) * (self.noops_per_node + 1)

    @property
    def cycle(self) -> List[Optional[int]]:
        """The slot pattern: node id or ``None`` (no-op), built on each read."""
        return [
            owner
            for node_id in self.node_ids
            for owner in [node_id] + [None] * self.noops_per_node
        ]

    def slot_owner(self, slot_index: int) -> Optional[int]:
        """Which node (if any) owns slot ``slot_index``."""
        if slot_index < 0:
            raise SchedulingError(f"slot_index must be >= 0, got {slot_index}")
        turn, offset = divmod(slot_index % self.cycle_length, self.noops_per_node + 1)
        return self.node_ids[turn] if offset == 0 else None

    def is_compute_slot(self, slot_index: int) -> bool:
        """True when some node is scheduled in this slot."""
        return self.slot_owner(slot_index) is not None

    def harvest_slots_per_attempt(self) -> int:
        """Slots a node accumulates between consecutive attempts."""
        return self.cycle_length

    def active_nodes(self, slot_index: int, context: SchedulingContext) -> List[int]:
        owner = self.slot_owner(slot_index)
        return [] if owner is None else [owner]

    def describe(self) -> str:
        """Fig. 3-style rendering of the cycle."""
        cells = [
            "No Op" if owner is None else f"node {owner}" for owner in self.cycle
        ]
        return f"{self.name}: " + " | ".join(cells)
