"""Activity-aware scheduling (AAS, paper §III-B).

AAS keeps the extended round-robin *cadence* (compute slots separated by
no-ops so nodes can harvest) but replaces "whoever's turn it is" with
"whoever is best at the anticipated activity":

1. the anticipated activity is simply the last classified activity
   (temporal continuity);
2. the rank table names the best sensor for it;
3. if that sensor cannot finish a fresh inference on its stored energy,
   it signals the next-best sensor instead (the paper's hand-off), and
   so on down the ranking;
4. before any classification exists, AAS falls back to plain
   round-robin over the cycle.

A chosen node the context flags unresponsive (offline) draws a strike;
after :data:`RETRY_BUDGET` strikes it backs off for one ER-r cycle and
the ranking falls through to the next-best sensor.  A completed
inference from the node clears both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.scheduling.base import SchedulingContext, SchedulingPolicy
from repro.core.scheduling.rank_table import RankTable
from repro.core.scheduling.round_robin import ExtendedRoundRobin
from repro.errors import SchedulingError

if TYPE_CHECKING:
    from repro.core.engine import WireReport

#: Strikes an unresponsive choice may draw before the node backs off.
RETRY_BUDGET = 2


class ActivityAwareScheduler(SchedulingPolicy):
    """ER-r cadence + rank-table sensor selection.

    Parameters
    ----------
    base:
        The extended round-robin defining the compute-slot cadence.
    rank_table:
        Per-activity sensor ranking (seeded from validation accuracy).
    """

    def __init__(
        self,
        base: ExtendedRoundRobin,
        rank_table: RankTable,
        *,
        cooldown_slots: Optional[int] = None,
    ) -> None:
        if set(base.node_ids) != set(rank_table.node_ids):
            raise SchedulingError(
                f"rank table nodes {rank_table.node_ids} do not match "
                f"round-robin nodes {base.node_ids}"
            )
        self.base = base
        self.rank_table = rank_table
        # The paper's ER-r integration: a sensor that just ran must wait
        # before running again, so it re-harvests and other sensors get
        # turns.  The default rests a sensor for half a cycle, letting
        # the best sensor take every other compute slot — the right
        # trade when only the freshest inference matters (plain AAS).
        # Recall-based policies pass ``cooldown_for_recall`` instead:
        # two full compute periods, which keeps every sensor's recalled
        # vote within one ER-r cycle (see PolicySpec.make_scheduler).
        if cooldown_slots is None:
            cooldown_slots = base.cycle_length // 2 + 1
        if cooldown_slots < 0:
            raise SchedulingError(f"cooldown_slots must be >= 0, got {cooldown_slots}")
        self.cooldown_slots = int(cooldown_slots)
        self._anticipated: Optional[int] = None
        self._last_activated = {node_id: None for node_id in base.node_ids}
        self._strikes = {node_id: 0 for node_id in base.node_ids}
        self._backoff_until = {node_id: 0 for node_id in base.node_ids}
        self.name = f"{base.name}+AAS"

    # ------------------------------------------------------------------

    @property
    def anticipated_label(self) -> Optional[int]:
        """The activity the scheduler currently expects."""
        return self._anticipated

    @staticmethod
    def cooldown_for_recall(base: ExtendedRoundRobin) -> int:
        """Cooldown that keeps all recalled votes within one ER-r cycle.

        Two compute periods of rest forces full sensor rotation, so in a
        3-node deployment every node's most recent classification is at
        most one cycle old — what a recall ensemble needs to stay fresh.
        """
        compute_period = max(base.cycle_length // max(len(base.node_ids), 1), 1)
        return 2 * compute_period + 1

    def _off_cooldown(self, node_id: int, slot_index: int) -> bool:
        last = self._last_activated[node_id]
        return last is None or slot_index - last >= self.cooldown_slots

    def _backing_off(self, node_id: int, slot_index: int) -> bool:
        return slot_index < self._backoff_until[node_id]

    def is_compute_slot(self, slot_index: int) -> bool:
        return self.base.is_compute_slot(slot_index)

    def active_nodes(self, slot_index: int, context: SchedulingContext) -> List[int]:
        if not self.base.is_compute_slot(slot_index):
            return []
        anticipated = (
            context.anticipated_label
            if context.anticipated_label is not None
            else self._anticipated
        )
        if anticipated is None:
            # No classification yet: plain round-robin turn.
            chosen = self.base.slot_owner(slot_index)
        else:
            ranked = self.rank_table.ranked_nodes(anticipated)
            # Nodes that exhausted their retry budget sit out a backoff
            # window; if literally everyone is backing off, try the
            # best-ranked sensor anyway rather than wasting the slot.
            reachable = [n for n in ranked if not self._backing_off(n, slot_index)]
            candidates = reachable or ranked
            rested = [n for n in candidates if self._off_cooldown(n, slot_index)]
            ready = [n for n in rested if context.node_ready.get(n, False)]
            if ready:
                chosen = ready[0]  # best-ranked sensor that can finish now
            elif rested:
                chosen = rested[0]  # partial progress is kept by the NVP
            else:
                chosen = candidates[0]
        self._last_activated[chosen] = slot_index
        if not context.is_responsive(chosen):
            self._strikes[chosen] += 1
            if self._strikes[chosen] >= RETRY_BUDGET:
                self._backoff_until[chosen] = slot_index + self.base.cycle_length
                self._strikes[chosen] = 0
        else:
            self._strikes[chosen] = 0
        return [chosen]

    def observe(
        self,
        slot_index: int,
        reports: Sequence["WireReport"],
        final_label: Optional[int],
    ) -> None:
        for report in reports:
            if report.completed:
                # Evidence the node is alive again: stop backing off.
                self._strikes[report.node_id] = 0
                self._backoff_until[report.node_id] = 0
        if final_label is not None:
            self._anticipated = int(final_label)
            return
        for report in reports:
            if report.completed:
                self._anticipated = int(report.predicted_label)

    def reset(self) -> None:
        self._anticipated = None
        self._last_activated = {node_id: None for node_id in self.base.node_ids}
        self._strikes = {node_id: 0 for node_id in self.base.node_ids}
        self._backoff_until = {node_id: 0 for node_id in self.base.node_ids}
