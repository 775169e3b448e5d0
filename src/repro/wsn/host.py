"""Battery-backed host device (the user's phone).

The host receives tiny result messages from the nodes, remembers each
node's *most recent* classification (the paper's recall mechanism,
§III-B), and produces the final per-window classification by applying a
pluggable voting function — naive majority for AASR, confidence-weighted
majority for Origin.  The host is mains/battery powered, so its own
energy is not modelled; its compute is deliberately limited to lookups
and a vote, matching the paper's "minimal overhead on the host device".

The recall memory carries a version (:attr:`HostDevice.memory_version`)
that every write — a received report, a restart, a reset — bumps.  A
vote over memory whose version has not moved, which can neither expire
nor fade, sees the same votes as last time; the decision engine keys its
reuse of the previous label on that version.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.observer import NULL_OBS, Observability

if TYPE_CHECKING:
    from repro.core.engine import WireReport


@dataclass(frozen=True)
class ReceivedVote:
    """One node's most recent classification, as the host remembers it.

    ``weight`` scales the vote's influence in the ensemble (1.0 = full
    strength); staleness-aware down-weighting lowers it for votes from
    nodes the host has not heard from in a while.
    """

    node_id: int
    label: int
    confidence: float
    received_slot: int
    started_slot: int
    weight: float = 1.0

    def age(self, current_slot: int) -> int:
        """Slots since the classified window was sensed."""
        return current_slot - self.started_slot


VoteFunction = Callable[[Sequence[ReceivedVote], int], Optional[int]]


class HostDevice:
    """Aggregation endpoint with recall memory.

    Parameters
    ----------
    vote:
        ``vote(votes, current_slot) -> label or None``.  Receives every
        remembered vote (fresh and recalled); ``None`` means "no
        decision yet" (before any node has reported).
    max_recall_age_slots:
        Drop remembered votes older than this (``None`` = never expire).
    staleness_half_life_slots:
        When set, a recalled vote's weight halves every this-many slots
        of age, so a quiet (browned-out, dead, or shadowed) node's stale
        opinion fades gracefully instead of voting at full strength
        forever.  ``None`` (the default) keeps the paper's behaviour:
        every remembered vote counts fully until it expires.
    """

    def __init__(
        self,
        vote: VoteFunction,
        *,
        max_recall_age_slots: Optional[int] = None,
        staleness_half_life_slots: Optional[int] = None,
    ) -> None:
        if not callable(vote):
            raise SimulationError("vote must be callable")
        if max_recall_age_slots is not None and max_recall_age_slots < 1:
            raise SimulationError("max_recall_age_slots must be >= 1 or None")
        if staleness_half_life_slots is not None and staleness_half_life_slots < 1:
            raise SimulationError("staleness_half_life_slots must be >= 1 or None")
        self.vote = vote
        self.max_recall_age_slots = max_recall_age_slots
        self.staleness_half_life_slots = staleness_half_life_slots
        #: Observability surface (installed via :meth:`attach_obs`).
        self.obs: Observability = NULL_OBS
        self._recall_hist = None
        self._memory: Dict[int, ReceivedVote] = {}
        self._last_heard: Dict[int, int] = {}
        self._messages_received = 0
        self._decisions = 0
        self._restarts = 0
        self._memory_version = 0

    def attach_obs(self, obs: Observability) -> None:
        """Install an observability bundle (resolves the hot histogram once)."""
        self.obs = obs
        self._recall_hist = (
            obs.metrics.histogram("host.recall_age_slots") if obs.enabled else None
        )

    # ------------------------------------------------------------------

    @property
    def messages_received(self) -> int:
        """Result messages received so far."""
        return self._messages_received

    @property
    def decisions_made(self) -> int:
        """Final classifications produced so far."""
        return self._decisions

    @property
    def memory_version(self) -> int:
        """Bumped by every write to the recall memory.

        :meth:`receive`, :meth:`restart` and :meth:`reset` each advance
        it; equal versions mean the remembered votes are the same.
        """
        return self._memory_version

    def remembered_votes(self) -> List[ReceivedVote]:
        """Current recall memory, one entry per reporting node."""
        return list(self._memory.values())

    def remembered_for(self, node_id: int) -> Optional[ReceivedVote]:
        """The remembered vote of one node (None if never reported)."""
        return self._memory.get(node_id)

    # ------------------------------------------------------------------
    # link health
    # ------------------------------------------------------------------

    @property
    def restarts(self) -> int:
        """Times the host rebooted (losing its recall store)."""
        return self._restarts

    def last_heard_slot(self, node_id: int) -> Optional[int]:
        """Slot of the node's last received message (None = never)."""
        return self._last_heard.get(node_id)

    def quiet_slots(self, node_id: int, current_slot: int) -> int:
        """Slots since the host last heard from ``node_id``.

        A node that has never reported counts as quiet since slot 0.
        """
        last = self._last_heard.get(node_id)
        return current_slot + 1 if last is None else current_slot - last

    def link_health(self, node_ids: Sequence[int], current_slot: int) -> Dict[int, int]:
        """Quiet time per node — the host's view of each link."""
        return {
            node_id: self.quiet_slots(node_id, current_slot) for node_id in node_ids
        }

    # ------------------------------------------------------------------

    def receive(self, report: "WireReport") -> None:
        """Ingest a completed inference result from a node.

        The stored label is :attr:`~repro.core.engine.WireReport.delivered_label`
        — what actually arrived over the link, which differs from the
        node's prediction when the payload was corrupted in transit.
        """
        if not report.completed:
            raise SimulationError("host only receives completed inferences")
        if not report.delivered:
            raise SimulationError("host cannot receive a dropped message")
        self._messages_received += 1
        self._memory_version += 1
        self._last_heard[report.node_id] = report.slot_index
        self._memory[report.node_id] = ReceivedVote(
            node_id=report.node_id,
            label=report.delivered_label,
            confidence=report.confidence if report.confidence is not None else 0.0,
            received_slot=report.slot_index,
            started_slot=report.started_slot,
        )

    def _staleness_weighted(
        self, votes: List[ReceivedVote], current_slot: int
    ) -> List[ReceivedVote]:
        half_life = self.staleness_half_life_slots
        if half_life is None:
            return votes
        return [
            vote
            if vote.age(current_slot) <= 0
            else replace(
                vote, weight=vote.weight * 0.5 ** (vote.age(current_slot) / half_life)
            )
            for vote in votes
        ]

    def classify(self, current_slot: int) -> Optional[int]:
        """Final classification for the current window (or None)."""
        votes = self.remembered_votes()
        if self.max_recall_age_slots is not None:
            votes = [
                vote for vote in votes if vote.age(current_slot) <= self.max_recall_age_slots
            ]
        votes = self._staleness_weighted(votes, current_slot)
        obs = self.obs
        ages = None
        if self._recall_hist is not None:
            # Recall staleness: the age of every vote that participates
            # in this slot's ensemble (the paper's stale-recall risk).
            observe = self._recall_hist.observe
            ages = [vote.age(current_slot) for vote in votes]
            for age in ages:
                observe(age)
        if not votes:
            return None
        label = self.vote(votes, current_slot)
        if label is not None:
            self._decisions += 1
        if obs.tracer.enabled and label is not None:
            obs.tracer.append(
                "vote.cast",
                current_slot,
                None,
                {
                    "label": label,
                    "n_votes": len(votes),
                    "max_age": (
                        max(ages)
                        if ages
                        else max(vote.age(current_slot) for vote in votes)
                    ),
                },
            )
        return label

    def restart(self) -> None:
        """Reboot: the recall store and link history are wiped.

        Cumulative counters survive — they are simulation bookkeeping,
        not host RAM.
        """
        self._memory.clear()
        self._last_heard.clear()
        self._restarts += 1
        self._memory_version += 1

    def reset(self) -> None:
        """Forget everything (new user / new run)."""
        self._memory.clear()
        self._last_heard.clear()
        self._messages_received = 0
        self._decisions = 0
        self._restarts = 0
        self._memory_version += 1
