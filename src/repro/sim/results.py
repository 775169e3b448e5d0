"""Result containers for the slot-by-slot simulation.

A run's per-slot outcome is columnar: :class:`ExperimentResult` holds
one array per field (slot index, true label, final label, attempts,
completions, dropped messages) plus each slot's active-node tuple, and
every metric reads those arrays.  :class:`SlotRecord` is the per-slot
view of the same data; :attr:`ExperimentResult.records` builds them the
first time it is read, for goldens, digests and reports that walk slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.activities import Activity
from repro.errors import SimulationError
from repro.faults.stats import FaultStats
from repro.wsn.node import NodeStats


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one scheduling slot.

    ``dropped_messages`` counts completed inferences whose result
    message was lost in transit this slot (always 0 without link
    faults).
    """

    slot_index: int
    true_label: int
    predicted_label: Optional[int]
    active_nodes: tuple
    completions: int
    attempts: int
    dropped_messages: int = 0

    @property
    def correct(self) -> bool:
        """Whether the system's output matched the true activity."""
        return self.predicted_label == self.true_label


@dataclass(frozen=True)
class CompletionBreakdown:
    """Fig. 1-style inference completion statistics."""

    n_slots: int
    slots_all_completed: int
    slots_some_completed: int
    slots_none_completed: int

    def __post_init__(self) -> None:
        total = (
            self.slots_all_completed
            + self.slots_some_completed
            + self.slots_none_completed
        )
        if total != self.n_slots:
            raise SimulationError(
                f"breakdown does not add up: {total} != {self.n_slots}"
            )

    @property
    def all_fraction(self) -> float:
        """Fraction of slots where every active node completed."""
        return self.slots_all_completed / self.n_slots if self.n_slots else 0.0

    @property
    def some_fraction(self) -> float:
        """Fraction where at least one (but not all) completed."""
        return self.slots_some_completed / self.n_slots if self.n_slots else 0.0

    @property
    def any_fraction(self) -> float:
        """Fraction where at least one completed."""
        return self.all_fraction + self.some_fraction

    @property
    def failed_fraction(self) -> float:
        """Fraction with no completion at all."""
        return self.slots_none_completed / self.n_slots if self.n_slots else 0.0


#: The integer columns of :class:`ExperimentResult`, in :class:`SlotRecord` order.
SLOT_COLUMNS = (
    "slot_index",
    "true_label",
    "final_label",
    "completions",
    "attempts",
    "dropped_messages",
)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Full outcome of one policy run.

    The per-slot columns hold one int64 entry per slot, read-only:
    ``slot_index`` (restarting at 0 for each seed of a merged sweep
    result), ``true_label``, ``final_label`` (the system's output, -1
    where no decision existed yet), ``completions``, ``attempts`` and
    ``dropped_messages``; ``active_nodes`` holds each slot's active-node
    tuple (construction order, or the scheduler's order for a
    scheduler stepped through the protocol).
    """

    policy_name: str
    activities: List[Activity]
    slot_index: np.ndarray
    true_label: np.ndarray
    final_label: np.ndarray
    completions: np.ndarray
    attempts: np.ndarray
    dropped_messages: np.ndarray
    active_nodes: Tuple[tuple, ...]
    node_stats: Dict[int, NodeStats] = field(default_factory=dict)
    comm_energy_j: float = 0.0
    confidence_updates: int = 0
    #: Degradation accounting, attached when a non-empty fault plan ran.
    fault_stats: Optional[FaultStats] = None

    def __post_init__(self) -> None:
        if not isinstance(self.active_nodes, tuple):
            object.__setattr__(self, "active_nodes", tuple(self.active_nodes))
        n_slots = len(self.active_nodes)
        for name in SLOT_COLUMNS:
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.shape != (n_slots,):
                raise SimulationError(
                    f"{name} must have shape ({n_slots},), got {column.shape}"
                )
            if column.flags.writeable:
                column = column.view()
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable (a pool worker's result).
        self.__dict__.update(state)
        self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.policy_name == other.policy_name
            and self.activities == other.activities
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in SLOT_COLUMNS)
            and self.active_nodes == other.active_nodes
            and self.node_stats == other.node_stats
            and self.comm_energy_j == other.comm_energy_j
            and self.confidence_updates == other.confidence_updates
            and self.fault_stats == other.fault_stats
        )

    @classmethod
    def from_records(
        cls,
        policy_name: str,
        activities: Sequence[Activity],
        records: Iterable[SlotRecord],
        **totals,
    ) -> "ExperimentResult":
        """A result whose columns are ``records``; ``totals`` sets the
        run-level fields (``node_stats``, ``comm_energy_j``, ...)."""
        records = list(records)
        return cls(
            policy_name=policy_name,
            activities=list(activities),
            slot_index=[record.slot_index for record in records],
            true_label=[record.true_label for record in records],
            final_label=[
                -1 if record.predicted_label is None else record.predicted_label
                for record in records
            ],
            completions=[record.completions for record in records],
            attempts=[record.attempts for record in records],
            dropped_messages=[record.dropped_messages for record in records],
            active_nodes=tuple(tuple(record.active_nodes) for record in records),
            **totals,
        )

    @cached_property
    def records(self) -> Tuple[SlotRecord, ...]:
        """The columns as one :class:`SlotRecord` per slot (built once)."""
        return tuple(
            SlotRecord(slot, true, None if final < 0 else final, ids, done, tried, drops)
            for slot, true, final, done, tried, drops, ids in zip(
                *(getattr(self, name).tolist() for name in SLOT_COLUMNS), self.active_nodes
            )
        )

    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Simulated slot count."""
        return len(self.active_nodes)

    @property
    def n_classes(self) -> int:
        """Activity class count."""
        return len(self.activities)

    def true_labels(self) -> np.ndarray:
        """Ground-truth label per slot."""
        return self.true_label

    def predicted_labels(self) -> np.ndarray:
        """System output per slot; -1 where no decision existed yet."""
        return self.final_label

    def _correct(self) -> np.ndarray:
        return self.final_label == self.true_label

    @property
    def overall_accuracy(self) -> float:
        """Fraction of slots classified correctly (no-decision = wrong).

        The strict stream metric: every window counts, skipped windows
        fall back to the recalled output and transitions are penalized
        in full.
        """
        if not self.n_slots:
            raise SimulationError("no slots recorded")
        return float(self._correct().mean())

    def per_activity_accuracy(self) -> Dict[Activity, float]:
        """Per-slot accuracy restricted to slots of each activity."""
        true = self.true_label
        pred = self.final_label
        report = {}
        for label, activity in enumerate(self.activities):
            mask = true == label
            report[activity] = (
                float((pred[mask] == label).mean()) if mask.any() else float("nan")
            )
        return report

    # ------------------------------------------------------------------
    # classification-event metrics (the paper's regime)
    # ------------------------------------------------------------------

    def _events(self) -> np.ndarray:
        return self.completions > 0

    @property
    def n_events(self) -> int:
        """Slots in which at least one inference completed."""
        return int(np.count_nonzero(self._events()))

    @property
    def event_accuracy(self) -> float:
        """Accuracy over classification events.

        The paper reports accuracy per classification (e.g. Fig. 6's
        "10000 successful classifications"): a window that is skipped to
        harvest costs nothing, but an inference that completes *late*
        (NVP spanning several slots) is judged against the activity at
        completion time — staleness is penalized, skipping is not.
        """
        events = self._events()
        if not events.any():
            return 0.0
        return float(self._correct()[events].mean())

    def per_activity_event_accuracy(self) -> Dict[Activity, float]:
        """Event accuracy restricted to each activity."""
        events = self._events()
        correct = self._correct()
        report = {}
        for label, activity in enumerate(self.activities):
            of_class = events & (self.true_label == label)
            report[activity] = (
                float(correct[of_class].mean()) if of_class.any() else float("nan")
            )
        return report

    # ------------------------------------------------------------------

    @property
    def total_attempts(self) -> int:
        """Active-slot inference attempts across all nodes."""
        return int(self.attempts.sum())

    @property
    def total_completions(self) -> int:
        """Completed inferences across all nodes."""
        return int(self.completions.sum())

    @property
    def completion_rate(self) -> float:
        """Completions per attempt slot."""
        attempts = self.total_attempts
        return self.total_completions / attempts if attempts else 0.0

    @property
    def total_dropped_messages(self) -> int:
        """Result messages lost in transit across the run."""
        return int(self.dropped_messages.sum())

    # ------------------------------------------------------------------
    # graceful-degradation accounting
    # ------------------------------------------------------------------

    def degradation_vs(self, fault_free: "ExperimentResult") -> Dict[str, float]:
        """Accuracy-under-fault deltas against a fault-free run.

        Returns absolute accuracy deltas (fault-free minus faulted, so
        positive = degradation) and the retained fraction of fault-free
        event accuracy — the headline graceful-degradation number.
        """
        if fault_free.n_slots == 0 or self.n_slots == 0:
            raise SimulationError("both runs need recorded slots")
        baseline_event = fault_free.event_accuracy
        return {
            "event_accuracy_delta": baseline_event - self.event_accuracy,
            "overall_accuracy_delta": (
                fault_free.overall_accuracy - self.overall_accuracy
            ),
            "retained_event_accuracy": (
                self.event_accuracy / baseline_event if baseline_event else 0.0
            ),
        }

    def completion_breakdown(self) -> CompletionBreakdown:
        """Fig. 1-style slot breakdown over *attempting* slots.

        Slots with no active node (no-ops) are excluded — the paper's
        Fig. 1 counts inference windows.
        """
        attempting = self.attempts > 0
        tried = self.attempts[attempting]
        done = self.completions[attempting]
        return CompletionBreakdown(
            int(np.count_nonzero(attempting)),
            int(np.count_nonzero(done == tried)),
            int(np.count_nonzero((0 < done) & (done < tried))),
            int(np.count_nonzero(done == 0)),
        )

    def summary(self) -> str:
        """One-paragraph text summary."""
        per_activity = self.per_activity_accuracy()
        lines = [
            f"{self.policy_name}: overall accuracy "
            f"{self.overall_accuracy * 100:.2f}% over {self.n_slots} slots "
            f"({self.total_completions}/{self.total_attempts} inferences completed)"
        ]
        for activity, acc in per_activity.items():
            lines.append(f"  {activity.label:<10} {acc * 100:6.2f}%")
        return "\n".join(lines)
