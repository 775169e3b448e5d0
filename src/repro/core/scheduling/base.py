"""Scheduling-policy protocol.

A policy is asked, every slot, which nodes should attempt an inference;
afterwards it observes what happened (which inferences completed, what
the system's final classification was) so it can adapt — that feedback
is what makes activity-aware scheduling possible.

A policy may also declare, ahead of the question, which slots are pure
harvesting: :meth:`SchedulingPolicy.is_compute_slot` returning ``False``
promises that :meth:`~SchedulingPolicy.active_nodes` would return ``[]``
whatever the context says, so the decision engine skips building one.
ER-r's no-op slots (and AAS on top of them) are the case that matters:
RR12 idles nine slots of every twelve.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.core.engine import WireReport


@dataclass
class SchedulingContext:
    """What a policy may look at when deciding.

    Attributes
    ----------
    node_ready:
        Whether each node could finish a fresh inference right now
        (the AAS energy check).
    anticipated_label:
        The activity the system expects next (= the last classification,
        by temporal continuity); ``None`` before the first result.
    node_responsive:
        Fault-awareness: ``False`` flags a node that is offline (dead or
        browned out); the engines pass each node's online flag here.
        Missing entries mean responsive — a run without online flags
        passes an empty dict.
    """

    node_ready: Dict[int, bool] = field(default_factory=dict)
    anticipated_label: Optional[int] = None
    node_responsive: Dict[int, bool] = field(default_factory=dict)

    def is_responsive(self, node_id: int) -> bool:
        """Whether the node is believed reachable (default True)."""
        return self.node_responsive.get(node_id, True)


class SchedulingPolicy(ABC):
    """Decides node activations slot by slot."""

    name: str = "policy"

    @abstractmethod
    def active_nodes(self, slot_index: int, context: SchedulingContext) -> List[int]:
        """Node ids that should attempt an inference this slot.

        An empty list is a no-op (pure harvesting) slot.
        """

    def is_compute_slot(self, slot_index: int) -> bool:
        """Whether any node may run this slot.

        ``False`` promises :meth:`active_nodes` returns ``[]`` for this
        slot without reading its context.  Default: every slot may
        compute.
        """
        return True

    def observe(
        self,
        slot_index: int,
        reports: Sequence["WireReport"],
        final_label: Optional[int],
    ) -> None:
        """Feedback hook after the slot ran: the reports that reached the
        host, node order, and the final label.  Default: ignore."""

    def reset(self) -> None:
        """Clear mutable state before a fresh run.  Default: nothing."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
