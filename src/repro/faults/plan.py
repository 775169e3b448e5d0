"""The declarative fault plan.

A :class:`FaultPlan` is an immutable, validated composition of fault
models.  The host's response to them is fixed: the scheduler sees a
node unresponsive exactly while it is offline (an AAS choice then draws
a strike, and after two the ranking reroutes for one ER-r cycle), and a
recalled vote keeps its full weight until a host restart clears it.

Construction-time validation raises :class:`~repro.errors.FaultError`
for negative slots, bad probabilities, and overlapping brownout windows;
:meth:`compile` additionally rejects unknown node ids against the actual
deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultError
from repro.faults.engine import FaultEngine
from repro.faults.models import (
    Brownout,
    FaultModel,
    GilbertElliottLoss,
    NodeDeath,
    PacketLoss,
    PayloadCorruption,
)


@dataclass(frozen=True)
class FaultPlan:
    """A validated, composable set of faults for one run."""

    faults: Tuple[FaultModel, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultModel):
                raise FaultError(f"not a fault model: {fault!r}")
        self._check_brownout_overlap()

    def _check_brownout_overlap(self) -> None:
        by_node: dict = {}
        for fault in self.faults:
            if isinstance(fault, Brownout):
                by_node.setdefault(fault.node_id, []).append(fault)
        for node_id, outages in by_node.items():
            outages.sort(key=lambda b: b.start_slot)
            for earlier, later in zip(outages, outages[1:]):
                if later.start_slot < earlier.end_slot:
                    raise FaultError(
                        f"overlapping brownouts for node {node_id}: "
                        f"[{earlier.start_slot}, {earlier.end_slot}) and "
                        f"[{later.start_slot}, {later.end_slot})"
                    )

    # ------------------------------------------------------------------

    @property
    def has_link_faults(self) -> bool:
        """Whether any message-level fault is present."""
        return any(
            isinstance(f, (PacketLoss, GilbertElliottLoss, PayloadCorruption))
            for f in self.faults
        )

    def named_nodes(self) -> Tuple[int, ...]:
        """Every node id any fault names, sorted."""
        ids = {
            fault.involved_node()
            for fault in self.faults
            if fault.involved_node() is not None
        }
        return tuple(sorted(ids))

    # ------------------------------------------------------------------

    @classmethod
    def from_failures(cls, failures: Mapping[int, int]) -> "FaultPlan":
        """Compile the legacy ``{node_id: slot}`` dict into a plan."""
        return cls(
            faults=tuple(
                NodeDeath(node_id=int(node_id), at_slot=int(slot))
                for node_id, slot in sorted(failures.items())
            )
        )

    def compile(
        self,
        node_ids: Sequence[int],
        n_slots: int,
        n_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> FaultEngine:
        """Validate against a deployment and build the runtime engine."""
        known = set(node_ids)
        for node_id in self.named_nodes():
            if node_id not in known:
                raise FaultError(
                    f"fault plan names unknown node {node_id} "
                    f"(deployment has {sorted(known)})"
                )
        if self.has_link_faults and rng is None:
            raise FaultError("a plan with link faults needs an RNG to compile")
        return FaultEngine(self.faults, node_ids, n_slots, n_classes, rng)
