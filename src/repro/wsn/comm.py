"""Radio cost model.

The paper assumes communication cost is "negligible since it
infrequently sends a few bytes of data to the host" (§IV-A).  Instead of
hard-coding zero, this module models per-message energy so that the
assumption is *checkable* (and breakable, for sensitivity studies).

Every completed inference sends one result message.  Its energy
(:meth:`RadioProfile.message_cost_j`), its loss or corruption (a fault
channel's :data:`DeliveryHook`) and the per-link counters
(:class:`~repro.faults.stats.LinkStats`) are lane arithmetic of
:mod:`repro.sim.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.utils.validation import check_non_negative, check_positive_int


@dataclass(frozen=True)
class Delivery:
    """What happened to one transmitted message.

    ``label`` is the class label as the host will see it: the sent label
    when delivered cleanly, a garbled one when ``corrupted``, and
    ``None`` when the message was dropped in transit.
    """

    delivered: bool
    label: Optional[int]
    corrupted: bool = False


#: Per-message fault hook: ``hook(slot_index, label) -> Delivery``.
#: The fault engine supplies one per lossy link; ``None`` means lossless.
DeliveryHook = Callable[[int, int], Delivery]


@dataclass(frozen=True)
class RadioProfile:
    """Energy/latency characteristics of one radio technology."""

    name: str
    energy_per_byte_j: float
    wakeup_energy_j: float
    latency_per_message_s: float

    def __post_init__(self) -> None:
        check_non_negative("energy_per_byte_j", self.energy_per_byte_j)
        check_non_negative("wakeup_energy_j", self.wakeup_energy_j)
        check_non_negative("latency_per_message_s", self.latency_per_message_s)

    @staticmethod
    def ble() -> "RadioProfile":
        """Bluetooth Low Energy: cheap short messages."""
        return RadioProfile(
            name="BLE",
            energy_per_byte_j=0.25e-6,
            wakeup_energy_j=1.5e-6,
            latency_per_message_s=0.012,
        )

    @staticmethod
    def wifi() -> "RadioProfile":
        """WiFi: faster but more expensive per message."""
        return RadioProfile(
            name="WiFi",
            energy_per_byte_j=0.9e-6,
            wakeup_energy_j=12e-6,
            latency_per_message_s=0.004,
        )

    def message_cost_j(self, payload_bytes: int) -> float:
        """Energy one message of ``payload_bytes`` costs."""
        check_positive_int("payload_bytes", payload_bytes)
        return self.wakeup_energy_j + payload_bytes * self.energy_per_byte_j
