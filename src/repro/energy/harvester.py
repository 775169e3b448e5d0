"""Harvester front-end.

Converts ambient RF power (a :class:`~repro.energy.traces.PowerTrace`)
into energy deposited in the node's capacitor, applying the rectifier
efficiency and the antenna/location gain.
"""

from __future__ import annotations

from typing import Optional

from repro.energy.traces import PowerTrace, slot_energies
from repro.errors import EnergyModelError
from repro.utils.validation import check_fraction, check_non_negative


class Harvester:
    """RF energy harvester attached to one node.

    Parameters
    ----------
    trace:
        Ambient RF power available at this node's location.
    efficiency:
        RF-to-stored-energy conversion efficiency in (0, 1].
    gain:
        Extra multiplicative antenna/placement gain.
    supplemental_w:
        Constant additional supply (a battery trickle): the paper's
        Discussion notes Origin "can also be used with battery-powered
        or hybrid" systems — this models the hybrid case.
    """

    def __init__(
        self,
        trace: PowerTrace,
        efficiency: float = 1.0,
        gain: float = 1.0,
        *,
        supplemental_w: float = 0.0,
    ) -> None:
        check_fraction("efficiency", efficiency)
        if efficiency == 0:
            raise EnergyModelError("efficiency must be > 0")
        self.trace = trace
        self.efficiency = float(efficiency)
        self.gain = check_non_negative("gain", gain)
        self.supplemental_w = check_non_negative("supplemental_w", supplemental_w)

    def energy_between(self, t0_s: float, t1_s: float) -> float:
        """Joules delivered to storage over ``[t0, t1)``."""
        harvested = self.trace.energy_between(t0_s, t1_s) * self.efficiency * self.gain
        return harvested + self.supplemental_w * max(t1_s - t0_s, 0.0)

    def slot_energy(self, slot_index: int, slot_duration_s: float) -> float:
        """Joules delivered during one scheduling slot."""
        return (
            self.trace.slot_energy(slot_index, slot_duration_s)
            * self.efficiency
            * self.gain
            + self.supplemental_w * slot_duration_s
        )

    def slot_energies(self, slot_duration_s: float, *, n_slots: Optional[int] = None):
        """Vector of per-slot delivered joules (fast path).

        With ``n_slots`` the vector is truncated or zero-padded to that
        length.  Padded slots deliver exactly 0.0 J — no supplemental
        trickle either: a node stops harvesting (and supplementing) once
        the trace runs out.  See :func:`~repro.energy.traces.slot_energies`.
        """
        return slot_energies(
            self.trace.watts,
            self.trace.dt_s,
            slot_duration_s,
            n_slots=n_slots,
            efficiency=self.efficiency,
            gain=self.gain,
            supplemental_w=self.supplemental_w,
        )

    @property
    def average_power_w(self) -> float:
        """Mean delivered power over the whole trace."""
        return (
            self.trace.average_power_w * self.efficiency * self.gain
            + self.supplemental_w
        )
