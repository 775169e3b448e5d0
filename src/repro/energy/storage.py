"""Capacitor energy buffer."""

from __future__ import annotations

from repro.utils.validation import check_non_negative, check_positive


class Capacitor:
    """A small supercapacitor storing harvested energy.

    Holds a hard capacity ceiling (excess harvest is shed), the charge
    at t=0 and a constant leakage power.  The slot kernel
    (:meth:`repro.sim.kernel.SlotKernel.advance`) deposits, leaks and
    draws against these parameters.

    Parameters
    ----------
    capacity_j:
        Maximum stored energy.
    initial_j:
        Energy at t=0 (clamped to capacity).
    leakage_w:
        Constant self-discharge power.
    """

    def __init__(
        self,
        capacity_j: float = 1.5e-3,
        initial_j: float = 0.0,
        leakage_w: float = 1e-6,
    ) -> None:
        self.capacity_j = check_positive("capacity_j", capacity_j)
        check_non_negative("initial_j", initial_j)
        self.leakage_w = check_non_negative("leakage_w", leakage_w)
        self.initial_j = min(float(initial_j), self.capacity_j)
