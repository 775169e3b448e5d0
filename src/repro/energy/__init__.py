"""Energy-harvesting substrate.

The paper powers each sensor node from harvested WiFi RF energy using a
real office power trace (from ResIRCA, HPCA'20) and a non-volatile
processor (NVP) that preserves inference progress across power failures.
This package simulates that stack:

* :mod:`repro.energy.traces` — Markov-modulated bursty RF power traces
  (quiet/active/burst office states, log-normal fading, per-location
  gain, correlated across nodes sharing one office);
* :mod:`repro.energy.harvester` — harvester front-end (efficiency, gain,
  battery trickle); the slot sums of a trace, a harvester and a kernel
  batch's harvest rows are one function,
  :func:`~repro.energy.traces.slot_energies`;
* :mod:`repro.energy.storage` — capacitor sizing: capacity, initial
  charge, leakage;
* :mod:`repro.energy.nvp` — intermittent-compute parameters: checkpoint
  overhead, volatility;
* :mod:`repro.energy.budget` — power-budget helpers for pruning.

The slot kernel (:mod:`repro.sim.kernel`) steps the capacitor and NVP
rules for every node of every run.
"""

from repro.energy.budget import average_power_budget, inference_energy_budget
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import OfficeState, PowerTrace, PowerTraceGenerator, slot_energies

__all__ = [
    "PowerTrace",
    "PowerTraceGenerator",
    "OfficeState",
    "slot_energies",
    "Harvester",
    "Capacitor",
    "NonVolatileProcessor",
    "average_power_budget",
    "inference_energy_budget",
]
