"""Body-area wireless sensor network substrate.

Models the paper's deployment (§IV-A): three energy-harvesting sensor
nodes (IMU + harvester + NVP compute + radio).  The nodes here are
parameter records; their slot physics runs as lanes of
:class:`repro.sim.kernel.SlotKernel`, one IMU window per slot.  The
battery-backed host device (phone) that aggregates classifications is
the decision core of :mod:`repro.core.engine`.
"""

from repro.wsn.comm import Delivery, RadioProfile
from repro.wsn.node import NodeCosts, NodeStats, SensorNode

__all__ = [
    "Delivery",
    "RadioProfile",
    "NodeCosts",
    "NodeStats",
    "SensorNode",
]
