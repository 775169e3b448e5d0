"""Body-area wireless sensor network substrate.

Models the paper's deployment (§IV-A): three energy-harvesting sensor
nodes (IMU + harvester + NVP compute + radio) and a battery-backed host
device (phone) that aggregates classifications.  The nodes here are
parameter records; their slot physics runs as lanes of
:class:`repro.sim.kernel.SlotKernel`, one IMU window per slot.
"""

from repro.wsn.comm import Delivery, RadioProfile
from repro.wsn.host import HostDevice, ReceivedVote
from repro.wsn.node import NodeCosts, NodeStats, SensorNode

__all__ = [
    "Delivery",
    "RadioProfile",
    "HostDevice",
    "ReceivedVote",
    "NodeCosts",
    "NodeStats",
    "SensorNode",
]
