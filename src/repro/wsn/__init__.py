"""Body-area wireless sensor network substrate.

Models the paper's deployment (§IV-A): three energy-harvesting sensor
nodes (IMU + harvester + NVP compute + radio) and a battery-backed host
device (phone) that aggregates classifications.  The nodes here are
parameter records; their slot physics runs as lanes of
:class:`repro.sim.kernel.SlotKernel`, one IMU window per slot.
"""

from repro.wsn.comm import CommLink, Delivery, RadioProfile, TransmitResult
from repro.wsn.host import HostDevice, ReceivedVote
from repro.wsn.node import InferenceOutcome, NodeCosts, NodeStats, SensorNode

__all__ = [
    "CommLink",
    "Delivery",
    "TransmitResult",
    "RadioProfile",
    "HostDevice",
    "ReceivedVote",
    "InferenceOutcome",
    "NodeCosts",
    "NodeStats",
    "SensorNode",
]
