"""Energy-harvesting sensor node.

One node = IMU + RF harvester + capacitor + NVP compute + radio.  The
node lives in discrete scheduling slots (one IMU window per slot):

* every slot it harvests into its capacitor (and leaks);
* on an *active* slot it senses a window and runs (or resumes) an
  inference on the NVP, spending stored energy;
* a completed inference sends the host one result message: the label
  and the paper's variance-of-softmax confidence score
  (:class:`~repro.core.engine.WireReport`).

Because the NVP checkpoints, an inference may span several active slots;
the report then names the slot whose window was actually classified
(``started_slot``), which is how recall staleness enters the system.

:class:`SensorNode` is the parameter record of one hand-built node.
The slot physics above runs as a lane of
:class:`repro.sim.kernel.SlotKernel`, gathered from a
:class:`~repro.sim.kernel.LaneTable`:
:meth:`~repro.sim.kernel.SlotKernel.from_nodes` turns records into one,
and an experiment's batch builds its table straight from its configs
(:meth:`~repro.sim.experiment.HARExperiment.build_nodes`) with no record
at all, so :class:`~repro.sim.experiment.SimulationConfig` runs the
records' checks once per config (:func:`check_link` is the record's
own radio and task-age check).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional

import numpy as np

from repro.datasets.body import BodyLocation
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.errors import ConfigurationError, SimulationError
from repro.utils.validation import check_non_negative, check_positive
from repro.wsn.comm import RadioProfile


@dataclass(frozen=True)
class NodeCosts:
    """Per-slot energy costs besides the DNN itself."""

    sense_j: float = 8e-6  # IMU sampling + buffering for one window
    idle_j: float = 0.5e-6  # sleep-mode controller draw per slot
    result_message_bytes: int = 6  # class id + confidence + header

    def __post_init__(self) -> None:
        check_non_negative("sense_j", self.sense_j)
        check_non_negative("idle_j", self.idle_j)
        if self.result_message_bytes < 1:
            raise SimulationError("result_message_bytes must be >= 1")


@dataclass
class NodeStats:
    """Cumulative counters for one node."""

    slots: int = 0
    active_slots: int = 0
    attempts_started: int = 0
    completions: int = 0
    failed_active_slots: int = 0
    harvested_j: float = 0.0
    consumed_j: float = 0.0
    comm_j: float = 0.0
    leaked_j: float = 0.0

    @property
    def completion_rate(self) -> float:
        """Completions per active slot (0 when never active)."""
        return self.completions / self.active_slots if self.active_slots else 0.0

    @classmethod
    def merged(cls, stats: Iterable["NodeStats"]) -> "NodeStats":
        """Field-wise sum over several runs' counters for one node."""
        total = cls()
        for entry in stats:
            for field_ in fields(cls):
                setattr(
                    total,
                    field_.name,
                    getattr(total, field_.name) + getattr(entry, field_.name),
                )
        return total


def check_link(radio: RadioProfile, max_task_age_slots: Optional[int]) -> None:
    """Raise unless ``radio`` is a :class:`RadioProfile` and
    ``max_task_age_slots`` is ``None`` or at least 1."""
    if not isinstance(radio, RadioProfile):
        raise ConfigurationError("radio must be a RadioProfile")
    if max_task_age_slots is not None and max_task_age_slots < 1:
        raise SimulationError("max_task_age_slots must be >= 1 or None")


class SensorNode:
    """One energy-harvesting HAR sensor node's parameters.

    Parameters
    ----------
    node_id / location:
        Identity and body placement.
    inference_energy_j:
        Useful work one inference requires (from the energy model).
    harvester / capacitor / nvp / radio:
        Substrate components (each independently configurable); the
        radio prices the result message.
    costs:
        Non-DNN energy costs.
    slot_duration_s:
        Scheduling-slot length (= IMU window duration).
    max_task_age_slots:
        Abort an in-flight inference older than this many slots (its
        window is too stale to be useful); ``None`` keeps it forever.
    """

    def __init__(
        self,
        node_id: int,
        location: BodyLocation,
        inference_energy_j: float,
        harvester: Harvester,
        capacitor: Capacitor,
        nvp: NonVolatileProcessor,
        radio: RadioProfile,
        *,
        costs: NodeCosts = NodeCosts(),
        slot_duration_s: float = 2.56,
        max_task_age_slots: Optional[int] = None,
    ) -> None:
        self.node_id = int(node_id)
        self.location = location
        self.inference_energy_j = check_positive("inference_energy_j", inference_energy_j)
        self.harvester = harvester
        self.capacitor = capacitor
        self.nvp = nvp
        check_link(radio, max_task_age_slots)
        self.radio = radio
        self.costs = costs
        self.slot_duration_s = check_positive("slot_duration_s", slot_duration_s)
        self.max_task_age_slots = max_task_age_slots

    def slot_energy_vector(self, n_slots: int) -> np.ndarray:
        """Per-slot harvest energy over ``n_slots`` slots (kernel feed).

        Slots beyond the harvest trace contribute exactly 0.0.
        """
        return self.harvester.slot_energies(self.slot_duration_s, n_slots=n_slots)
