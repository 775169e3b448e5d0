"""Tests for Capacitor, Harvester, NVP and budget helpers.

The capacitor and NVP rules run as lanes of the slot kernel; these
tests step one lane directly.
"""

import numpy as np
import pytest

from repro.energy.budget import average_power_budget, inference_energy_budget
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTrace
from repro.errors import ConfigurationError, EnergyModelError, SimulationError
from repro.sim.kernel import SlotKernel


def one_lane(
    energies,
    *,
    capacity_j=5.0,
    initial_j=0.0,
    leak_j=0.0,
    idle_j=0.0,
    sense_j=0.0,
    task_work_j=1.0,
    checkpoint_overhead=0.0,
    volatile=False,
    comm_cost_j=0.0,
    max_task_age_slots=np.inf,
):
    """A one-lane :class:`SlotKernel` over the given per-slot harvest."""
    return SlotKernel(
        slot_energies=np.asarray([energies], dtype=np.float64),
        capacity_j=[capacity_j],
        initial_j=[initial_j],
        leak_j=[leak_j],
        idle_j=[idle_j],
        sense_j=[sense_j],
        task_work_j=[task_work_j],
        useful_fraction=[1.0 - checkpoint_overhead],
        volatile=[volatile],
        comm_cost_j=[comm_cost_j],
        max_task_age_slots=[max_task_age_slots],
    )


IDLE = np.zeros(1, dtype=bool)
ACTIVE = np.ones(1, dtype=bool)


class TestCapacitor:
    """Capacitor rules, stepped as one kernel lane."""

    def test_deposit_and_draw(self):
        # A slot deposits its harvest, then draws the idle cost.
        lane = one_lane([4.0], capacity_j=10.0, idle_j=1.5)
        lane.advance(0, IDLE)
        assert lane.stored[0] == pytest.approx(2.5)
        assert lane.harvested_j[0] == 4.0
        assert lane.consumed_j[0] == 1.5

    def test_ceiling_sheds(self):
        # Harvest beyond the capacity is shed, not banked or ledgered.
        lane = one_lane([8.0], capacity_j=5.0)
        lane.advance(0, IDLE)
        assert lane.stored[0] == 5.0
        assert lane.harvested_j[0] == 5.0

    def test_draw_limited_to_stored(self):
        # The idle draw never takes more than the capacitor holds.
        lane = one_lane([0.0], initial_j=1.0, idle_j=3.0)
        lane.advance(0, IDLE)
        assert lane.consumed_j[0] == 1.0
        assert lane.stored[0] == 0.0

    def test_leakage(self):
        lane = one_lane([0.0, 0.0], initial_j=1.0, leak_j=0.25)
        lane.advance(0, IDLE)
        lane.advance(1, IDLE)
        assert lane.leaked_j[0] == pytest.approx(0.5)
        assert lane.stored[0] == pytest.approx(0.5)

    def test_leak_cannot_go_negative(self):
        lane = one_lane([0.0], initial_j=0.1, leak_j=10.0)
        lane.advance(0, IDLE)
        assert lane.stored[0] == 0.0
        assert lane.leaked_j[0] == pytest.approx(0.1)

    def test_initial_clamped(self):
        cap = Capacitor(capacity_j=2.0, initial_j=5.0)
        assert cap.initial_j == 2.0
        assert one_lane([0.0], capacity_j=2.0, initial_j=5.0).stored[0] == 2.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            Capacitor(capacity_j=0.0)
        with pytest.raises(ConfigurationError):
            Capacitor(capacity_j=5.0, initial_j=-1.0)
        with pytest.raises(ConfigurationError):
            Capacitor(capacity_j=5.0, leakage_w=-1.0)


class TestHarvester:
    @pytest.fixture
    def harvester(self):
        trace = PowerTrace(dt_s=1.0, watts=np.array([2.0, 4.0]))
        return Harvester(trace, efficiency=0.5, gain=2.0)

    def test_energy_scaled_by_efficiency_and_gain(self, harvester):
        assert harvester.energy_between(0.0, 2.0) == pytest.approx(6.0)

    def test_slot_energies(self, harvester):
        np.testing.assert_allclose(harvester.slot_energies(1.0), [2.0, 4.0])

    def test_average_power(self, harvester):
        assert harvester.average_power_w == pytest.approx(3.0)

    def test_zero_efficiency_rejected(self):
        trace = PowerTrace(1.0, np.array([1.0]))
        with pytest.raises(EnergyModelError):
            Harvester(trace, efficiency=0.0)


class TestNonVolatileProcessor:
    """NVP rules, stepped as one kernel lane (sense costs nothing here)."""

    def test_completes_in_one_burst(self):
        lane = one_lane([2.0], task_work_j=1.0)
        events = lane.advance(0, ACTIVE)
        assert events.completed[0]
        assert events.burst_consumed[0] == pytest.approx(1.0)
        assert lane.completions[0] == 1

    def test_progress_survives_across_bursts(self):
        lane = one_lane([0.4, 0.7], task_work_j=1.0)
        assert not lane.advance(0, ACTIVE).completed[0]
        assert lane.task_work_j[0] - lane.done_work[0] == pytest.approx(0.6)
        events = lane.advance(1, ACTIVE)
        assert events.completed[0]
        assert events.started[0] == 0  # the slot-0 task finished

    def test_checkpoint_overhead_inflates_cost(self):
        lane = one_lane([10.0], capacity_j=10.0, task_work_j=0.8, checkpoint_overhead=0.2)
        events = lane.advance(0, ACTIVE)
        assert events.burst_consumed[0] == pytest.approx(1.0)  # 0.8 / 0.8

    def test_volatile_loses_progress(self):
        lane = one_lane([0.9], task_work_j=1.0, volatile=True)
        events = lane.advance(0, ACTIVE)
        assert not events.completed[0]
        assert lane.done_work[0] == 0.0
        assert not lane.in_progress[0]

    def test_acknowledge_returns_to_idle(self):
        # A completed task frees the lane: the next active slot starts a
        # fresh task on its own window.
        lane = one_lane([2.0, 2.0], task_work_j=0.1)
        lane.advance(0, ACTIVE)
        assert not lane.in_progress[0]
        events = lane.advance(1, ACTIVE)
        assert events.started[0] == 1
        assert lane.attempts_started[0] == 2

    def test_progress_fraction(self):
        lane = one_lane([1.0], task_work_j=2.0)
        lane.advance(0, ACTIVE)
        assert lane.done_work[0] / lane.task_work_j[0] == pytest.approx(0.5)

    def test_parameters(self):
        nvp = NonVolatileProcessor(checkpoint_overhead=0.2, volatile=True)
        assert nvp.useful_fraction == pytest.approx(0.8)
        assert nvp.volatile
        with pytest.raises(SimulationError):
            NonVolatileProcessor(checkpoint_overhead=1.0)


class TestBudget:
    def test_average_power_budget(self):
        traces = [
            PowerTrace(1.0, np.array([2.0, 2.0])),
            PowerTrace(1.0, np.array([4.0, 4.0])),
        ]
        assert average_power_budget(traces) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(EnergyModelError):
            average_power_budget([])

    def test_inference_budget_basic(self):
        assert inference_energy_budget(30e-6, 2.56) == pytest.approx(76.8e-6)

    def test_rr_relaxation(self):
        # Paper SIII-D: the ER-r policy relaxes the constraint.
        tight = inference_energy_budget(30e-6, 2.56, rr_cycle_slots=1)
        relaxed = inference_energy_budget(30e-6, 2.56, rr_cycle_slots=12, duty_nodes=3)
        assert relaxed == pytest.approx(4 * tight)

    def test_duty_exceeds_cycle_rejected(self):
        with pytest.raises(EnergyModelError):
            inference_energy_budget(1.0, 1.0, rr_cycle_slots=2, duty_nodes=3)
