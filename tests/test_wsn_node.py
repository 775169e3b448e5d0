"""Tests for SensorNode (stepped as a one-lane kernel) and the host device.

The host device is the session engine's recall memory and vote.
"""

import numpy as np
import pytest

from repro.core.engine import SessionEngine, SlotReports, WireReport, wire_reports
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import aasr_policy
from repro.core.scheduling.rank_table import RankTable
from repro.datasets.body import BodyLocation
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTrace
from repro.sim.kernel import SlotKernel
from repro.wsn.comm import RadioProfile
from repro.wsn.node import NodeCosts, SensorNode


def make_node(
    node_id=0,
    watts=1e-3,
    n_slots=50,
    inference_energy=100e-6,
    capacity=1e-3,
    volatile=False,
    **node_kwargs,
):
    """A node over a constant-power trace for predictable arithmetic."""
    trace = PowerTrace(dt_s=1.0, watts=np.full(n_slots, watts))
    return SensorNode(
        node_id=node_id,
        location=list(BodyLocation)[node_id % 3],
        inference_energy_j=inference_energy,
        harvester=Harvester(trace),
        capacitor=Capacitor(capacity_j=capacity),
        nvp=NonVolatileProcessor(checkpoint_overhead=0.0, volatile=volatile),
        radio=RadioProfile.ble(),
        slot_duration_s=1.0,
        **node_kwargs,
    )


class NodeLane:
    """One node stepped as a one-lane :class:`SlotKernel`.

    Completed inferences read a fixed random softmax per slot and report
    as a served device's lane does: one row of
    :class:`~repro.core.engine.SlotReports` turned into a
    :class:`~repro.core.engine.WireReport`.
    """

    def __init__(self, node, n_slots=50, n_classes=3):
        self.node = node
        self.kernel = SlotKernel.from_nodes([node], n_runs=1, n_slots=n_slots)
        probabilities = np.random.default_rng(node.node_id).dirichlet(
            np.ones(n_classes), size=n_slots
        )
        self.predicted = probabilities.argmax(axis=1)
        self.confidences = probabilities.var(axis=1)
        self.events = None

    @property
    def stored(self):
        return float(self.kernel.stored[0])

    @property
    def stats(self):
        return self.kernel.node_stats()[0]

    def idle(self, slot):
        self.kernel.advance(slot, np.zeros(1, dtype=bool))

    def active(self, slot):
        self.events = events = self.kernel.advance(slot, np.ones(1, dtype=bool))
        started = events.started[None]
        reports = SlotReports(
            events.active[None],
            events.completed[None],
            np.ones((1, 1), dtype=bool),
            self.predicted[started],
            np.full((1, 1), -1),
            self.confidences[started],
            started,
        )
        (report,) = wire_reports(slot, reports, [self.node.node_id])
        return report


class TestSensorNodeHarvesting:
    def test_idle_slot_accumulates(self):
        lane = NodeLane(make_node(watts=1e-3))
        lane.idle(0)
        assert lane.stored == pytest.approx(1e-3, rel=0.01)
        assert lane.stats.slots == 1

    def test_harvest_capped_by_capacity(self):
        lane = NodeLane(make_node(watts=1e-2, capacity=5e-3))
        for slot in range(3):
            lane.idle(slot)
        assert lane.stored <= 5e-3

    def test_beyond_trace_harvests_nothing(self):
        lane = NodeLane(make_node(n_slots=2), n_slots=6)
        lane.idle(5)
        assert lane.stored < 1e-6

    def test_idle_draw_charged(self):
        node = make_node(watts=1e-3)
        lane = NodeLane(node)
        lane.idle(0)
        assert lane.stats.consumed_j == node.costs.idle_j
        assert lane.stats.active_slots == 0


class TestSensorNodeInference:
    def test_completes_with_ample_energy(self):
        lane = NodeLane(make_node(watts=1e-3, inference_energy=100e-6))
        outcome = lane.active(0)
        assert outcome.completed
        assert outcome.predicted_label == lane.predicted[0]
        assert outcome.confidence == lane.confidences[0]
        assert lane.stats.completions == 1

    def test_fails_without_energy_but_keeps_progress(self):
        lane = NodeLane(make_node(watts=50e-6, inference_energy=200e-6))
        outcome = lane.active(0)
        assert not outcome.completed
        assert 0.0 < lane.kernel.done_work[0] < 200e-6  # partial progress kept

    def test_nvp_finishes_over_multiple_slots(self):
        lane = NodeLane(make_node(watts=100e-6, inference_energy=220e-6))
        results = [lane.active(slot) for slot in range(4)]
        assert any(o.completed for o in results)
        completed = next(o for o in results if o.completed)
        assert completed.started_slot == 0  # classified the slot-0 window

    def test_volatile_node_restarts_each_slot(self):
        lane = NodeLane(make_node(watts=100e-6, inference_energy=220e-6, volatile=True))
        for slot in range(5):
            outcome = lane.active(slot)
            assert not outcome.completed
            assert outcome.started_slot == slot  # fresh window each time

    def test_stale_task_aborted(self):
        lane = NodeLane(
            make_node(watts=10e-6, inference_energy=500e-6, max_task_age_slots=2)
        )
        lane.active(0)
        lane.active(1)
        assert lane.kernel.pending_slot[0] == 0
        outcome = lane.active(2)  # age 2 >= max -> abort, restart
        assert outcome.started_slot == 2
        assert lane.stats.attempts_started == 2

    def test_sense_cost_charged(self):
        node = make_node(watts=1e-3)
        lane = NodeLane(node)
        lane.active(0)
        assert lane.stats.consumed_j >= node.costs.sense_j

    def test_sense_starvation_fails_the_slot(self):
        # Too little charge for the IMU sample: the lane pays what it
        # has, starts nothing and reports a failed slot on that window.
        node = make_node(watts=5e-6)
        lane = NodeLane(node)
        outcome = lane.active(0)
        assert not outcome.completed
        assert outcome.started_slot == 0
        assert 0.0 < lane.events.sense_paid[0] < node.costs.sense_j
        assert lane.stats.attempts_started == 0
        assert lane.stats.failed_active_slots == 1

    def test_comm_charged_on_completion(self):
        node = make_node(watts=1e-3)
        lane = NodeLane(node)
        lane.active(0)
        assert lane.stats.completions == 1
        assert lane.stats.comm_j == pytest.approx(
            node.radio.message_cost_j(node.costs.result_message_bytes)
        )

    def test_can_start_inference(self):
        lane = NodeLane(make_node(watts=1e-3, inference_energy=100e-6))
        assert not lane.kernel.ready_mask()[0]  # empty capacitor
        lane.idle(0)
        assert lane.kernel.ready_mask()[0]

    def test_completion_rate(self):
        lane = NodeLane(make_node(watts=1e-3))
        lane.active(0)
        assert lane.stats.completion_rate == 1.0


class TestNodeCosts:
    def test_invalid_rejected(self):
        with pytest.raises(Exception):
            NodeCosts(sense_j=-1.0)
        with pytest.raises(Exception):
            NodeCosts(result_message_bytes=0)


class TestHostDevice:
    def make_host(self):
        nodes = [0, 1, 2]
        matrix = ConfidenceMatrix({node: [0.1, 0.1, 0.1] for node in nodes})
        table = RankTable({label: nodes for label in range(3)})
        return SessionEngine(aasr_policy(3), nodes, table, matrix)

    def make_outcome(self, node_id, label, slot, confidence=0.1):
        return WireReport(
            node_id=node_id,
            slot_index=slot,
            started_slot=slot,
            completed=True,
            predicted_label=label,
            confidence=confidence,
        )

    def test_recall_remembers_latest(self):
        host = self.make_host()
        host.finish_slot(0, [self.make_outcome(1, 0, slot=0)])
        host.finish_slot(1, [self.make_outcome(2, 0, slot=1)])
        # Node 1's second report replaces its first, so labels 0 and 2
        # tie and the fresher 2 wins; a kept first report would make 0
        # the majority.
        assert host.finish_slot(5, [self.make_outcome(1, 2, slot=5)]) == 2

    def test_classify_empty_memory(self):
        assert self.make_host().finish_slot(0, []) is None
