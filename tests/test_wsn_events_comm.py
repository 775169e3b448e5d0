"""Tests for the radio cost model and the node-to-host link."""

import numpy as np
import pytest

from repro.datasets.body import BodyLocation
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTrace
from repro.errors import ConfigurationError
from repro.sim.kernel import SlotKernel
from repro.wsn.comm import RadioProfile
from repro.wsn.node import SensorNode


def make_node(radio):
    """A node with ample harvest: its first active slot completes."""
    return SensorNode(
        node_id=0,
        location=BodyLocation.CHEST,
        inference_energy_j=100e-6,
        harvester=Harvester(PowerTrace(dt_s=1.0, watts=np.full(4, 1e-3))),
        capacitor=Capacitor(capacity_j=1e-3),
        nvp=NonVolatileProcessor(checkpoint_overhead=0.0),
        radio=radio,
        slot_duration_s=1.0,
    )


class TestRadioProfile:
    def test_ble_cheaper_per_message_than_wifi(self):
        ble, wifi = RadioProfile.ble(), RadioProfile.wifi()
        assert ble.message_cost_j(8) < wifi.message_cost_j(8)

    def test_negative_energy_rejected(self):
        with pytest.raises(Exception):
            RadioProfile("x", -1.0, 0.0, 0.0)


class TestCommLink:
    """The link is lane arithmetic: one message per completion, priced
    by :meth:`RadioProfile.message_cost_j`."""

    def test_send_accounts(self):
        lane = SlotKernel.from_nodes([make_node(RadioProfile.ble())], n_runs=1, n_slots=4)
        events = lane.advance(0, np.ones(1, dtype=bool))
        assert events.completed[0]
        cost = 1.5e-6 + 6 * 0.25e-6
        assert lane.comm_cost_j[0] == pytest.approx(cost)
        assert events.comm_paid[0] == lane.comm_cost_j[0]
        assert lane.node_stats()[0].comm_j == pytest.approx(cost)

    def test_cost_linear_in_bytes(self):
        ble = RadioProfile.ble()
        assert ble.message_cost_j(10) > ble.message_cost_j(5)
        assert ble.message_cost_j(10) - ble.message_cost_j(5) == pytest.approx(5 * 0.25e-6)

    def test_paper_assumption_messages_are_cheap(self):
        """The paper assumes comm cost negligible: a result message must
        cost far less than one pruned inference (~60 uJ)."""
        assert RadioProfile.ble().message_cost_j(6) < 10e-6

    def test_invalid_bytes(self):
        with pytest.raises(Exception):
            RadioProfile.ble().message_cost_j(0)

    def test_invalid_profile(self):
        with pytest.raises(ConfigurationError):
            make_node("not a profile")
