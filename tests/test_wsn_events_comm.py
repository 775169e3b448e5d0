"""Tests for the radio cost model and the comm link."""

import pytest

from repro.wsn.comm import CommLink, RadioProfile


class TestRadioProfile:
    def test_ble_cheaper_per_message_than_wifi(self):
        ble, wifi = RadioProfile.ble(), RadioProfile.wifi()
        assert CommLink(ble).message_cost_j(8) < CommLink(wifi).message_cost_j(8)

    def test_negative_energy_rejected(self):
        with pytest.raises(Exception):
            RadioProfile("x", -1.0, 0.0, 0.0)


class TestCommLink:
    def test_send_accounts(self):
        link = CommLink(RadioProfile.ble())
        cost = link.send(6)
        assert cost == pytest.approx(1.5e-6 + 6 * 0.25e-6)
        assert link.messages_sent == 1
        assert link.bytes_sent == 6
        assert link.energy_spent_j == pytest.approx(cost)

    def test_cost_linear_in_bytes(self):
        link = CommLink(RadioProfile.ble())
        assert link.message_cost_j(10) > link.message_cost_j(5)

    def test_paper_assumption_messages_are_cheap(self):
        """The paper assumes comm cost negligible: a result message must
        cost far less than one pruned inference (~60 uJ)."""
        link = CommLink(RadioProfile.ble())
        assert link.message_cost_j(6) < 10e-6

    def test_invalid_bytes(self):
        with pytest.raises(Exception):
            CommLink(RadioProfile.ble()).send(0)

    def test_invalid_profile(self):
        with pytest.raises(Exception):
            CommLink("not a profile")
