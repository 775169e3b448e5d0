"""Experiment-level behaviour of the fault-injection subsystem.

The headline property: an *empty* ``FaultPlan`` reproduces the
fault-free run bit for bit; the legacy ``failures=`` dict is gone
(``FaultPlan.from_failures`` builds the equivalent plan).
"""

import pytest

from repro.core.policies import aas_policy, origin_policy, rr_policy
from repro.faults import (
    Brownout,
    FaultPlan,
    GilbertElliottLoss,
    HarvesterDropout,
    HostRestart,
    NodeDeath,
    PacketLoss,
    PayloadCorruption,
)


def _same_result(a, b):
    assert a.records == b.records
    assert a.node_stats == b.node_stats
    assert a.comm_energy_j == b.comm_energy_j
    assert a.confidence_updates == b.confidence_updates


class TestEmptyPlanDeterminism:
    @pytest.mark.parametrize(
        "policy",
        [rr_policy(3), aas_policy(6), origin_policy(6)],
        ids=lambda p: p.name,
    )
    def test_empty_plan_is_bit_identical(self, tiny_experiment, policy):
        baseline = tiny_experiment.run(policy, seed=9)
        with_plan = tiny_experiment.run(policy, seed=9, faults=FaultPlan())
        _same_result(baseline, with_plan)
        assert with_plan.fault_stats is None

    def test_faulted_runs_are_reproducible(self, tiny_experiment):
        plan = FaultPlan(
            faults=(
                GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.2),
                Brownout(node_id=1, start_slot=10, duration_slots=8),
            )
        )
        first = tiny_experiment.run(origin_policy(6), seed=9, faults=plan)
        second = tiny_experiment.run(origin_policy(6), seed=9, faults=plan)
        _same_result(first, second)
        assert first.fault_stats.summary() == second.fault_stats.summary()


class TestFailuresShim:
    def test_failures_kwarg_is_gone(self, tiny_experiment):
        # run() no longer takes the legacy dict at all.
        with pytest.raises(TypeError, match="failures"):
            tiny_experiment.run(rr_policy(3), seed=5, failures={0: 10})

    def test_from_failures_is_the_supported_spelling(self, tiny_experiment):
        first = tiny_experiment.run(
            rr_policy(3), seed=5, faults=FaultPlan.from_failures({0: 10})
        )
        second = tiny_experiment.run(
            rr_policy(3), seed=5, faults=FaultPlan.from_failures({0: 10})
        )
        _same_result(first, second)
        assert first.fault_stats.offline_slots == second.fault_stats.offline_slots


class TestNodeDeath:
    def test_dead_node_never_active_and_accounted(self, tiny_experiment):
        plan = FaultPlan(faults=(NodeDeath(node_id=0, at_slot=10),))
        result = tiny_experiment.run(rr_policy(3), seed=5, faults=plan)
        for record in result.records:
            if record.slot_index >= 10:
                assert 0 not in record.active_nodes
        assert result.fault_stats.offline_slots[0] == result.n_slots - 10
        assert result.fault_stats.offline_slots[1] == 0


class TestBrownout:
    def test_brownout_window_and_recovery_accounting(self, tiny_experiment):
        plan = FaultPlan(faults=(Brownout(node_id=0, start_slot=10, duration_slots=15),))
        result = tiny_experiment.run(rr_policy(3), seed=5, faults=plan)
        for record in result.records:
            if 10 <= record.slot_index < 25:
                assert 0 not in record.active_nodes
        # The node rejoins the rotation after the outage.
        assert any(
            0 in r.active_nodes for r in result.records if r.slot_index >= 25
        )
        stats = result.fault_stats
        assert stats.offline_slots[0] == 15
        assert len(stats.recoveries) == 1
        event = stats.recoveries[0]
        assert event.node_id == 0
        assert (event.start_slot, event.end_slot) == (10, 25)
        if event.recovered:
            assert event.recovered_slot >= 25
            assert stats.mean_time_to_recover() == event.time_to_recover_slots

    def test_brownout_drains_stored_energy(self, tiny_experiment):
        clean = tiny_experiment.run(rr_policy(3), seed=5)
        browned = tiny_experiment.run(
            rr_policy(3),
            seed=5,
            faults=FaultPlan(faults=(Brownout(node_id=0, start_slot=5, duration_slots=20),)),
        )
        # Offline slots neither harvest nor attempt.
        assert (
            browned.node_stats[0].harvested_j < clean.node_stats[0].harvested_j
        )
        assert (
            browned.node_stats[0].attempts_started
            <= clean.node_stats[0].attempts_started
        )


class TestLossyLinks:
    def test_packet_loss_accounting_is_consistent(self, tiny_experiment):
        plan = FaultPlan(faults=(PacketLoss(rate=0.5),))
        result = tiny_experiment.run(origin_policy(3), seed=5, faults=plan)
        stats = result.fault_stats
        assert stats.messages_dropped > 0
        assert result.total_dropped_messages == stats.messages_dropped
        assert stats.messages_sent == stats.messages_delivered + stats.messages_dropped
        # Dropped packets still cost radio energy.
        assert result.comm_energy_j > 0
        assert stats.messages_delivered < stats.messages_sent

    def test_total_loss_means_no_decisions(self, tiny_experiment):
        plan = FaultPlan(faults=(PacketLoss(rate=1.0),))
        result = tiny_experiment.run(origin_policy(3), seed=5, faults=plan)
        assert result.fault_stats.messages_delivered == 0
        assert all(r.predicted_label is None for r in result.records)
        # Nodes still burned energy computing and transmitting.
        assert result.total_completions > 0
        assert result.comm_energy_j > 0

    def test_every_delivery_corrupted_at_rate_one(self, tiny_experiment):
        plan = FaultPlan(faults=(PayloadCorruption(rate=1.0),))
        result = tiny_experiment.run(origin_policy(3), seed=5, faults=plan)
        stats = result.fault_stats
        assert stats.messages_corrupted == stats.messages_delivered > 0


class TestHarvesterDropout:
    def test_full_shadow_starves_the_node(self, tiny_experiment):
        n = tiny_experiment.config.n_windows
        plan = FaultPlan(
            faults=(HarvesterDropout(node_id=0, windows=((0, n),), factor=0.0),)
        )
        result = tiny_experiment.run(rr_policy(3), seed=5, faults=plan)
        assert result.fault_stats is not None
        assert result.node_stats[0].harvested_j == 0.0
        assert result.node_stats[1].harvested_j > 0
        # A starved node never completes, but it stays scheduled (the
        # node is up — only its harvester is shadowed).
        assert result.node_stats[0].completions == 0


class TestHostRestart:
    def test_restart_wipes_recall_and_is_counted(self, tiny_experiment):
        plan = FaultPlan(faults=(HostRestart(at_slot=30),))
        result = tiny_experiment.run(origin_policy(3), seed=5, faults=plan)
        assert result.fault_stats.host_restarts == 1
        # The system recovers: decisions resume after the wipe.
        assert any(
            r.predicted_label is not None
            for r in result.records
            if r.slot_index >= 30
        )


class TestDegradationAccounting:
    def test_degradation_vs_fault_free(self, tiny_experiment):
        clean = tiny_experiment.run(origin_policy(6), seed=5)
        faulted = tiny_experiment.run(
            origin_policy(6),
            seed=5,
            faults=FaultPlan(faults=(PacketLoss(rate=0.6),)),
        )
        report = faulted.degradation_vs(clean)
        assert set(report) == {
            "event_accuracy_delta",
            "overall_accuracy_delta",
            "retained_event_accuracy",
        }
        assert report["event_accuracy_delta"] == pytest.approx(
            clean.event_accuracy - faulted.event_accuracy
        )
        if clean.event_accuracy:
            assert report["retained_event_accuracy"] == pytest.approx(
                faulted.event_accuracy / clean.event_accuracy
            )
