"""Unit tests for the fault-injection subsystem (`repro.faults`).

Covers construction-time plan validation, the Gilbert–Elliott loss
statistics, the lossy CommLink surface, the host's fault surface on a
batch's decision row (corrupted labels, restart) and the AAS
retry/backoff reroute.  Experiment-level behaviour lives in
``test_faults_integration.py``.
"""

import numpy as np
import pytest

from repro.core.engine import DecisionEngine, EngineRow, SlotReports, WireReport
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import aasr_policy, naive_policy
from repro.core.scheduling.aas import RETRY_BUDGET, ActivityAwareScheduler
from repro.core.scheduling.base import SchedulingContext
from repro.core.scheduling.rank_table import RankTable
from repro.core.scheduling.round_robin import ExtendedRoundRobin
from repro.errors import FaultError, ReproError
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


def _outcome(node_id, label, slot):
    return WireReport(
        node_id=node_id,
        slot_index=slot,
        started_slot=slot,
        completed=True,
        predicted_label=label,
        confidence=0.9,
    )


#: A majority-recall deployment of four nodes and five classes.
HOST_NODES = [0, 1, 2, 3]


def _host_row() -> DecisionEngine:
    """One majority-recall row."""
    matrix = ConfidenceMatrix({node: [0.1] * 5 for node in HOST_NODES}, adaptation_alpha=0.0)
    table = RankTable({label: HOST_NODES for label in range(5)})
    return DecisionEngine(
        [EngineRow(policy=aasr_policy(4), confidence=matrix)], HOST_NODES, table
    )


def _receive(engine, slot, reports) -> list:
    """Every row receives ``(node_id, label[, garbled label])`` reports
    sensed at ``slot``; returns the rows' final labels."""
    shape = engine.shape
    columns = SlotReports(
        attempted=np.zeros(shape, dtype=bool),
        completed=np.zeros(shape, dtype=bool),
        delivered=np.ones(shape, dtype=bool),
        predicted=np.zeros(shape, dtype=np.int64),
        reported=np.full(shape, -1, dtype=np.int64),
        confidence=np.full(shape, 0.9),
        started=np.full(shape, slot, dtype=np.int64),
    )
    for node_id, label, *garbled in reports:
        k = HOST_NODES.index(node_id)
        columns.attempted[:, k] = columns.completed[:, k] = True
        columns.predicted[:, k] = label
        if garbled:
            columns.reported[:, k] = garbled[0]
    return engine.finish_slot(slot, columns).tolist()


class TestFaultModelValidation:
    def test_fault_error_hierarchy(self):
        assert issubclass(FaultError, ReproError)
        assert issubclass(FaultError, ValueError)

    def test_negative_slots_rejected(self):
        with pytest.raises(FaultError):
            NodeDeath(node_id=0, at_slot=-1)
        with pytest.raises(FaultError):
            Brownout(node_id=0, start_slot=-3, duration_slots=2)
        with pytest.raises(FaultError):
            HostRestart(at_slot=-1)

    def test_non_integer_slot_rejected(self):
        with pytest.raises(FaultError):
            NodeDeath(node_id=0, at_slot=2.5)
        with pytest.raises(FaultError):
            NodeDeath(node_id=0, at_slot=True)

    def test_brownout_needs_positive_duration(self):
        with pytest.raises(FaultError):
            Brownout(node_id=1, start_slot=4, duration_slots=0)

    def test_brownout_window_arithmetic(self):
        outage = Brownout(node_id=1, start_slot=10, duration_slots=5)
        assert outage.end_slot == 15
        assert not outage.covers(9)
        assert outage.covers(10)
        assert outage.covers(14)
        assert not outage.covers(15)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(FaultError):
            PacketLoss(rate=1.5)
        with pytest.raises(FaultError):
            PacketLoss(rate=-0.1)
        with pytest.raises(FaultError):
            GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=2.0)
        with pytest.raises(FaultError):
            HarvesterDropout(node_id=0, windows=((0, 5),), factor=1.2)

    def test_link_fault_window_must_be_ordered(self):
        with pytest.raises(FaultError):
            PacketLoss(rate=0.5, start_slot=20, end_slot=10)
        with pytest.raises(FaultError):
            PacketLoss(rate=0.5, start_slot=10, end_slot=10)

    def test_link_fault_active_window(self):
        loss = PacketLoss(rate=0.5, start_slot=10, end_slot=20)
        assert not loss.active_at(9)
        assert loss.active_at(10)
        assert loss.active_at(19)
        assert not loss.active_at(20)
        open_ended = PacketLoss(rate=0.5, start_slot=10)
        assert open_ended.active_at(10_000)

    def test_gilbert_elliott_needs_a_moving_chain(self):
        with pytest.raises(FaultError):
            GilbertElliottLoss(p_good_to_bad=0.0, p_bad_to_good=0.0)

    def test_gilbert_elliott_stationary_rate(self):
        ge = GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.3)
        # pi_b = 0.1 / 0.4 = 0.25, loss_bad = 1, loss_good = 0.
        assert ge.stationary_loss_rate == pytest.approx(0.25)
        lossy_good = GilbertElliottLoss(
            p_good_to_bad=0.2, p_bad_to_good=0.2, loss_good=0.1, loss_bad=0.9
        )
        assert lossy_good.stationary_loss_rate == pytest.approx(0.5)

    def test_harvester_dropout_validation_and_scale(self):
        with pytest.raises(FaultError):
            HarvesterDropout(node_id=0, windows=())
        with pytest.raises(FaultError):
            HarvesterDropout(node_id=0, windows=((5, 5),))
        dropout = HarvesterDropout(node_id=0, windows=((5, 10),), factor=0.25)
        assert dropout.scale_at(4) == 1.0
        assert dropout.scale_at(5) == 0.25
        assert dropout.scale_at(9) == 0.25
        assert dropout.scale_at(10) == 1.0


class TestFaultPlanValidation:
    def test_default_plan_is_empty(self):
        plan = FaultPlan()
        assert plan.faults == ()
        assert not plan.has_link_faults
        assert plan.named_nodes() == ()

    def test_non_fault_entries_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(faults=("drop everything",))

    def test_overlapping_brownouts_rejected(self):
        with pytest.raises(FaultError, match="overlapping"):
            FaultPlan(
                faults=(
                    Brownout(node_id=1, start_slot=10, duration_slots=10),
                    Brownout(node_id=1, start_slot=15, duration_slots=5),
                )
            )

    def test_adjacent_and_cross_node_brownouts_allowed(self):
        FaultPlan(
            faults=(
                Brownout(node_id=1, start_slot=10, duration_slots=5),
                Brownout(node_id=1, start_slot=15, duration_slots=5),
                Brownout(node_id=2, start_slot=12, duration_slots=10),
            )
        )

    def test_named_nodes_sorted_and_deduplicated(self):
        plan = FaultPlan(
            faults=(
                NodeDeath(node_id=2, at_slot=5),
                Brownout(node_id=0, start_slot=1, duration_slots=2),
                PacketLoss(rate=0.5),  # node_id=None: names nobody
                PayloadCorruption(rate=0.1, node_id=2),
            )
        )
        assert plan.named_nodes() == (0, 2)

    def test_compile_rejects_unknown_node(self):
        plan = FaultPlan(faults=(NodeDeath(node_id=9, at_slot=5),))
        with pytest.raises(FaultError, match="unknown node 9"):
            plan.compile(node_ids=[0, 1, 2], n_slots=100, n_classes=5)

    def test_compile_link_faults_need_rng(self):
        plan = FaultPlan(faults=(PacketLoss(rate=0.5),))
        assert plan.has_link_faults
        with pytest.raises(FaultError, match="RNG"):
            plan.compile(node_ids=[0], n_slots=10, n_classes=3)

    def test_from_failures_compiles_to_node_deaths(self):
        plan = FaultPlan.from_failures({2: 30, 0: 10})
        assert plan.faults == (
            NodeDeath(node_id=0, at_slot=10),
            NodeDeath(node_id=2, at_slot=30),
        )
        assert not plan.has_link_faults


def _single_link_hook(plan, n_classes=5, seed=0):
    engine = plan.compile(
        node_ids=[0],
        n_slots=10**9,
        n_classes=n_classes,
        rng=np.random.default_rng(seed),
    )
    hook = engine.link_hook(0)
    assert hook is not None
    return hook


class TestLossStatistics:
    def test_bernoulli_loss_matches_rate(self):
        hook = _single_link_hook(FaultPlan(faults=(PacketLoss(rate=0.3),)))
        n = 10_000
        dropped = sum(1 for i in range(n) if not hook(i, 0).delivered)
        assert dropped / n == pytest.approx(0.3, abs=0.02)

    def test_gilbert_elliott_matches_stationary_rate(self):
        ge = GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.3)
        hook = _single_link_hook(FaultPlan(faults=(ge,)))
        n = 20_000
        dropped = sum(1 for i in range(n) if not hook(i, 0).delivered)
        # Bursts correlate successive messages, so allow a wider band
        # than the i.i.d. standard error.
        assert dropped / n == pytest.approx(ge.stationary_loss_rate, abs=0.03)

    def test_gilbert_elliott_losses_are_bursty(self):
        # Sticky bad state: a drop should predict another drop.
        ge = GilbertElliottLoss(p_good_to_bad=0.05, p_bad_to_good=0.2)
        hook = _single_link_hook(FaultPlan(faults=(ge,)))
        outcomes = [not hook(i, 0).delivered for i in range(20_000)]
        marginal = sum(outcomes) / len(outcomes)
        after_drop = [b for a, b in zip(outcomes, outcomes[1:]) if a]
        conditional = sum(after_drop) / len(after_drop)
        assert marginal == pytest.approx(ge.stationary_loss_rate, abs=0.03)
        assert conditional > 2 * marginal  # bursty, not i.i.d.

    def test_corruption_garbles_within_class_range(self):
        hook = _single_link_hook(
            FaultPlan(faults=(PayloadCorruption(rate=0.5),)), n_classes=6
        )
        n = 4_000
        corrupted = 0
        for i in range(n):
            delivery = hook(i, 2)
            assert delivery.delivered
            if delivery.corrupted:
                corrupted += 1
                assert delivery.label != 2
                assert 0 <= delivery.label < 6
            else:
                assert delivery.label == 2
        assert corrupted / n == pytest.approx(0.5, abs=0.03)

    def test_windowed_loss_only_inside_window(self):
        hook = _single_link_hook(
            FaultPlan(faults=(PacketLoss(rate=1.0, start_slot=10, end_slot=20),))
        )
        assert hook(5, 0).delivered
        assert not hook(15, 0).delivered
        assert hook(25, 0).delivered

    def test_same_seed_same_channel_decisions(self):
        plan = FaultPlan(faults=(GilbertElliottLoss(0.1, 0.3), PacketLoss(rate=0.2)))
        a = _single_link_hook(plan, seed=42)
        b = _single_link_hook(plan, seed=42)
        assert [a(i, 0).delivered for i in range(500)] == [
            b(i, 0).delivered for i in range(500)
        ]


class TestLossyCommLink:
    """One node's lossy link, as the kernel's lane arithmetic runs it.

    Every completion sends one message and pays its radio energy; the
    link's fault channel then decides delivery, and the run's
    :class:`~repro.faults.stats.LinkStats` count what it decided.
    """

    def _run(self, experiment, *faults):
        result = experiment.run(naive_policy(3), seed=5, faults=FaultPlan(faults=faults))
        return result, result.fault_stats.per_link

    def test_transmit_without_hook_delivers(self, tiny_experiment):
        lossy, *clean = tiny_experiment.bundle.confidence_matrix.node_ids
        _, links = self._run(tiny_experiment, PacketLoss(node_id=lossy, rate=1.0))
        for node_id in clean:
            link = links[node_id]
            assert link.messages_sent > 0
            assert link.messages_delivered == link.messages_sent
            assert link.messages_dropped == link.messages_corrupted == 0

    def test_dropped_message_still_costs_energy(self, tiny_experiment):
        lossy = tiny_experiment.bundle.confidence_matrix.node_ids[0]
        result, links = self._run(tiny_experiment, PacketLoss(node_id=lossy, rate=1.0))
        link = links[lossy]
        assert link.messages_sent == result.node_stats[lossy].completions > 0
        assert link.messages_dropped == link.messages_sent
        assert link.messages_delivered == 0
        cost = tiny_experiment.config.radio.message_cost_j(
            tiny_experiment.config.costs.result_message_bytes
        )
        sent = sum(entry.messages_sent for entry in links.values())
        assert result.comm_energy_j == pytest.approx(sent * cost)

    def test_corrupted_message_counted(self, tiny_experiment):
        noisy, *clean = tiny_experiment.bundle.confidence_matrix.node_ids
        _, links = self._run(tiny_experiment, PayloadCorruption(node_id=noisy, rate=1.0))
        link = links[noisy]
        assert link.messages_corrupted == link.messages_delivered == link.messages_sent > 0
        assert all(links[node_id].messages_corrupted == 0 for node_id in clean)


class TestHostFaultSurface:
    """The host a fault plan acts on: a batch row of the decision engine."""

    def test_corrupted_label_is_what_gets_stored(self):
        engine = _host_row()
        assert _receive(engine, 3, [(0, 1, 4)]) == [4]

    def test_restart_wipes_memory_keeps_counters(self):
        engine = _host_row()
        _receive(engine, 3, [(0, 1)])
        engine.restart(0)
        assert engine.messages_received.tolist() == [1]  # bookkeeping survives
        assert engine.restarts.tolist() == [1]
        # A restarted host has no opinion until someone reports again.
        assert _receive(engine, 4, []) == [-1]


class TestSchedulerRetryBackoff:
    def _scheduler(self):
        # A compute slot every slot; a backoff lasts one 3-slot cycle.
        base = ExtendedRoundRobin([0, 1, 2])
        table = RankTable({0: [0, 1, 2], 1: [1, 0, 2]})
        return ActivityAwareScheduler(base, table, cooldown_slots=0)

    def _context(self, responsive):
        return SchedulingContext(
            node_ready={0: True, 1: True, 2: True},
            anticipated_label=0,
            node_responsive=responsive,
        )

    def test_unresponsive_node_retried_then_rerouted(self):
        scheduler = self._scheduler()
        context = self._context({0: False, 1: True, 2: True})
        # RETRY_BUDGET retries of the best-ranked node burn its budget...
        for slot in range(RETRY_BUDGET):
            assert scheduler.active_nodes(slot, context) == [0]
        # ...then the ranking falls through to the next-best sensor for
        # one cycle from the last strike.
        backoff_end = RETRY_BUDGET - 1 + scheduler.base.cycle_length
        for slot in range(RETRY_BUDGET, backoff_end):
            assert scheduler.active_nodes(slot, context) == [1]
        # Backoff expires: the best sensor gets another chance.
        assert scheduler.active_nodes(backoff_end, context) == [0]

    def test_completion_clears_backoff_immediately(self):
        scheduler = self._scheduler()
        context = self._context({0: False, 1: True, 2: True})
        for slot in range(RETRY_BUDGET):
            assert scheduler.active_nodes(slot, context) == [0]
        slot = RETRY_BUDGET
        assert scheduler.active_nodes(slot, context) == [1]  # backing off
        scheduler.observe(slot, [_outcome(0, label=0, slot=slot)], final_label=0)
        assert scheduler.active_nodes(slot + 1, self._context({0: True})) == [0]

    def test_responsive_node_never_penalized(self):
        scheduler = self._scheduler()
        context = self._context({0: True, 1: True, 2: True})
        for slot in range(6):
            assert scheduler.active_nodes(slot, context) == [0]

    def test_default_context_is_responsive(self):
        context = SchedulingContext(
            node_ready={0: True}, anticipated_label=None
        )
        assert context.is_responsive(0)
        assert context.is_responsive(99)
