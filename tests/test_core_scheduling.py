"""Tests for naive, ER-r and activity-aware scheduling."""

import tracemalloc

import numpy as np
import pytest

from repro.core.engine import DecisionEngine, EngineRow, SlotReports, WireReport
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import origin_policy
from repro.core.scheduling import (
    ActivityAwareScheduler,
    ExtendedRoundRobin,
    NaiveAllOn,
    RankTable,
    SchedulingContext,
)
from repro.errors import SchedulingError

NODES = [0, 1, 2]


def make_rank_table():
    # class 0: node 2 best; class 1: node 0 best; class 2: node 1 best.
    return RankTable({0: [2, 0, 1], 1: [0, 2, 1], 2: [1, 0, 2]})


def context(ready=None, anticipated=None):
    ready = ready if ready is not None else {n: True for n in NODES}
    return SchedulingContext(
        node_ready=ready,
        anticipated_label=anticipated,
    )


def completed_outcome(node_id, label, slot):
    return WireReport(node_id, slot, slot, True, predicted_label=label, confidence=0.1)


class TestNaiveAllOn:
    def test_all_nodes_every_slot(self):
        policy = NaiveAllOn(NODES)
        for slot in range(5):
            assert policy.active_nodes(slot, context()) == NODES

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            NaiveAllOn([])


class TestExtendedRoundRobin:
    def test_rr3_cycle(self):
        policy = ExtendedRoundRobin.from_rr_length(NODES, 3)
        assert policy.cycle == [0, 1, 2]
        assert policy.name == "RR3"

    def test_rr12_cycle_structure(self):
        policy = ExtendedRoundRobin.from_rr_length(NODES, 12)
        assert policy.cycle_length == 12
        assert policy.noops_per_node == 3
        # Fig. 3: node, 3 no-ops, node, 3 no-ops, ...
        assert policy.cycle[0] == 0
        assert policy.cycle[1:4] == [None, None, None]
        assert policy.cycle[4] == 1

    def test_slot_owner_wraps(self):
        policy = ExtendedRoundRobin.from_rr_length(NODES, 6)
        assert policy.slot_owner(0) == 0
        assert policy.slot_owner(6) == 0
        assert policy.slot_owner(8) == 1

    def test_active_nodes_on_noop(self):
        policy = ExtendedRoundRobin.from_rr_length(NODES, 6)
        assert policy.active_nodes(1, context()) == []
        assert policy.active_nodes(2, context()) == [1]

    def test_is_compute_slot(self):
        policy = ExtendedRoundRobin.from_rr_length(NODES, 9)
        compute_slots = [s for s in range(9) if policy.is_compute_slot(s)]
        assert compute_slots == [0, 3, 6]

    def test_describe_mentions_noops(self):
        text = ExtendedRoundRobin.from_rr_length(NODES, 6).describe()
        assert "No Op" in text

    @pytest.mark.parametrize("length", [4, 7, 2, 0])
    def test_invalid_lengths(self, length):
        with pytest.raises(SchedulingError):
            ExtendedRoundRobin.from_rr_length(NODES, length)

    def test_negative_slot(self):
        with pytest.raises(SchedulingError):
            ExtendedRoundRobin(NODES).slot_owner(-1)

    def test_long_cycle_is_not_allocated(self):
        # ``rr_length`` can arrive off the wire; building the scheduler
        # must not cost memory in proportion to it.
        tracemalloc.start()
        try:
            policy = ExtendedRoundRobin.from_rr_length(NODES, 3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert policy.name == "RR3000000"
        assert policy.cycle_length == 3_000_000
        slots = (0, 1_000_000, 2_999_999, 3_000_000)
        assert [policy.slot_owner(slot) for slot in slots] == [0, 1, None, 0]

    def test_long_cycle_engine_is_not_allocated(self):
        # A batch row reads its ER-r turns with slot_owner's divmod; it
        # keeps no table as long as the cycle.
        matrix = ConfidenceMatrix({n: [0.1, 0.2, 0.3] for n in NODES}, adaptation_alpha=0.05)
        ready = np.ones((1, len(NODES)), dtype=bool)
        tracemalloc.start()
        try:
            engine = DecisionEngine(
                [EngineRow(origin_policy(3_000_000), matrix)], NODES, make_rank_table()
            )
            owners = []
            for slot in (0, 1, 1_000_000, 2_999_999, 3_000_000):
                active = engine.begin_slot(slot, ready)
                owners.append(engine.active_ids(0, active))
                reports = SlotReports(
                    attempted=active,
                    completed=active.copy(),
                    delivered=np.ones_like(active),
                    predicted=np.zeros(active.shape, dtype=np.int64),
                    reported=np.full(active.shape, -1, dtype=np.int64),
                    confidence=np.full(active.shape, 0.2),
                    started=np.full(active.shape, slot, dtype=np.int64),
                )
                engine.finish_slot(slot, reports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # Slot 0 has no decision yet, so its ER-r owner runs; then AAS
        # picks class 0's best rested node: node 2, then node 0 while
        # node 2 rests.
        assert owners == [[0], [], [2], [], [0]]


class TestRankTable:
    def test_best_node(self):
        table = make_rank_table()
        assert table.best_node(0) == 2
        assert table.best_node(1) == 0

    def test_from_accuracy_orders_desc(self):
        table = RankTable.from_accuracy(
            {0: {0: 0.5, 1: 0.9, 2: 0.7}, 1: {0: 0.9, 1: 0.2, 2: 0.7}}
        )
        assert table.ranked_nodes(0) == [1, 2, 0]
        assert table.ranked_nodes(1) == [0, 2, 1]

    def test_from_accuracy_tie_breaks_low_id(self):
        table = RankTable.from_accuracy({0: {1: 0.5, 0: 0.5, 2: 0.4}})
        assert table.ranked_nodes(0) == [0, 1, 2]

    def test_rank_of(self):
        table = make_rank_table()
        assert table.rank_of(0, 2) == 0
        assert table.rank_of(0, 1) == 2

    def test_as_array_is_small_ints(self):
        array = make_rank_table().as_array()
        assert array.shape == (3, 3)
        assert array.dtype.kind == "i"
        assert array.dtype.itemsize == 1  # the paper stores ranks, not floats

    def test_unknown_class(self):
        with pytest.raises(SchedulingError):
            make_rank_table().ranked_nodes(9)

    def test_inconsistent_node_sets_rejected(self):
        with pytest.raises(SchedulingError):
            RankTable({0: [0, 1], 1: [0, 2]})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(SchedulingError):
            RankTable({0: [0, 0]})


class TestActivityAwareScheduler:
    def make(self, rr_length=12, cooldown=None):
        base = ExtendedRoundRobin.from_rr_length(NODES, rr_length)
        return ActivityAwareScheduler(base, make_rank_table(), cooldown_slots=cooldown)

    def test_falls_back_to_rr_before_first_classification(self):
        scheduler = self.make()
        assert scheduler.active_nodes(0, context()) == [0]

    def test_respects_noop_cadence(self):
        scheduler = self.make(rr_length=12)
        assert scheduler.active_nodes(1, context(anticipated=0)) == []

    def test_picks_best_ready_sensor(self):
        scheduler = self.make(cooldown=0)
        assert scheduler.active_nodes(0, context(anticipated=0)) == [2]

    def test_hands_off_when_best_not_ready(self):
        scheduler = self.make(cooldown=0)
        ready = {0: True, 1: True, 2: False}
        assert scheduler.active_nodes(0, context(ready=ready, anticipated=0)) == [0]

    def test_falls_back_to_best_when_none_ready(self):
        scheduler = self.make(cooldown=0)
        ready = {n: False for n in NODES}
        assert scheduler.active_nodes(0, context(ready=ready, anticipated=0)) == [2]

    def test_cooldown_rotates_sensors(self):
        scheduler = self.make(rr_length=3, cooldown=2)
        first = scheduler.active_nodes(0, context(anticipated=0))
        second = scheduler.active_nodes(1, context(anticipated=0))
        assert first == [2]
        assert second != first  # best sensor is cooling down

    def test_observe_updates_anticipation(self):
        scheduler = self.make(cooldown=0)
        scheduler.observe(0, [completed_outcome(0, label=1, slot=0)], final_label=None)
        assert scheduler.anticipated_label == 1
        # Internal anticipation is used when the context carries none.
        assert scheduler.active_nodes(12, context(anticipated=None)) == [0]

    def test_final_label_takes_precedence(self):
        scheduler = self.make(cooldown=0)
        scheduler.observe(0, [completed_outcome(0, label=1, slot=0)], final_label=2)
        assert scheduler.anticipated_label == 2

    def test_reset_clears_state(self):
        scheduler = self.make()
        scheduler.observe(0, [], final_label=1)
        scheduler.reset()
        assert scheduler.anticipated_label is None

    def test_mismatched_nodes_rejected(self):
        base = ExtendedRoundRobin.from_rr_length([5, 6, 7], 3)
        with pytest.raises(SchedulingError):
            ActivityAwareScheduler(base, make_rank_table())

    def test_cooldown_for_recall(self):
        base = ExtendedRoundRobin.from_rr_length(NODES, 12)
        assert ActivityAwareScheduler.cooldown_for_recall(base) == 9

    def test_name(self):
        assert self.make(rr_length=6).name == "RR6+AAS"
