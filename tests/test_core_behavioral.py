"""Behavioral tests of the core mechanisms, end to end but cheap."""

import pytest

from repro.core.engine import SessionEngine, WireReport
from repro.core.ensemble import ConfidenceMatrix
from repro.core.policies import aas_policy, aasr_policy, origin_policy, rr_policy
from repro.core.scheduling import ActivityAwareScheduler, ExtendedRoundRobin, RankTable
from repro.core.scheduling.base import SchedulingContext


def vote(node_id, label, confidence=0.1):
    return WireReport(
        node_id, 0, 0, completed=True, predicted_label=label, confidence=confidence
    )


def decide(policy, matrix, votes):
    """A fresh session's decision after one slot of ``votes``."""
    nodes = matrix.node_ids
    table = RankTable({label: nodes for label in range(matrix.n_classes)})
    return SessionEngine(policy, nodes, table, matrix).finish_slot(0, votes)


class TestAnticipationDrivesSelection:
    """AAS must track the anticipated activity as it changes."""

    def make(self):
        base = ExtendedRoundRobin.from_rr_length([0, 1, 2], 3)
        table = RankTable({0: [0, 1, 2], 1: [1, 2, 0], 2: [2, 0, 1]})
        return ActivityAwareScheduler(base, table, cooldown_slots=0)

    def context(self, anticipated):
        return SchedulingContext(
            node_ready={n: True for n in range(3)},
            anticipated_label=anticipated,
        )

    def test_follows_anticipation_changes(self):
        scheduler = self.make()
        assert scheduler.active_nodes(0, self.context(0)) == [0]
        assert scheduler.active_nodes(1, self.context(1)) == [1]
        assert scheduler.active_nodes(2, self.context(2)) == [2]

    def test_sticky_best_sensor_without_cooldown(self):
        scheduler = self.make()
        chosen = [scheduler.active_nodes(s, self.context(1))[0] for s in range(6)]
        assert chosen == [1] * 6


class TestRecallEnsembleSemantics:
    def test_weighted_vote_downweights_confused_sensor(self):
        # Sensor 0 is flat/confused about class 0; sensors 1, 2 carry
        # real confidence about class 1.  Nothing is transmitted, so
        # only the matrix weighs the votes.
        matrix = ConfidenceMatrix(
            {0: [0.001, 0.001], 1: [0.08, 0.10], 2: [0.07, 0.09]}
        )
        votes = [vote(n, label, confidence=0.0) for n, label in [(0, 0), (1, 1), (2, 1)]]
        assert decide(origin_policy(3, adaptive=False), matrix, votes) == 1

    def test_weighted_differs_from_majority_when_weights_skew(self):
        matrix = ConfidenceMatrix({0: [0.2, 0.0], 1: [0.01, 0.01], 2: [0.01, 0.01]})
        votes = [
            vote(0, 0, confidence=0.2),
            vote(1, 1, confidence=0.01),
            vote(2, 1, confidence=0.01),
        ]
        assert decide(aasr_policy(3), matrix, votes) == 1  # two beats one
        # ... but node 0's weight dominates.
        assert decide(origin_policy(3, adaptive=False), matrix, votes) == 0

    def test_adaptation_tracks_transmitted_confidence(self):
        matrix = ConfidenceMatrix({0: [0.05, 0.05]}, adaptation_alpha=1.0)
        matrix.update(0, 1, confidence=0.13)
        assert matrix.weight(0, 1) == pytest.approx(0.13)
        # alpha=1: the matrix *is* the last transmitted confidence.


class TestPolicyLadderInvariants:
    """Cheap structural invariants of the policy specs themselves."""

    @pytest.mark.parametrize("rr_length", [3, 6, 9, 12])
    def test_ladder_shares_cadence(self, rr_length):
        table = RankTable({0: [0, 1, 2], 1: [0, 1, 2]})
        nodes = [0, 1, 2]
        schedulers = [
            spec.make_scheduler(nodes, table)
            for spec in (
                rr_policy(rr_length),
                aas_policy(rr_length),
                aasr_policy(rr_length),
                origin_policy(rr_length),
            )
        ]
        context = SchedulingContext(
            node_ready={n: True for n in nodes},
            anticipated_label=None,
        )
        # Identical compute-slot cadence across the ladder: the rungs
        # differ in WHO computes and HOW results aggregate, never WHEN.
        for slot in range(2 * rr_length):
            actives = [len(s.active_nodes(slot, context)) for s in schedulers]
            assert len(set(actives)) == 1

    def test_ladder_names_match_paper_legend(self):
        assert rr_policy(9).name == "RR9"
        assert aas_policy(9).name == "RR9 AAS"
        assert aasr_policy(9).name == "RR9 AASR"
        assert origin_policy(9).name == "RR9 Origin"


class TestConfidenceSeedingProperty:
    def test_seeded_rows_reflect_model_sharpness(self, tiny_bundle):
        """A row's magnitude tracks how peaked the model's softmax is on
        the classes it predicts — never negative, never above the
        one-hot variance bound."""
        from repro.utils.stats import max_confidence

        matrix = tiny_bundle.confidence_matrix
        bound = max_confidence(matrix.n_classes)
        array = matrix.as_array()
        assert (array >= 0).all()
        assert (array <= bound + 1e-9).all()
