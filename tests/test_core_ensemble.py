"""Tests for the confidence matrix and the session engine's recall vote."""

import numpy as np
import pytest

from repro.core.engine import SessionEngine, WireReport
from repro.core.ensemble import ConfidenceMatrix
from repro.core.policies import aasr_policy, origin_policy
from repro.core.scheduling import RankTable
from repro.errors import ConfigurationError

#: Naive majority over recall, and Origin's confidence-weighted vote
#: over a static matrix.
MAJORITY = aasr_policy(3)
WEIGHTED = origin_policy(3, adaptive=False)


def vote(node_id, label, *, slot=0, started_slot=None, confidence=0.1):
    """A completed, delivered report received at ``slot``."""
    return WireReport(
        node_id=node_id,
        slot_index=slot,
        started_slot=slot if started_slot is None else started_slot,
        completed=True,
        predicted_label=label,
        confidence=confidence,
    )


def session(policy, matrix, **kwargs) -> SessionEngine:
    nodes = matrix.node_ids
    table = RankTable({label: nodes for label in range(matrix.n_classes)})
    return SessionEngine(policy, nodes, table, matrix, **kwargs)


@pytest.fixture
def matrix():
    return ConfidenceMatrix(
        {0: [0.10, 0.02, 0.05], 1: [0.03, 0.12, 0.06], 2: [0.08, 0.08, 0.01]},
        adaptation_alpha=0.5,
    )


class TestConfidenceMatrix:
    def test_raw_weight_lookup(self, matrix):
        # The voting weight is the stored expected confidence.
        assert matrix.weight(0, 0) == pytest.approx(0.10)
        assert matrix.weight(1, 1) == pytest.approx(0.12)

    def test_update_moves_toward_observation(self, matrix):
        updated = matrix.update(0, 1, confidence=0.10)
        assert updated == pytest.approx(0.02 + 0.5 * (0.10 - 0.02))
        assert matrix.updates == 1

    def test_update_noop_with_zero_alpha(self, matrix):
        frozen = matrix.copy(adaptation_alpha=0.0)
        before = frozen.weight(0, 0)
        frozen.update(0, 0, confidence=0.9)
        assert frozen.weight(0, 0) == before
        assert frozen.updates == 0

    def test_copy_is_independent(self, matrix):
        clone = matrix.copy()
        clone.update(0, 0, confidence=0.9)
        assert matrix.weight(0, 0) == pytest.approx(0.10)
        assert clone.adaptation_alpha == matrix.adaptation_alpha

    def test_as_array(self, matrix):
        array = matrix.as_array()
        assert array.shape == (3, 3)
        np.testing.assert_allclose(array[0], [0.10, 0.02, 0.05])

    def test_seed_from_validation(self, tiny_bundle, tiny_dataset):
        matrix = tiny_bundle.confidence_matrix
        assert matrix.n_classes == tiny_dataset.n_classes
        assert len(matrix.node_ids) == 3
        assert (matrix.as_array() >= 0).all()

    def test_unknown_node(self, matrix):
        with pytest.raises(ConfigurationError):
            matrix.weight(9, 0)

    def test_label_out_of_range(self, matrix):
        with pytest.raises(ConfigurationError):
            matrix.weight(0, 5)

    def test_negative_confidence_rejected(self, matrix):
        with pytest.raises(ConfigurationError):
            matrix.update(0, 0, confidence=-0.1)

    def test_negative_confidence_validated_before_node_lookup(self, matrix):
        """Regression: a bad confidence must report itself even when the
        node id is also unknown, not hide behind the node error."""
        with pytest.raises(ConfigurationError, match="confidence must be >= 0"):
            matrix.update(99, 0, confidence=-0.1)

    def test_inconsistent_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfidenceMatrix({0: [0.1, 0.2], 1: [0.1, 0.2, 0.3]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_confidence_rejected(self, matrix, bad):
        # A NaN weight would silently drop its label from later votes.
        before = matrix.as_array().copy()
        with pytest.raises(ConfigurationError, match="finite"):
            matrix.update(0, 1, bad)
        np.testing.assert_array_equal(matrix.as_array(), before)
        assert matrix.updates == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_seed_row_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            ConfidenceMatrix({0: [0.1, bad], 1: [0.1, 0.2]})

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfidenceMatrix({})


class TestMajorityVote:
    def test_simple_majority(self, matrix):
        votes = [vote(0, 1, slot=5), vote(1, 1, slot=5), vote(2, 0, slot=5)]
        assert session(MAJORITY, matrix).finish_slot(5, votes) == 1

    def test_tie_resolves_to_freshest(self, matrix):
        votes = [vote(0, 1, slot=8, started_slot=2), vote(1, 0, slot=8, started_slot=7)]
        assert session(MAJORITY, matrix).finish_slot(8, votes) == 0

    def test_empty_votes(self, matrix):
        engine = session(MAJORITY, matrix)
        assert engine.finish_slot(0, []) is None
        assert engine.decisions == 0

    def test_unanimous(self, matrix):
        votes = [vote(n, 2) for n in range(3)]
        assert session(MAJORITY, matrix).finish_slot(0, votes) == 2


class TestWeightedMajorityVote:
    def test_matrix_weight_swings_vote(self, matrix):
        # Node 1 confident in class 1 outweighs two weak votes for 2;
        # nothing is transmitted, so only the matrix weighs the votes.
        votes = [vote(n, label, confidence=0.0) for n, label in [(0, 2), (2, 2), (1, 1)]]
        # weights: class2 = 0.5 * (0.05 + 0.01) < class1 = 0.5 * 0.12
        assert session(WEIGHTED, matrix).finish_slot(0, votes) == 1

    def test_blend_mixes(self, matrix):
        # Node 0's vote for class 0 weighs 0.5 * 0.2 + 0.5 * 0.10 = 0.15
        # against 0.5 * confidence + 0.5 * 0.12 for node 1's class 1:
        # the matrix alone would always pick 1, the transmitted scores
        # alone always 0.
        for confidence, label in [(0.17, 0), (0.19, 1)]:
            votes = [vote(0, 0, confidence=0.2), vote(1, 1, confidence=confidence)]
            assert session(WEIGHTED, matrix).finish_slot(0, votes) == label

    def test_empty_votes(self, matrix):
        engine = session(WEIGHTED, matrix)
        assert engine.finish_slot(0, []) is None
        assert engine.decisions == 0

    def test_exact_tie_resolves_to_freshest(self):
        matrix = ConfidenceMatrix({node: [0.1, 0.1] for node in range(3)})
        votes = [vote(0, 0, slot=5, started_slot=1), vote(1, 1, slot=5, started_slot=4)]
        assert session(WEIGHTED, matrix).finish_slot(5, votes) == 1
