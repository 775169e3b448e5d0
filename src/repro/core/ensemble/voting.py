"""Voting functions over recalled per-sensor classifications.

Both voters match the :data:`repro.wsn.host.VoteFunction` signature, so
they plug directly into the host device.  ``MajorityVote`` is the naive
AASR aggregation; ``WeightedMajorityVote`` is Origin's, weighting each
vote by the confidence matrix and resolving ties through it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.errors import ConfigurationError
from repro.wsn.host import ReceivedVote


def _tally(
    votes: Sequence[ReceivedVote], weights: Iterable[float]
) -> Optional[int]:
    """The label with the largest summed weight; ties go to fresh evidence.

    Sums per label in vote order.  Labels within ``1e-12`` of the top
    score are tied; among them the label whose newest vote was sensed
    last wins, and the smaller label after that.
    """
    if not votes:
        return None
    scores: Dict[int, float] = {}
    for vote, weight in zip(votes, weights):
        scores[vote.label] = scores.get(vote.label, 0.0) + weight
    top = max(scores.values())
    tied = [label for label, score in scores.items() if abs(score - top) < 1e-12]
    if len(tied) == 1:
        return tied[0]
    freshest: Dict[int, int] = {}
    for vote in votes:
        freshest[vote.label] = max(freshest.get(vote.label, -1), vote.started_slot)
    return max(tied, key=lambda label: (freshest[label], -label))


class MajorityVote:
    """Unweighted majority over the recalled votes.

    Each vote counts :attr:`~repro.wsn.host.ReceivedVote.weight` (1.0
    unless the host applies staleness down-weighting), so "unweighted"
    means no confidence weighting — link-health fading still applies.
    Ties resolve toward the label backed by the most recently *sensed*
    evidence (the freshest vote among the tied labels) — the natural
    choice in a recall-based system where recency tracks the current
    activity.
    """

    name = "majority"

    def __call__(
        self, votes: Sequence[ReceivedVote], current_slot: int
    ) -> Optional[int]:
        return _tally(votes, [vote.weight for vote in votes])


class WeightedMajorityVote:
    """Confidence-weighted majority (Origin's ensemble).

    Each recalled vote carries the confidence score its sensor
    transmitted with the classification (the variance of that window's
    softmax); the host combines it with the confidence matrix entry for
    (sensor, class).  The matrix entry — seeded from validation and
    adapted online — acts as the sensor's per-class prior; the
    transmitted score says how sure this *particular* classification
    was.  ``blend`` balances the two (1.0 = transmitted score only,
    0.0 = matrix only).  Remaining exact ties resolve toward the
    freshest evidence.
    """

    name = "confidence-weighted"

    def __init__(self, confidence: ConfidenceMatrix, *, blend: float = 0.5) -> None:
        if not isinstance(confidence, ConfidenceMatrix):
            raise ConfigurationError("confidence must be a ConfidenceMatrix")
        if not 0.0 <= blend <= 1.0:
            raise ConfigurationError(f"blend must be in [0, 1], got {blend}")
        self.confidence = confidence
        self.blend = float(blend)

    def _weight(self, vote: ReceivedVote) -> float:
        prior = self.confidence.weight(vote.node_id, vote.label)
        blended = self.blend * vote.confidence + (1.0 - self.blend) * prior
        # The host's staleness down-weighting composes multiplicatively.
        return blended * vote.weight

    def __call__(
        self, votes: Sequence[ReceivedVote], current_slot: int
    ) -> Optional[int]:
        return _tally(votes, [self._weight(vote) for vote in votes])
