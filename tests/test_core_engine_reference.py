"""DecisionEngine against a frozen copy of the dict-driven engine.

The engine takes per-node flags, skips ER-r no-op slots without building
a scheduling context and reuses the previous recall vote while nothing
it reads has changed.  The reference below is the engine as it was
before those changes — ``begin_slot`` over ``{node_id: NodeSlotState}``,
``HostDevice.classify`` voting on every slot, and both vote classes with
their ``defaultdict`` tallies — kept here as the test oracle.  Hypothesis
drives both side by side over random sessions and requires identical
decisions, bookkeeping, confidence matrices and traces.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DecisionEngine, NodeSlotState
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.ensemble.voting import MajorityVote, WeightedMajorityVote
from repro.core.policies import (
    AggregationMode,
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.core.scheduling.base import SchedulingContext
from repro.core.scheduling.rank_table import RankTable
from repro.errors import ConfigurationError, SimulationError
from repro.obs.observer import NULL_OBS, Observability
from repro.serve.protocol import WireReport
from repro.wsn.host import HostDevice, ReceivedVote

# ---------------------------------------------------------------------------
# the reference: the engine, host vote and voters before lane flags
# ---------------------------------------------------------------------------


class RefMajorityVote:
    def __call__(
        self, votes: Sequence[ReceivedVote], current_slot: int
    ) -> Optional[int]:
        if not votes:
            return None
        counts: Dict[int, float] = defaultdict(float)
        freshest: Dict[int, int] = defaultdict(lambda: -1)
        for vote in votes:
            counts[vote.label] += vote.weight
            freshest[vote.label] = max(freshest[vote.label], vote.started_slot)
        top = max(counts.values())
        tied = [label for label, count in counts.items() if abs(count - top) < 1e-12]
        if len(tied) == 1:
            return tied[0]
        return max(tied, key=lambda label: (freshest[label], -label))


class RefWeightedMajorityVote:
    def __init__(self, confidence: ConfidenceMatrix, *, blend: float = 0.5) -> None:
        self.confidence = confidence
        self.blend = float(blend)

    def _weight(self, vote: ReceivedVote) -> float:
        prior = self.confidence.weight(vote.node_id, vote.label)
        blended = self.blend * vote.confidence + (1.0 - self.blend) * prior
        return blended * vote.weight

    def __call__(
        self, votes: Sequence[ReceivedVote], current_slot: int
    ) -> Optional[int]:
        if not votes:
            return None
        scores: Dict[int, float] = defaultdict(float)
        freshest: Dict[int, int] = defaultdict(lambda: -1)
        for vote in votes:
            scores[vote.label] += self._weight(vote)
            freshest[vote.label] = max(freshest[vote.label], vote.started_slot)
        top = max(scores.values())
        tied = [label for label, score in scores.items() if abs(score - top) < 1e-12]
        if len(tied) == 1:
            return tied[0]
        return max(tied, key=lambda label: (freshest[label], -label))


class RefHost(HostDevice):
    """The host whose ``classify`` votes afresh on every slot."""

    def _ref_staleness_weighted(
        self, votes: List[ReceivedVote], current_slot: int
    ) -> List[ReceivedVote]:
        half_life = self.staleness_half_life_slots
        if half_life is None:
            return votes
        return [
            vote
            if vote.age(current_slot) <= 0
            else replace(
                vote, weight=vote.weight * 0.5 ** (vote.age(current_slot) / half_life)
            )
            for vote in votes
        ]

    def classify(self, current_slot: int) -> Optional[int]:
        votes = self.remembered_votes()
        if self.max_recall_age_slots is not None:
            votes = [
                vote for vote in votes if vote.age(current_slot) <= self.max_recall_age_slots
            ]
        votes = self._ref_staleness_weighted(votes, current_slot)
        obs = self.obs
        ages = None
        if self._recall_hist is not None:
            observe = self._recall_hist.observe
            ages = [vote.age(current_slot) for vote in votes]
            for age in ages:
                observe(age)
        if not votes:
            return None
        label = self.vote(votes, current_slot)
        if label is not None:
            self._decisions += 1
        if obs.tracer.enabled and label is not None:
            obs.tracer.append(
                "vote.cast",
                current_slot,
                None,
                {
                    "label": label,
                    "n_votes": len(votes),
                    "max_age": (
                        max(ages)
                        if ages
                        else max(vote.age(current_slot) for vote in votes)
                    ),
                },
            )
        return label


class RefEngine:
    """``DecisionEngine`` as it read before it took lane flags."""

    def __init__(
        self,
        policy,
        node_ids,
        rank_table,
        confidence,
        *,
        max_recall_age_slots=None,
        staleness_half_life_slots=None,
        obs=NULL_OBS,
    ) -> None:
        self.policy = policy
        self.node_ids = list(node_ids)
        self.confidence = confidence
        self.obs = obs
        if policy.aggregation is AggregationMode.CONFIDENCE_RECALL:
            vote = RefWeightedMajorityVote(confidence)
        else:
            vote = RefMajorityVote()
        self.host = RefHost(
            vote,
            max_recall_age_slots=max_recall_age_slots,
            staleness_half_life_slots=staleness_half_life_slots,
        )
        if obs.enabled:
            self.host.attach_obs(obs)
        self.scheduler = policy.make_scheduler(self.node_ids, rank_table)
        self.scheduler.reset()
        self.last_final = None

    def begin_slot(self, slot, states, *, node_responsive=None):
        # ``node_energy_j`` was dropped from the context: no scheduler
        # ever read it, which is what this comparison checks.
        context = SchedulingContext(
            node_ready={
                node_id: (state.ready and state.online)
                for node_id, state in states.items()
            },
            anticipated_label=self.last_final,
            node_responsive=node_responsive if node_responsive is not None else {},
        )
        active = [
            node_id
            for node_id in self.scheduler.active_nodes(slot, context)
            if states[node_id].online
        ]
        trace = self.obs.tracer
        if trace.enabled:
            trace.append(
                "slot.scheduled",
                slot,
                None,
                {"active": list(active), "anticipated": self.last_final},
            )
        return active

    def finish_slot(self, slot, outcomes, *, receive=False, decide=True, on_completion=None):
        policy = self.policy
        trace = self.obs.tracer
        if receive:
            for outcome in outcomes:
                if outcome.completed and outcome.delivered:
                    self.host.receive(outcome)
        for outcome in outcomes:
            if not outcome.completed:
                continue
            if on_completion is not None:
                on_completion(outcome)
            if policy.adaptive_confidence and outcome.delivered:
                self.confidence.update(
                    outcome.node_id, outcome.delivered_label, outcome.confidence
                )
                if trace.enabled:
                    trace.append(
                        "confidence.updated",
                        slot,
                        outcome.node_id,
                        {
                            "label": outcome.delivered_label,
                            "confidence": float(outcome.confidence),
                        },
                    )
        final = None
        if decide:
            if policy.uses_recall:
                final = self.host.classify(slot)
            else:
                completed = [o for o in outcomes if o.completed and o.delivered]
                if completed:
                    self.last_final = completed[-1].delivered_label
                final = self.last_final
            if final is not None:
                self.last_final = final
        self.scheduler.observe(slot, [o for o in outcomes if o.delivered], final)
        return final


# ---------------------------------------------------------------------------
# random sessions
# ---------------------------------------------------------------------------

#: Deliberately not sorted: construction order must win over id order.
NODES = [2, 0, 1]
N_CLASSES = 4

POLICIES = [
    naive_policy(3),
    rr_policy(3),
    aas_policy(6),
    aasr_policy(9),
    origin_policy(12),
    origin_policy(6, adaptive=False),
]


def rank_table() -> RankTable:
    return RankTable(
        {0: [2, 0, 1], 1: [0, 1, 2], 2: [1, 2, 0], 3: [0, 2, 1]}
    )


def confidence_matrix(alpha: float) -> ConfidenceMatrix:
    rows = {
        2: [0.30, 0.05, 0.20, 0.10],
        0: [0.10, 0.25, 0.05, 0.30],
        1: [0.20, 0.20, 0.15, 0.05],
    }
    return ConfidenceMatrix(rows, adaptation_alpha=alpha)


#: Per node and slot: what the node reports if it is active.
node_report = st.tuples(
    st.sampled_from(["incomplete", "delivered", "dropped", "corrupted"]),
    st.integers(0, N_CLASSES - 1),  # predicted label
    st.integers(0, N_CLASSES - 1),  # garbled label when corrupted
    st.floats(0.0, 0.25, allow_nan=False),  # transmitted confidence
    st.integers(0, 4),  # slots since the window was sensed
)

slot_plan = st.fixed_dictionaries(
    {
        "ready": st.lists(st.booleans(), min_size=3, max_size=3),
        "online": st.one_of(st.none(), st.lists(st.booleans(), min_size=3, max_size=3)),
        "responsive": st.one_of(
            st.none(), st.lists(st.booleans(), min_size=3, max_size=3)
        ),
        "restart": st.booleans(),
        # A write to the matrix from outside this run (a matrix shared
        # between runs), with no report to move the host's memory.
        "adapt": st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(NODES),
                st.integers(0, N_CLASSES - 1),
                st.floats(0.0, 0.5, allow_nan=False),
            ),
        ),
        "decide": st.booleans(),
        "reports": st.lists(node_report, min_size=3, max_size=3),
    }
)

session = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(POLICIES),
        "max_recall_age": st.sampled_from([None, 3]),
        "staleness": st.sampled_from([None, 4]),
        "observed": st.booleans(),
        "slots": st.lists(slot_plan, min_size=1, max_size=40),
    }
)


def reports_for(slot: int, active: List[int], plan) -> List[WireReport]:
    """The active nodes' reports, in construction order."""
    reports = []
    for k, node_id in enumerate(NODES):
        if node_id not in active:
            continue
        kind, label, garbled, confidence, lag = plan["reports"][k]
        started = max(slot - lag, 0)
        if kind == "incomplete":
            reports.append(WireReport(node_id, slot, started, completed=False))
            continue
        reports.append(
            WireReport(
                node_id,
                slot,
                started,
                completed=True,
                delivered=kind != "dropped",
                predicted_label=label,
                confidence=confidence,
                reported_label=garbled if kind == "corrupted" else None,
            )
        )
    return reports


def build_pair(spec):
    policy = spec["policy"]
    # Faster than a bundle's adaptation, so adapted weights flip votes.
    alpha = 0.3 if policy.adaptive_confidence else 0.0
    pair = []
    for factory in (RefEngine, DecisionEngine):
        obs = Observability() if spec["observed"] else NULL_OBS
        pair.append(
            factory(
                policy,
                NODES,
                rank_table(),
                confidence_matrix(alpha),
                max_recall_age_slots=spec["max_recall_age"],
                staleness_half_life_slots=spec["staleness"],
                obs=obs,
            )
        )
    return pair


class TestEngineMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(spec=session)
    def test_random_sessions(self, spec):
        reference, engine = build_pair(spec)
        for slot, plan in enumerate(spec["slots"]):
            if plan["restart"]:
                reference.host.restart()
                engine.host.restart()
            if plan["adapt"] is not None:
                reference.confidence.update(*plan["adapt"])
                engine.confidence.update(*plan["adapt"])
            online = plan["online"]
            responsive = (
                None
                if plan["responsive"] is None
                else dict(zip(NODES, plan["responsive"]))
            )
            states = {
                node_id: NodeSlotState(
                    energy_j=1e-4 * (k + 1),
                    ready=plan["ready"][k],
                    online=True if online is None else online[k],
                )
                for k, node_id in enumerate(NODES)
            }
            expected_active = reference.begin_slot(
                slot, states, node_responsive=responsive
            )
            active = engine.begin_slot(
                slot, plan["ready"], online=online, node_responsive=responsive
            )
            assert active == expected_active

            reports = reports_for(slot, active, plan)
            expected = reference.finish_slot(
                slot, reports, receive=True, decide=plan["decide"]
            )
            final = engine.finish_slot(
                slot, reports, decide=plan["decide"]
            )
            assert final == expected
            assert engine.last_final == reference.last_final

        assert engine.host.decisions_made == reference.host.decisions_made
        assert engine.host.messages_received == reference.host.messages_received
        assert (
            engine.confidence.as_array().tobytes()
            == reference.confidence.as_array().tobytes()
        )
        assert engine.confidence.updates == reference.confidence.updates
        assert engine.obs.tracer.events == reference.obs.tracer.events
        if spec["observed"]:
            assert engine.obs.metrics.to_dict() == reference.obs.metrics.to_dict()


class TestVoteReuse:
    def test_reused_vote_still_counted_observed_and_traced(self):
        obs = Observability()
        engine = DecisionEngine(
            origin_policy(12), NODES, rank_table(), confidence_matrix(0.0), obs=obs
        )
        report = WireReport(
            0, 0, 0, completed=True, predicted_label=1, confidence=0.2
        )
        engine.begin_slot(0, [True, True, True])
        assert engine.finish_slot(0, [report]) == 1
        for slot in range(1, 4):  # no-op slots: the vote is reused
            assert engine.begin_slot(slot, [True, True, True]) == []
            assert engine.finish_slot(slot, []) == 1
        assert engine.host.decisions_made == 4
        assert len(obs.tracer.of_kind("vote.cast")) == 4
        ages = obs.metrics.to_dict()["histograms"]["host.recall_age_slots"]
        assert ages["count"] == 4

    def test_restart_invalidates_the_reused_vote(self):
        engine = DecisionEngine(
            origin_policy(12), NODES, rank_table(), confidence_matrix(0.0)
        )
        report = WireReport(
            0, 0, 0, completed=True, predicted_label=1, confidence=0.2
        )
        engine.begin_slot(0, [True, True, True])
        assert engine.finish_slot(0, [report]) == 1
        engine.host.restart()
        engine.begin_slot(1, [True, True, True])
        assert engine.finish_slot(1, []) is None

    @pytest.mark.parametrize(
        "recall, votes_cast",
        [({}, 2), ({"staleness_half_life_slots": 4}, 6), ({"max_recall_age_slots": 9}, 6)],
        ids=["reused", "fading", "expiring"],
    )
    def test_vote_reruns_only_when_reuse_is_sound(self, monkeypatch, recall, votes_cast):
        calls = []
        real = WeightedMajorityVote.__call__

        def counted(self, votes, current_slot):
            calls.append(current_slot)
            return real(self, votes, current_slot)

        monkeypatch.setattr(WeightedMajorityVote, "__call__", counted)
        engine = DecisionEngine(
            origin_policy(12), NODES, rank_table(), confidence_matrix(0.3), **recall
        )
        report = WireReport(0, 0, 0, completed=True, predicted_label=1, confidence=0.2)
        for slot in range(6):
            engine.begin_slot(slot, [True, True, True])
            # Slot 0 receives and adapts; slot 3 only adapts the matrix.
            if slot == 3:
                engine.confidence.update(2, 1, 0.4)
            engine.finish_slot(slot, [report] if slot == 0 else [])
        assert len(calls) == votes_cast

    def test_outside_matrix_write_revotes(self):
        # Two nodes disagree; a write to the shared matrix on a slot
        # without reports must flip the decision, as the reference does.
        spec = {
            "policy": origin_policy(12),
            "max_recall_age": None,
            "staleness": None,
            "observed": False,
        }
        reference, engine = build_pair(spec)
        finals = []
        for slot in range(8):
            states = {n: NodeSlotState(0.0, True) for n in NODES}
            active = reference.begin_slot(slot, states)
            assert engine.begin_slot(slot, [True, True, True]) == active
            label = 1 if slot == 4 else 0
            reports = [
                WireReport(n, slot, slot, completed=True, predicted_label=label,
                           confidence=0.1)
                for n in active
            ]
            if slot == 6:
                reference.confidence.update(2, 0, 0.0)
                engine.confidence.update(2, 0, 0.0)
            expected = reference.finish_slot(slot, reports, receive=True)
            assert engine.finish_slot(slot, reports) == expected
            finals.append(expected)
        assert finals == [0, 0, 0, 0, 0, 0, 1, 1]

    def test_memory_version_moves_on_every_write(self):
        host = HostDevice(MajorityVote())
        versions = [host.memory_version]
        host.receive(
            WireReport(0, 0, 0, completed=True, predicted_label=1, confidence=0.2)
        )
        versions.append(host.memory_version)
        host.restart()
        versions.append(host.memory_version)
        host.reset()
        versions.append(host.memory_version)
        assert versions == sorted(set(versions))  # strictly increasing
        host.classify(3)  # reading the memory is not a write
        assert host.memory_version == versions[-1]


class TestVoters:
    def test_negative_label_raises_instead_of_wrapping(self):
        voter = WeightedMajorityVote(confidence_matrix(0.0))
        vote = ReceivedVote(0, -1, 0.2, None, 0, 0)
        with pytest.raises(ConfigurationError, match="out of range"):
            voter([vote], 0)

    @settings(max_examples=300, deadline=None)
    @given(
        votes=st.lists(
            st.tuples(
                st.sampled_from(NODES),
                st.integers(0, N_CLASSES - 1),
                st.sampled_from([0.0, 0.05, 0.1, 0.2]),
                st.integers(0, 6),
                st.sampled_from([1.0, 0.5, 0.25]),
            ),
            max_size=6,
        )
    )
    def test_voters_match_reference(self, votes):
        recalled = [
            ReceivedVote(node, label, conf, None, 0, started, weight)
            for node, label, conf, started, weight in votes
        ]
        matrix = confidence_matrix(0.0)
        assert MajorityVote()(recalled, 9) == RefMajorityVote()(recalled, 9)
        assert WeightedMajorityVote(matrix)(recalled, 9) == RefWeightedMajorityVote(
            matrix
        )(recalled, 9)


def test_begin_slot_needs_one_flag_per_node():
    engine = DecisionEngine(rr_policy(3), NODES, None, confidence_matrix(0.0))
    with pytest.raises(SimulationError, match="one flag per node"):
        engine.begin_slot(0, [True, True])
    with pytest.raises(SimulationError, match="one flag per node"):
        engine.begin_slot(0, [True, True, True], online=[True])
