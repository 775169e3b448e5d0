"""Both decision engines against a frozen copy of the dict-driven engine.

The scalar ``SessionEngine`` takes per-node flags, skips ER-r no-op
slots without building a scheduling context, keeps its recall memory
and vote in one class and reuses the previous recall vote while nothing
it reads has changed.  The columnar ``DecisionEngine`` decides for every
run of a batch at once from ``(rows, nodes)`` arrays.  The reference
below is the engine as it was before either — ``begin_slot`` over
``{node_id: NodeSlotState}``, a recall host whose ``classify`` votes on
every slot, and both vote classes with their ``defaultdict`` tallies —
kept here as the test oracle.  Hypothesis drives each engine against it
over random sessions and requires identical decisions, bookkeeping,
confidence matrices and traces; the oracle's scheduler is told a node
is responsive exactly when it is online, as both engines do.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    DecisionEngine,
    EngineRow,
    NodeSlotState,
    SessionEngine,
    SlotReports,
)
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import (
    AggregationMode,
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.core.scheduling.base import SchedulingContext, SchedulingPolicy
from repro.core.scheduling.rank_table import RankTable
from repro.errors import ConfigurationError, SimulationError
from repro.obs.observer import NULL_OBS, Observability
from repro.serve.protocol import WireReport

# ---------------------------------------------------------------------------
# the reference: the engine, host vote and voters before lane flags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReceivedVote:
    """One node's most recent classification, as the host remembers it."""

    node_id: int
    label: int
    confidence: float
    received_slot: int
    started_slot: int

    def age(self, current_slot: int) -> int:
        return current_slot - self.started_slot


class RefMajorityVote:
    def __call__(
        self, votes: Sequence[ReceivedVote], current_slot: int
    ) -> Optional[int]:
        if not votes:
            return None
        counts: Dict[int, float] = defaultdict(float)
        freshest: Dict[int, int] = defaultdict(lambda: -1)
        for vote in votes:
            counts[vote.label] += 1.0
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
        return self.blend * vote.confidence + (1.0 - self.blend) * prior

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


class RefHost:
    """The recall host, voting afresh on every slot.

    Remembers each node's last delivered classification in insertion
    order; a restart wipes the memory but keeps the counters.
    """

    def __init__(self, vote) -> None:
        self.vote = vote
        self.obs = NULL_OBS
        self._recall_hist = None
        self._memory: Dict[int, ReceivedVote] = {}
        self.messages_received = 0
        self.decisions_made = 0
        self.restarts = 0

    def attach_obs(self, obs: Observability) -> None:
        self.obs = obs
        self._recall_hist = (
            obs.metrics.histogram("host.recall_age_slots") if obs.enabled else None
        )

    def remembered_votes(self) -> List[ReceivedVote]:
        return list(self._memory.values())

    def receive(self, report: WireReport) -> None:
        if not (report.completed and report.delivered):
            raise SimulationError("host only receives completed, delivered results")
        self.messages_received += 1
        self._memory[report.node_id] = ReceivedVote(
            node_id=report.node_id,
            label=report.delivered_label,
            confidence=report.confidence if report.confidence is not None else 0.0,
            received_slot=report.slot_index,
            started_slot=report.started_slot,
        )

    def restart(self) -> None:
        self._memory.clear()
        self.restarts += 1

    def classify(self, current_slot: int) -> Optional[int]:
        votes = self.remembered_votes()
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
            self.decisions_made += 1
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
    """The decision engine as it read before it took lane flags."""

    def __init__(
        self,
        policy,
        node_ids,
        rank_table,
        confidence,
        *,
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
        self.host = RefHost(vote)
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
        "observed": st.booleans(),
        "slots": st.lists(slot_plan, min_size=1, max_size=40),
    }
)


def responsive_of(online) -> Optional[Dict[int, bool]]:
    """The oracle scheduler's ``node_responsive``: each node's online flag."""
    return None if online is None else dict(zip(NODES, online))


def fill_row(columns: SlotReports, r: int, wire: List[WireReport]) -> None:
    """Write one row's wire reports into a batch's slot columns."""
    for report in wire:
        k = NODES.index(report.node_id)
        columns.completed[r, k] = report.completed
        columns.delivered[r, k] = report.delivered
        columns.started[r, k] = report.started_slot
        if report.completed:
            columns.predicted[r, k] = report.predicted_label
            columns.confidence[r, k] = report.confidence
            if report.reported_label is not None:
                columns.reported[r, k] = report.reported_label


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
    return [
        factory(
            policy,
            NODES,
            rank_table(),
            confidence_matrix(alpha),
            obs=Observability() if spec["observed"] else NULL_OBS,
        )
        for factory in (RefEngine, SessionEngine)
    ]


class TestEngineMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(spec=session)
    def test_random_sessions(self, spec):
        reference, engine = build_pair(spec)
        for slot, plan in enumerate(spec["slots"]):
            if plan["adapt"] is not None:
                reference.confidence.update(*plan["adapt"])
                engine.confidence.update(*plan["adapt"])
            online = plan["online"]
            states = {
                node_id: NodeSlotState(
                    energy_j=1e-4 * (k + 1),
                    ready=plan["ready"][k],
                    online=True if online is None else online[k],
                )
                for k, node_id in enumerate(NODES)
            }
            expected_active = reference.begin_slot(
                slot, states, node_responsive=responsive_of(online)
            )
            active = engine.begin_slot(slot, plan["ready"], online=online)
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

        assert engine.decisions == reference.host.decisions_made
        assert engine.messages_received == reference.host.messages_received
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
        engine = SessionEngine(
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
        assert engine.decisions == 4
        assert len(obs.tracer.of_kind("vote.cast")) == 4
        ages = obs.metrics.to_dict()["histograms"]["host.recall_age_slots"]
        assert ages["count"] == 4

    def test_restart_invalidates_the_reused_vote(self):
        # Host restarts come only from fault plans, so only batch rows
        # take them.
        engine = one_row(origin_policy(12), confidence_matrix(0.0))
        ready = np.ones(engine.shape, dtype=bool)
        engine.begin_slot(0, ready)
        assert engine.finish_slot(0, one_report(engine.shape, 0, 0, 1, 0.2)).tolist() == [1]
        engine.restart(0)
        engine.begin_slot(1, ready)
        assert engine.finish_slot(1, no_reports(engine.shape)).tolist() == [-1]

    def test_vote_reruns_only_when_reuse_is_sound(self, monkeypatch):
        calls = []
        real = SessionEngine._tally

        def counted(self, votes):
            calls.append(len(votes))
            return real(self, votes)

        monkeypatch.setattr(SessionEngine, "_tally", counted)
        engine = SessionEngine(origin_policy(12), NODES, rank_table(), confidence_matrix(0.3))
        report = WireReport(0, 0, 0, completed=True, predicted_label=1, confidence=0.2)
        for slot in range(6):
            engine.begin_slot(slot, [True, True, True])
            # Slot 0 receives and adapts; slot 3 only adapts the matrix.
            if slot == 3:
                engine.confidence.update(2, 1, 0.4)
            engine.finish_slot(slot, [report] if slot == 0 else [])
        assert len(calls) == 2

    def test_outside_matrix_write_revotes(self):
        # Two nodes disagree; a write to the shared matrix on a slot
        # without reports must flip the decision, as the reference does.
        spec = {"policy": origin_policy(12), "observed": False}
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


class TestVoters:
    def test_negative_label_raises_instead_of_wrapping(self):
        engine = SessionEngine(
            origin_policy(6, adaptive=False), NODES, rank_table(), confidence_matrix(0.0)
        )
        report = WireReport(0, 0, 0, completed=True, predicted_label=-1, confidence=0.2)
        with pytest.raises(ConfigurationError, match="out of range"):
            engine.finish_slot(0, [report])


def test_begin_slot_needs_one_flag_per_node():
    engine = SessionEngine(rr_policy(3), NODES, None, confidence_matrix(0.0))
    with pytest.raises(SimulationError, match="one flag per node"):
        engine.begin_slot(0, [True, True])
    with pytest.raises(SimulationError, match="one flag per node"):
        engine.begin_slot(0, [True, True, True], online=[True])


# ---------------------------------------------------------------------------
# the columnar engine: one batch of rows against one reference per row
# ---------------------------------------------------------------------------


class ReverseReady(SchedulingPolicy):
    """A scheduler outside the built-ins, stepped through the protocol.

    On even slots it picks the ready nodes in reverse construction order
    (the last node when none is ready) and logs everything it is shown.
    """

    def __init__(self, node_ids) -> None:
        self.node_ids = list(node_ids)
        self.seen: List[tuple] = []

    def is_compute_slot(self, slot_index: int) -> bool:
        return slot_index % 2 == 0

    def active_nodes(self, slot_index, context):
        if not self.is_compute_slot(slot_index):
            return []
        self.seen.append(
            (
                "active",
                slot_index,
                context.anticipated_label,
                tuple(sorted(context.node_ready.items())),
                tuple(sorted(context.node_responsive.items())),
            )
        )
        ready = [n for n in reversed(self.node_ids) if context.node_ready.get(n)]
        return ready or [self.node_ids[-1]]

    def observe(self, slot_index, outcomes, final_label):
        self.seen.append(
            (
                "observe",
                slot_index,
                final_label,
                tuple(
                    (
                        o.node_id,
                        o.slot_index,
                        o.started_slot,
                        o.completed,
                        o.delivered,
                        o.predicted_label,
                        o.confidence,
                        o.reported_label,
                        o.delivered_label,
                    )
                    for o in outcomes
                ),
            )
        )


class ForeignSpec:
    """A duck-typed policy spec whose scheduler is :class:`ReverseReady`."""

    adaptive_confidence = False

    def __init__(self, aggregation: AggregationMode) -> None:
        self.aggregation = aggregation
        self.uses_recall = aggregation is not AggregationMode.LAST_INFERENCE
        self.name = f"reverse-ready {aggregation.value}"
        self.made: List[ReverseReady] = []

    def make_scheduler(self, node_ids, rank_table):
        self.made.append(ReverseReady(node_ids))
        return self.made[-1]


#: Row kinds: the built-in ladder plus two protocol rows.
KINDS = POLICIES + ["foreign-majority", "foreign-last"]


def row_policy(kind):
    if kind == "foreign-majority":
        return ForeignSpec(AggregationMode.MAJORITY_RECALL)
    if kind == "foreign-last":
        return ForeignSpec(AggregationMode.LAST_INFERENCE)
    return kind


row_plan = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(KINDS),
        "observed": st.booleans(),
        # A zero alpha on an adaptive policy adapts and counts nothing.
        "alpha": st.sampled_from([0.0, 0.3]),
        "hooked": st.booleans(),
    }
)


def flags(n_rows):
    """Per row, three node flags packed into one small integer."""
    return st.lists(st.integers(0, 7), min_size=n_rows, max_size=n_rows).map(
        lambda masks: [[bool(mask >> k & 1) for k in range(3)] for mask in masks]
    )


class BatchPair:
    """One columnar engine over ``plans`` and one reference per row."""

    def __init__(self, plans) -> None:
        self.plans = plans
        self.refs: List[RefEngine] = []
        self.specs: List[tuple] = []
        self.ref_hooks: List[list] = [[] for _ in plans]
        self.hooks: List[list] = [[] for _ in plans]
        #: One matrix per alpha, shared by every row that adapts at it.
        self.matrices: Dict[float, ConfidenceMatrix] = {}
        rows = []
        for r, plan in enumerate(plans):
            ref_policy, policy = row_policy(plan["kind"]), row_policy(plan["kind"])
            self.specs.append((ref_policy, policy))
            alpha = plan["alpha"] if policy.adaptive_confidence else 0.0
            self.refs.append(
                RefEngine(
                    ref_policy,
                    NODES,
                    rank_table(),
                    confidence_matrix(alpha),
                    obs=Observability() if plan["observed"] else NULL_OBS,
                )
            )
            rows.append(
                EngineRow(
                    policy=policy,
                    confidence=self.matrices.setdefault(alpha, confidence_matrix(alpha)),
                    obs=Observability() if plan["observed"] else NULL_OBS,
                    on_completion=(
                        (lambda node_id, slot, log=self.hooks[r]: log.append((node_id, slot)))
                        if plan["hooked"]
                        else None
                    ),
                )
            )
        self.engine = DecisionEngine(rows, NODES, rank_table())

    def step(self, slot, data):
        engine, refs = self.engine, self.refs
        n_rows = len(refs)
        ready = data.draw(flags(n_rows), label="ready")
        online = data.draw(st.one_of(st.none(), flags(n_rows)), label="online")
        restarts = data.draw(
            st.sets(st.integers(0, n_rows - 1), max_size=2), label="restarts"
        )
        for r in sorted(restarts):
            refs[r].host.restart()
            engine.restart(r)
        active = engine.begin_slot(
            slot, np.array(ready), online=None if online is None else np.array(online)
        )
        shape = engine.shape
        columns = SlotReports(
            attempted=active,
            completed=np.zeros(shape, dtype=bool),
            delivered=np.ones(shape, dtype=bool),
            predicted=np.zeros(shape, dtype=np.int64),
            reported=np.full(shape, -1, dtype=np.int64),
            confidence=np.zeros(shape),
            started=np.zeros(shape, dtype=np.int64),
        )
        expected_finals = []
        for r, ref in enumerate(refs):
            states = {
                node_id: NodeSlotState(
                    energy_j=0.0,
                    ready=ready[r][k],
                    online=True if online is None else online[r][k],
                )
                for k, node_id in enumerate(NODES)
            }
            expected_active = ref.begin_slot(
                slot, states, node_responsive=responsive_of(None if online is None else online[r])
            )
            assert engine.active_ids(r, active) == expected_active
            plan = {
                "reports": [
                    data.draw(node_report, label="report") if node_id in expected_active
                    else None
                    for node_id in NODES
                ]
            }
            wire = reports_for(slot, expected_active, plan)
            fill_row(columns, r, wire)
            hook = (
                (lambda outcome, log=self.ref_hooks[r]: log.append(
                    (outcome.node_id, outcome.slot_index)
                ))
                if self.plans[r]["hooked"]
                else None
            )
            expected_finals.append(
                ref.finish_slot(slot, wire, receive=True, on_completion=hook)
            )
        finals = engine.finish_slot(slot, columns)
        for r, ref in enumerate(refs):
            expected = expected_finals[r]
            assert finals[r] == (-1 if expected is None else expected)
            last = engine.last_final[r]
            assert (None if last < 0 else last) == ref.last_final

    def check(self):
        engine = self.engine
        for r, ref in enumerate(self.refs):
            assert engine.decisions[r] == ref.host.decisions_made
            assert engine.messages_received[r] == ref.host.messages_received
            assert engine.restarts[r] == ref.host.restarts
            assert engine.matrix(r).tobytes() == ref.confidence.as_array().tobytes()
            assert engine.confidence_updates[r] == ref.confidence.updates
            obs = engine.rows[r].obs
            assert obs.tracer.events == ref.obs.tracer.events
            if self.plans[r]["observed"]:
                assert obs.metrics.to_dict() == ref.obs.metrics.to_dict()
            assert self.hooks[r] == self.ref_hooks[r]
            ref_policy, policy = self.specs[r]
            if isinstance(policy, ForeignSpec):
                assert policy.made[0].seen == ref_policy.made[0].seen
        # Rows adapt private copies: the matrices they were handed stay put.
        for alpha, matrix in self.matrices.items():
            assert matrix.as_array().tobytes() == confidence_matrix(alpha).as_array().tobytes()
            assert matrix.updates == 0


class TestBatchEngineMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        plans=st.lists(row_plan, min_size=len(KINDS), max_size=len(KINDS) + 2).flatmap(
            lambda plans: st.permutations(
                [dict(plan, kind=kind) for plan, kind in zip(plans, KINDS)]
                + plans[len(KINDS):]
            )
        ),
        n_slots=st.integers(1, 24),
        data=st.data(),
    )
    def test_random_batches(self, plans, n_slots, data):
        pair = BatchPair(plans)
        for slot in range(n_slots):
            pair.step(slot, data)
        pair.check()


#: The policies whose schedulers strike an offline choice.
AWARE = [aas_policy(3), aasr_policy(3), origin_policy(3), aas_policy(6), origin_policy(12)]

aware_slot = st.fixed_dictionaries(
    {
        "ready": st.lists(st.booleans(), min_size=3, max_size=3),
        # About three flags in ten are offline.
        "online": st.lists(st.integers(0, 9).map(lambda x: x >= 3), min_size=3, max_size=3),
        "reports": st.lists(node_report, min_size=3, max_size=3),
    }
)


class TestSessionMatchesBatch:
    """A session and a one-row batch decide alike once nodes go offline.

    Both strike an offline AAS choice and back off after the budget, as
    the oracle does when told a node is responsive exactly while online.
    """

    @settings(max_examples=100, deadline=None)
    @given(policy=st.sampled_from(AWARE), slots=st.lists(aware_slot, min_size=10, max_size=60))
    def test_offline_choices_decide_alike(self, policy, slots):
        alpha = 0.3 if policy.adaptive_confidence else 0.0
        reference = RefEngine(policy, NODES, rank_table(), confidence_matrix(alpha))
        session = SessionEngine(policy, NODES, rank_table(), confidence_matrix(alpha))
        batch = one_row(policy, confidence_matrix(alpha))
        for slot, plan in enumerate(slots):
            ready, online = plan["ready"], plan["online"]
            states = {
                node_id: NodeSlotState(0.0, ready[k], online[k])
                for k, node_id in enumerate(NODES)
            }
            expected = reference.begin_slot(slot, states, node_responsive=responsive_of(online))
            active = session.begin_slot(slot, ready, online=online)
            mask = batch.begin_slot(slot, np.array([ready]), online=np.array([online]))
            assert active == batch.active_ids(0, mask) == expected

            wire = reports_for(slot, active, plan)
            columns = no_reports(batch.shape)._replace(attempted=mask)
            fill_row(columns, 0, wire)
            final = session.finish_slot(slot, wire)
            assert final == reference.finish_slot(slot, wire, receive=True)
            assert batch.finish_slot(slot, columns).tolist() == [-1 if final is None else final]


def one_row(policy, matrix, **kwargs) -> DecisionEngine:
    return DecisionEngine(
        [EngineRow(policy=policy, confidence=matrix, **kwargs)], NODES, rank_table()
    )


def no_reports(shape) -> SlotReports:
    return SlotReports(
        attempted=np.zeros(shape, dtype=bool),
        completed=np.zeros(shape, dtype=bool),
        delivered=np.ones(shape, dtype=bool),
        predicted=np.zeros(shape, dtype=np.int64),
        reported=np.full(shape, -1, dtype=np.int64),
        confidence=np.zeros(shape),
        started=np.zeros(shape, dtype=np.int64),
    )


def one_report(shape, node_id, started, label, confidence) -> SlotReports:
    """Row 0's completed, delivered report from one node of ``NODES``."""
    reports = no_reports(shape)
    k = NODES.index(node_id)
    reports.attempted[0, k] = reports.completed[0, k] = True
    reports.predicted[0, k] = label
    reports.confidence[0, k] = confidence
    reports.started[0, k] = started
    return reports


class TestBatchEngineHazards:
    def test_label_weights_sum_in_insertion_order(self):
        # Four nodes, static weights: three votes for label 0 arrive in
        # the order 3, 0, 1, then node 2 votes label 1 with exactly the
        # insertion-order sum.  Summed in insertion order the labels tie
        # and the fresher label 1 wins; summed in node order label 0
        # leads by more than the tie band.
        nodes = [0, 1, 2, 3]
        zeros = {node: [0.0, 0.0] for node in nodes}
        conf = {3: 5612.059497318285, 0: 16150.680703531754, 1: 8871.965986714711}
        half = {node: 0.5 * value for node, value in conf.items()}
        inserted = (half[3] + half[0]) + half[1]
        in_node_order = (half[0] + half[1]) + half[3]
        assert in_node_order - inserted >= 1e-12
        conf[2] = 2.0 * inserted
        engines = [
            DecisionEngine(
                [EngineRow(policy=origin_policy(4, adaptive=False),
                           confidence=ConfidenceMatrix(zeros, adaptation_alpha=0.0))],
                nodes,
                RankTable({0: nodes, 1: nodes}),
            ),
            SessionEngine(
                origin_policy(4, adaptive=False),
                nodes,
                RankTable({0: nodes, 1: nodes}),
                ConfidenceMatrix(zeros, adaptation_alpha=0.0),
            ),
        ]
        batch, session = engines
        shape = batch.shape
        for slot, (node, label) in enumerate([(3, 0), (0, 0), (1, 0), (2, 1)]):
            k = nodes.index(node)
            reports = SlotReports(
                attempted=np.zeros(shape, dtype=bool),
                completed=np.zeros(shape, dtype=bool),
                delivered=np.ones(shape, dtype=bool),
                predicted=np.full(shape, label, dtype=np.int64),
                reported=np.full(shape, -1, dtype=np.int64),
                confidence=np.full(shape, conf[node]),
                started=np.full(shape, slot, dtype=np.int64),
            )
            reports.attempted[0, k] = reports.completed[0, k] = True
            final = batch.finish_slot(slot, reports)[0]
            expected = session.finish_slot(
                slot,
                [WireReport(node, slot, slot, completed=True, predicted_label=label,
                            confidence=conf[node])],
            )
            assert final == expected
        assert final == 1

    def test_offline_choice_still_rests(self):
        # With nobody ready, AAS falls back to node 2 (best for label 0)
        # although it is offline: the active set is empty, but node 2
        # is on cooldown afterwards and node 0 runs next.
        matrix = confidence_matrix(0.0)
        engine = one_row(aasr_policy(3), matrix)
        engine.last_final[0] = 0
        online = np.array([[False, True, True]])
        idle = engine.begin_slot(0, np.zeros(engine.shape, dtype=bool), online=online)
        assert not idle.any()
        active = engine.begin_slot(1, np.ones(engine.shape, dtype=bool))
        assert engine.active_ids(0, active) == [0]

    def test_zero_alpha_adapts_and_counts_nothing(self):
        matrix = confidence_matrix(0.0)
        engine = one_row(origin_policy(3), matrix)
        before = engine.matrix(0).copy()
        reports = SlotReports(
            attempted=np.ones(engine.shape, dtype=bool),
            completed=np.ones(engine.shape, dtype=bool),
            delivered=np.ones(engine.shape, dtype=bool),
            predicted=np.ones(engine.shape, dtype=np.int64),
            reported=np.full(engine.shape, -1, dtype=np.int64),
            confidence=np.full(engine.shape, 0.2),
            started=np.zeros(engine.shape, dtype=np.int64),
        )
        engine.begin_slot(0, np.ones(engine.shape, dtype=bool))
        engine.finish_slot(0, reports)
        assert engine.confidence_updates[0] == 0
        assert engine.matrix(0).tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_confidence_rejected(self, bad):
        engine = one_row(origin_policy(3), confidence_matrix(0.3))
        reports = SlotReports(
            attempted=np.ones(engine.shape, dtype=bool),
            completed=np.ones(engine.shape, dtype=bool),
            delivered=np.ones(engine.shape, dtype=bool),
            predicted=np.ones(engine.shape, dtype=np.int64),
            reported=np.full(engine.shape, -1, dtype=np.int64),
            confidence=np.full(engine.shape, bad),
            started=np.zeros(engine.shape, dtype=np.int64),
        )
        before = engine.matrix(0).copy()
        with pytest.raises(ConfigurationError, match="confidence must be >= 0 and finite"):
            engine.finish_slot(0, reports)
        assert engine.matrix(0).tobytes() == before.tobytes()

    def test_begin_slot_needs_one_flag_per_row_and_node(self):
        engine = one_row(rr_policy(3), confidence_matrix(0.0))
        with pytest.raises(SimulationError, match="one flag per row and node"):
            engine.begin_slot(0, np.ones((1, 2), dtype=bool))
        with pytest.raises(SimulationError, match="one flag per row and node"):
            engine.begin_slot(
                0, np.ones((1, 3), dtype=bool), online=np.ones((2, 3), dtype=bool)
            )


def two_rows() -> DecisionEngine:
    """An adaptive confidence-weighted row over a majority-recall row."""
    return DecisionEngine(
        [
            EngineRow(policy=origin_policy(3), confidence=confidence_matrix(0.3)),
            EngineRow(policy=aasr_policy(3), confidence=confidence_matrix(0.0)),
        ],
        NODES,
        rank_table(),
    )


def every_node_reports(shape) -> SlotReports:
    reports = no_reports(shape)
    reports.attempted[:] = reports.completed[:] = True
    reports.predicted[:] = [1, 2, 1]
    reports.confidence[:] = 0.2
    return reports


def engine_state(engine: DecisionEngine) -> dict:
    """Every attribute of an engine, arrays by dtype, shape and bytes."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray)
        else value
        for name, value in vars(engine).items()
    }


def spoil(case: str, reports: SlotReports) -> SlotReports:
    """One kind of slot ``finish_slot`` must reject."""
    if case in SlotReports._fields:
        return reports._replace(**{case: getattr(reports, case)[:1]})
    if case == "negative label":
        reports.predicted[0] = [-1, 2, 1]
    elif case == "corrupted label past the classes":
        reports.reported[1, 2] = N_CLASSES
    elif case == "nan confidence":
        reports.confidence[0, 1] = float("nan")
    elif case == "negative confidence":
        reports.confidence[0, 2] = -0.25
    return reports


REJECTED = [
    *[(field, SimulationError, rf"finish_slot needs {field} .* \(2, 3\), got \(1, 3\)")
      for field in SlotReports._fields],
    ("negative label", ConfigurationError, "label -1 out of range"),
    ("corrupted label past the classes", ConfigurationError, f"label {N_CLASSES} out of range"),
    ("nan confidence", ConfigurationError, "got nan"),
    ("negative confidence", ConfigurationError, "got -0.25"),
]


class TestFinishSlotChecksFirst:
    @pytest.mark.parametrize(
        "case, error, message", REJECTED, ids=[case for case, _, _ in REJECTED]
    )
    def test_rejected_slot_changes_nothing(self, case, error, message):
        engine, fresh = two_rows(), two_rows()
        fresh.rows = engine.rows
        reports = spoil(case, every_node_reports(engine.shape))
        with pytest.raises(error, match=message):
            engine.finish_slot(0, reports)
        assert engine_state(engine) == engine_state(fresh)
        # The engine still takes a sound slot afterwards.
        assert engine.finish_slot(0, every_node_reports(engine.shape)).tolist() == [1, 1]

    def test_unread_confidence_is_not_checked(self):
        # A majority-recall row neither stores nor adapts a confidence.
        engine = two_rows()
        reports = every_node_reports(engine.shape)
        reports.confidence[1] = float("nan")
        assert engine.finish_slot(0, reports).tolist() == [1, 1]
        assert engine.messages_received.tolist() == [3, 3]


#: ``(policy, delivered label, confidence, message)``: slots both engines
#: reject before changing any state.  Every policy reads the label; only
#: confidence recall reads the confidence.
BAD_SLOTS = [
    (rr_policy(3), 9, 0.2, "label 9 out of range"),
    (aas_policy(3), 9, 0.2, "label 9 out of range"),
    (aasr_policy(3), 9, 0.2, "label 9 out of range"),
    (origin_policy(3), 9, 0.2, "label 9 out of range"),
    (aasr_policy(3), -1, 0.2, "label -1 out of range"),
    (origin_policy(3), 1, float("nan"), "got nan"),
    (origin_policy(3), 1, float("inf"), "got inf"),
    (origin_policy(3), 1, -0.5, "got -0.5"),
    (origin_policy(6, adaptive=False), 1, float("nan"), "got nan"),
]


class TestSessionFinishSlotChecksFirst:
    """The scalar engine rejects what the columnar one rejects, first."""

    @pytest.mark.parametrize(
        "policy, label, confidence, message",
        BAD_SLOTS,
        ids=[f"{p.name}-{label}-{conf}" for p, label, conf, _ in BAD_SLOTS],
    )
    def test_bad_slot_rejected_by_both_engines(self, policy, label, confidence, message):
        alpha = 0.3 if policy.adaptive_confidence else 0.0
        session = SessionEngine(policy, NODES, rank_table(), confidence_matrix(alpha))
        batch = one_row(policy, confidence_matrix(alpha))
        sound = [WireReport(n, 0, 0, completed=True, predicted_label=2, confidence=0.1) for n in NODES]
        for slot in range(3):
            session.begin_slot(slot, [True] * 3)
            batch.begin_slot(slot, np.ones(batch.shape, dtype=bool))
            reports = [WireReport(r.node_id, slot, slot, True, predicted_label=2, confidence=0.1)
                       for r in sound]
            columns = no_reports(batch.shape)
            columns.attempted[:] = True
            fill_row(columns, 0, reports)
            assert session.finish_slot(slot, reports) == batch.finish_slot(slot, columns)[0]
        session.begin_slot(3, [True] * 3)
        batch.begin_slot(3, np.ones(batch.shape, dtype=bool))
        bad = [WireReport(NODES[1], 3, 3, True, predicted_label=label, confidence=confidence)]
        columns = no_reports(batch.shape)
        columns.attempted[0, 1] = True
        fill_row(columns, 0, bad)
        session_before, batch_before = pickle.dumps(session), engine_state(batch)
        with pytest.raises(ConfigurationError, match=message):
            session.finish_slot(3, bad)
        with pytest.raises(ConfigurationError, match=message):
            batch.finish_slot(3, columns)
        assert pickle.dumps(session) == session_before
        assert engine_state(batch) == batch_before
        # Both still take the sound slot, and decide it alike.
        good = [WireReport(NODES[1], 3, 3, True, predicted_label=1, confidence=0.2)]
        columns = no_reports(batch.shape)
        columns.attempted[0, 1] = True
        fill_row(columns, 0, good)
        assert session.finish_slot(3, good) == batch.finish_slot(3, columns)[0]


#: Row kinds of the long-horizon drive: the ladder, the protocol rows and
#: RR12 AAS, which idles three slots in four.
LONG_KINDS = KINDS + [aas_policy(12)]


class TestRowIndependence:
    """Every row of a batch decides as that row stepped alone does.

    Long runs with offline flags, restarts and zero-alpha rows: a vote
    reused on an idle slot, a skipped row or a strike must not leak
    into another row or outlive an idle stretch.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(LONG_KINDS), min_size=2, max_size=24),
        zero_alpha=st.lists(st.booleans(), min_size=24, max_size=24),
        n_slots=st.integers(60, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_decide_as_if_alone(self, kinds, zero_alpha, n_slots, seed):
        rng = np.random.default_rng(seed)
        alphas = [0.0 if zero else 0.3 for zero in zero_alpha[: len(kinds)]]
        shared = {alpha: confidence_matrix(alpha) for alpha in (0.0, 0.3)}
        batch = DecisionEngine(
            [EngineRow(row_policy(kind), shared[alpha]) for kind, alpha in zip(kinds, alphas)],
            NODES,
            rank_table(),
        )
        alone = [
            one_row(row_policy(kind), confidence_matrix(alpha))
            for kind, alpha in zip(kinds, alphas)
        ]
        shape = batch.shape
        for slot in range(n_slots):
            for r in np.flatnonzero(rng.random(shape[0]) < 0.03).tolist():
                batch.restart(r)
                alone[r].restart(0)
            ready = rng.random(shape) < 0.6
            # About three flags in ten are offline; some slots pass none.
            online = None if rng.random() < 0.2 else rng.random(shape) >= 0.3
            active = batch.begin_slot(slot, ready, online=online)
            completed = active & (rng.random(shape) < 0.7)
            reports = SlotReports(
                attempted=active,
                completed=completed,
                delivered=~(completed & (rng.random(shape) < 0.1)),
                predicted=rng.integers(0, N_CLASSES, shape),
                reported=np.where(
                    rng.random(shape) < 0.1, rng.integers(0, N_CLASSES, shape), -1
                ),
                confidence=rng.uniform(0.0, 0.25, shape),
                started=np.maximum(slot - rng.integers(0, 5, shape), 0),
            )
            finals = batch.finish_slot(slot, reports)
            for r, engine in enumerate(alone):
                mask = engine.begin_slot(
                    slot, ready[r : r + 1], online=None if online is None else online[r : r + 1]
                )
                assert mask[0].tolist() == active[r].tolist()
                assert engine.active_ids(0, mask) == batch.active_ids(r, active)
                own = SlotReports(*(column[r : r + 1] for column in reports))
                assert engine.finish_slot(slot, own)[0] == finals[r]
        for r, engine in enumerate(alone):
            assert batch.last_final[r] == engine.last_final[0]
            for counter in ("decisions", "messages_received", "restarts", "confidence_updates"):
                assert getattr(batch, counter)[r] == getattr(engine, counter)[0], counter
            assert batch.matrix(r).tobytes() == engine.matrix(0).tobytes()
