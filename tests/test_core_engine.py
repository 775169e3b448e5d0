"""SessionEngine: the served decision core reproduces the offline run."""

from __future__ import annotations

import pytest

from repro.core.engine import NodeSlotState
from repro.core.policies import (
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.serve.client import DeviceSim
from repro.serve.session import ServeProfile


def profile_for(experiment) -> ServeProfile:
    return ServeProfile.from_experiment("test", experiment)


def ready_flags(states):
    return [state.ready for state in states.values()]


def drive(experiment, policy, seed):
    """Run the engine against simulated device physics, no simulation loop."""
    sim = DeviceSim(experiment, seed=seed)
    engine = ServeProfile(
        name="test",
        dataset=experiment.dataset,
        bundle=experiment.bundle,
        config=sim.config,
    ).build_engine(policy)
    labels, actives = [], []
    active = engine.begin_slot(0, ready_flags(sim.states()))
    for slot in range(sim.n_windows):
        actives.append(list(active))
        outcomes = sim.step(slot, active)
        labels.append(engine.finish_slot(slot, outcomes))
        if slot + 1 < sim.n_windows:
            active = engine.begin_slot(slot + 1, ready_flags(sim.states()))
    return labels, actives, engine


class TestReplayIdentity:
    """The extraction contract: engine-driven == inline scalar loop."""

    @pytest.mark.parametrize(
        "policy",
        [rr_policy(3), aas_policy(6), aasr_policy(6), origin_policy(6)],
        ids=lambda policy: policy.name,
    )
    def test_matches_offline_run(self, tiny_experiment, policy):
        labels, actives, _ = drive(tiny_experiment, policy, seed=9)
        offline = tiny_experiment.run(policy, seed=9)
        assert labels == [r.predicted_label for r in offline.records]
        assert actives == [list(r.active_nodes) for r in offline.records]

    def test_adaptive_confidence_counted(self, tiny_experiment):
        _, _, adaptive = drive(tiny_experiment, origin_policy(6), seed=9)
        _, _, frozen = drive(tiny_experiment, aasr_policy(6), seed=9)
        assert adaptive.confidence_updates > 0
        assert frozen.confidence_updates == 0

    def test_sessions_do_not_share_confidence(self, tiny_experiment):
        # Each engine adapts a private copy of the bundle's matrix.
        profile = profile_for(tiny_experiment)
        first = profile.build_engine(origin_policy(6))
        second = profile.build_engine(origin_policy(6))
        assert first.confidence is not second.confidence
        assert first.confidence is not tiny_experiment.bundle.confidence_matrix


class TestSlotPhases:
    def test_offline_node_masked_from_active_set(self, tiny_experiment):
        profile = profile_for(tiny_experiment)
        engine = profile.build_engine(naive_policy(len(profile.node_ids)))
        ready = [True] * len(profile.node_ids)
        assert engine.begin_slot(0, ready) == profile.node_ids  # all-on
        dead = profile.node_ids[0]
        online = [node_id != dead for node_id in profile.node_ids]
        assert dead not in engine.begin_slot(1, ready, online=online)

    def test_state_mapping_is_rejected(self, tiny_experiment):
        # Iterating a dict would zip its keys in as flags and schedule
        # on the wrong readiness without a word.
        profile = profile_for(tiny_experiment)
        engine = profile.build_engine(origin_policy(6))
        states = {
            node_id: NodeSlotState(energy_j=1e-3, ready=True)
            for node_id in profile.node_ids
        }
        with pytest.raises(TypeError, match="not a mapping"):
            engine.begin_slot(0, states)

    def test_decide_false_skips_vote_keeps_last_final(self, tiny_experiment):
        sim = DeviceSim(tiny_experiment, seed=9)
        engine = profile_for(tiny_experiment).build_engine(origin_policy(6))
        active = engine.begin_slot(0, ready_flags(sim.states()))
        outcomes = sim.step(0, active)
        engine.finish_slot(0, outcomes)
        anchor = engine.last_final
        active = engine.begin_slot(1, ready_flags(sim.states()))
        outcomes = sim.step(1, active)
        shed = engine.finish_slot(1, outcomes, decide=False)
        assert shed is None
        assert engine.last_final == anchor
