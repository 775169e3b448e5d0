"""Per-user set-up: one office walk per seed, harvest rows per group.

``HARExperiment.build_nodes`` draws each distinct seed's walk of a batch
once, at unit gain, and derives every setup's harvest rows of its
:class:`~repro.sim.kernel.LaneTable` from it.  Gated here:

* identity: every setup's rows equal, byte for byte, an oracle built
  from public calls only — the walk at the setup's own gains, a trace
  scaled by ``trace_scale`` and a harvester's slot energies — and the
  slot energy vector of a node record built on that harvester;
* the walk count: a cohort shard draws one walk per timeline seed;
* rows are per group: no two setups' rows share memory, and a faulted
  group folds its dropouts into its own rows, never into those of a
  group sharing its seed;
* a served device harvests the rows a batch gives the same setup.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import origin_policy, rr_policy
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTrace, PowerTraceGenerator
from repro.faults import FaultPlan, HarvesterDropout
from repro.fleet import CohortSpec
from repro.fleet.runner import shard_aggregate
from repro.serve.client import DeviceSim
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.kernel import BatchGroup, run_group_batch, run_policy_batch
from repro.utils.rng import SeedSequenceFactory
from repro.wsn.node import SensorNode

#: ``(fading_sigma, dt_s)``: the calibrated generator, one without
#: fading, one whose sample divides the 2.56 s slot four times and one
#: whose sample does not divide it (exact-integration slot sums).
GENERATORS = [(0.7, 0.32), (0.0, 0.32), (0.7, 0.64), (0.7, 0.3)]


def oracle_nodes(experiment: HARExperiment, seed: int, config: SimulationConfig):
    """A setup's node records from public calls, one node at a time."""
    spec = experiment.dataset.spec
    slot_s = spec.window_duration_s
    locations = list(spec.locations)
    generator = experiment.trace_generator
    traces = generator.generate_correlated(
        config.n_windows * slot_s,
        [config.gain_for(location) for location in locations],
        SeedSequenceFactory(seed).generator("traces"),
    )
    energies = experiment.bundle.inference_energies(pruned=config.use_pruned_models)
    nodes = []
    for location, trace in zip(locations, traces):
        node_id = experiment.bundle.node_id_of(location)
        nodes.append(
            SensorNode(
                node_id=node_id,
                location=location,
                inference_energy_j=energies[node_id],
                harvester=Harvester(
                    PowerTrace(generator.dt_s, trace.watts * config.trace_scale),
                    supplemental_w=config.battery_supplement_w,
                ),
                capacitor=Capacitor(
                    config.capacitor_capacity_j,
                    config.capacitor_initial_j,
                    config.capacitor_leakage_w,
                ),
                nvp=NonVolatileProcessor(config.checkpoint_overhead, volatile=config.volatile),
                radio=config.radio,
                costs=config.costs,
                slot_duration_s=slot_s,
                max_task_age_slots=config.max_task_age_slots,
            )
        )
    return nodes


def _assert_same_bytes(fast: np.ndarray, slow: np.ndarray) -> None:
    assert fast.dtype == slow.dtype == np.float64
    assert fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


gains = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=3.0))


@st.composite
def setups(draw, locations):
    """A batch's ``(seed, config)`` setups over a small seed pool."""
    n_windows = draw(st.sampled_from([5, 8]))
    out = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        config = SimulationConfig(
            n_windows=n_windows,
            node_gains={location: draw(gains) for location in locations},
            trace_scale=draw(st.floats(min_value=0.05, max_value=5.0)),
            battery_supplement_w=draw(st.sampled_from([0.0, 3e-6])),
        )
        out.append((draw(st.integers(min_value=0, max_value=2)), config))
    return out


class TestHarvestRowIdentity:
    @given(data=st.data(), generator=st.sampled_from(GENERATORS))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_one_node_oracle(self, tiny_dataset, tiny_bundle, data, generator):
        fading_sigma, dt_s = generator
        experiment = HARExperiment(
            tiny_dataset,
            tiny_bundle,
            trace_generator=PowerTraceGenerator(fading_sigma=fading_sigma, dt_s=dt_s),
        )
        batch = data.draw(setups(list(tiny_dataset.spec.locations)))
        table = experiment.build_nodes(batch)
        slot_s = tiny_dataset.spec.window_duration_s
        assert table.energies.shape[0] == len(batch)
        for (seed, config), rows in zip(batch, table.energies):
            assert rows.shape == (len(table.node_ids), config.n_windows)
            n_slots = config.n_windows
            for node, row in zip(oracle_nodes(experiment, seed, config), rows):
                _assert_same_bytes(row, node.harvester.slot_energies(slot_s, n_slots=n_slots))
                _assert_same_bytes(node.slot_energy_vector(n_slots), row)

    def test_each_setup_owns_its_rows(self, tiny_experiment):
        config = tiny_experiment.config
        first, second = tiny_experiment.build_nodes([(4, config), (4, config)]).energies
        _assert_same_bytes(first, second)
        assert not np.shares_memory(first, second)


class TestOneWalkPerSeed:
    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        real = PowerTraceGenerator.generate_correlated

        def counting(self, duration_s, gains, seed=None):
            calls.append(list(gains))
            return real(self, duration_s, gains, seed)

        monkeypatch.setattr(PowerTraceGenerator, "generate_correlated", counting)
        return calls

    def test_cohort_shard_draws_one_walk_per_timeline(self, tiny_experiment, walks):
        spec = CohortSpec(size=16, seed=5, base=tiny_experiment.config, n_timelines=2)
        shard_aggregate(tiny_experiment, spec, [origin_policy(12)], 0, 16)
        assert len(walks) == 2
        assert all(gains == [1.0, 1.0, 1.0] for gains in walks)

    def test_policy_batch_draws_one_walk(self, tiny_experiment, walks):
        run_policy_batch(tiny_experiment, [rr_policy(3), origin_policy(12)], 7)
        assert len(walks) == 1


class TestSharedSeedGroups:
    def test_faulted_group_keeps_its_fold_to_itself(self, tiny_experiment):
        plan = FaultPlan(faults=(HarvesterDropout(node_id=0, windows=((3, 40),), factor=0.1),))
        policy = origin_policy(12)
        groups = [
            BatchGroup(policies=[policy], seed=7, faults=plan),
            BatchGroup(policies=[policy], seed=7),
        ]
        faulted, clean = run_group_batch(tiny_experiment, groups)
        assert faulted[0].fault_stats is not None
        assert faulted[0] == tiny_experiment.run(policy, seed=7, faults=plan)
        assert clean[0] == tiny_experiment.run(policy, seed=7)
        assert faulted[0].node_stats != clean[0].node_stats


class TestServedDeviceRows:
    def test_device_harvests_the_batch_rows(self, tiny_experiment):
        config = replace(tiny_experiment.config, n_windows=30)
        sim = DeviceSim(tiny_experiment, seed=11, n_windows=30)
        other = replace(config, trace_scale=1.7)
        table = tiny_experiment.build_nodes([(11, other), (11, config), (12, config)])
        assert sim.node_ids == table.node_ids
        _assert_same_bytes(sim.kernel.slot_energies, table.energies[1])
