"""A batch's lane table: every node parameter and harvest row as arrays.

``HARExperiment.build_nodes`` returns one
:class:`~repro.sim.kernel.LaneTable` for a whole batch, reading each
config once, and ``SlotKernel.from_lanes`` gathers lanes from it.
Gated here:

* identity: a setup's lanes gathered from the table equal, array for
  array and byte for byte, ``SlotKernel.from_nodes`` over the
  :class:`~repro.wsn.node.SensorNode` records built from the same config
  with public calls (non-default radios, costs, volatile NVPs, task age
  limits, trickle, clamped charge and zero gains included);
* a table holds one slot count;
* every value a node record refused is refused when the config is
  built, with the record's exception type and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.fleet import CohortSpec, ParameterDist
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.kernel import SlotKernel
from repro.wsn.comm import RadioProfile
from repro.wsn.node import NodeCosts
from tests.test_sim_harvest_rows import oracle_nodes

gains = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=3.0))


@st.composite
def deployments(draw, locations):
    """A batch's ``(seed, config)`` setups, every lane knob drawn."""
    n_windows = draw(st.sampled_from([4, 9]))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        capacity = draw(st.floats(min_value=20e-6, max_value=200e-6))
        config = SimulationConfig(
            n_windows=n_windows,
            capacitor_capacity_j=capacity,
            # Up to twice the capacity: the table clamps the charge.
            capacitor_initial_j=draw(st.floats(min_value=0.0, max_value=2 * capacity)),
            capacitor_leakage_w=draw(st.sampled_from([0.0, 1e-6, 3.5e-7])),
            checkpoint_overhead=draw(st.sampled_from([0.0, 0.05, 0.3])),
            volatile=draw(st.booleans()),
            use_pruned_models=draw(st.booleans()),
            node_gains={location: draw(gains) for location in locations},
            radio=draw(st.sampled_from([RadioProfile.ble(), RadioProfile.wifi()])),
            costs=NodeCosts(
                sense_j=draw(st.sampled_from([0.0, 8e-6, 1.3e-5])),
                idle_j=draw(st.sampled_from([0.0, 0.5e-6])),
                result_message_bytes=draw(st.integers(min_value=1, max_value=40)),
            ),
            max_task_age_slots=draw(st.one_of(st.none(), st.integers(1, 5))),
            battery_supplement_w=draw(st.sampled_from([0.0, 3e-6])),
            trace_scale=draw(st.floats(min_value=0.05, max_value=5.0)),
        )
        out.append((draw(st.integers(min_value=0, max_value=2)), config))
    return out


def _lane_arrays(kernel: SlotKernel) -> dict:
    return {name: value for name, value in vars(kernel).items() if isinstance(value, np.ndarray)}


class TestLaneIdentity:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_table_lanes_equal_node_record_lanes(self, tiny_experiment, data):
        batch = data.draw(deployments(list(tiny_experiment.dataset.spec.locations)))
        table = tiny_experiment.build_nodes(batch)
        n_nodes = len(table.node_ids)
        assert table.energies.shape == (len(batch), n_nodes, batch[0][1].n_windows)
        for g, (seed, config) in enumerate(batch):
            nodes = oracle_nodes(tiny_experiment, seed, config)
            assert table.node_ids == [node.node_id for node in nodes]
            assert table.message_bytes[g].tolist() == [
                node.costs.result_message_bytes for node in nodes
            ]
            gathered = _lane_arrays(
                SlotKernel.from_lanes(table, range(g * n_nodes, (g + 1) * n_nodes))
            )
            built = _lane_arrays(
                SlotKernel.from_nodes(nodes, n_runs=1, n_slots=config.n_windows)
            )
            assert gathered.keys() == built.keys()
            for name, array in built.items():
                assert gathered[name].dtype == array.dtype, name
                assert gathered[name].shape == array.shape, name
                assert gathered[name].tobytes() == array.tobytes(), name

    def test_one_slot_count_per_table(self, tiny_experiment):
        config = tiny_experiment.config
        other = SimulationConfig(n_windows=config.n_windows + 1)
        with pytest.raises(ConfigurationError, match="share n_windows"):
            tiny_experiment.build_nodes([(1, config), (1, other)])


#: ``knob: (bad values, exception type, message fragment)``.  Each value
#: was accepted when the config was built and failed only in a node record
#: (or never, for a non-finite dwell or trickle).
BAD_KNOBS = {
    "capacitor_capacity_j": ([0.0, -1e-6, math.nan, math.inf], ConfigurationError, "capacity_j"),
    "capacitor_initial_j": ([-1e-6, math.nan, math.inf], ConfigurationError, "initial_j"),
    "capacitor_leakage_w": ([-1e-9, math.nan, math.inf], ConfigurationError, "leakage_w"),
    "checkpoint_overhead": ([-0.1, math.nan], ConfigurationError, "checkpoint_overhead"),
    "max_task_age_slots": ([0, -3], SimulationError, "max_task_age_slots"),
    "radio": (["BLE", None], ConfigurationError, "radio"),
    "battery_supplement_w": ([math.nan, math.inf], ConfigurationError, "battery_supplement_w"),
    "dwell_scale": ([math.nan, math.inf], ConfigurationError, "dwell_scale"),
}


class TestConfigChecks:
    @pytest.mark.parametrize("knob", list(BAD_KNOBS))
    def test_config_refuses_what_a_node_refused(self, knob):
        values, error, fragment = BAD_KNOBS[knob]
        for value in values:
            with pytest.raises(error, match=fragment):
                SimulationConfig(**{knob: value})

    def test_overhead_of_one_keeps_its_error(self):
        with pytest.raises(SimulationError, match="checkpoint_overhead must be < 1"):
            SimulationConfig(checkpoint_overhead=1.0)

    def test_cohort_refuses_non_finite_constant_dwell(self):
        with pytest.raises(ConfigurationError, match="dwell_scale"):
            CohortSpec(size=4, dwell_scale=ParameterDist.constant(math.nan))

    def test_inference_energies_are_checked_per_batch(self, tiny_dataset, tiny_bundle, monkeypatch):
        experiment = HARExperiment(tiny_dataset, tiny_bundle, config=SimulationConfig(n_windows=4))
        energies = dict(tiny_bundle.inference_energies(pruned=True))
        energies[next(iter(energies))] = 0.0
        monkeypatch.setattr(
            type(tiny_bundle), "inference_energies", lambda self, *, pruned: energies
        )
        with pytest.raises(ConfigurationError, match="inference_energy_j"):
            experiment.build_nodes([(1, experiment.config)])
