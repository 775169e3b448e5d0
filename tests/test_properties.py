"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.scheduling.round_robin import ExtendedRoundRobin
from repro.datasets.activities import Activity
from repro.datasets.markov import MarkovActivityModel
from repro.energy.traces import PowerTrace
from repro.nn.layers.activations import softmax
from repro.sim.kernel import SlotKernel
from repro.utils.stats import confidence_from_softmax, max_confidence

finite_floats = st.floats(
    min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestCapacitorInvariants:
    """Fault-free kernel lanes keep their capacitor bounded and balanced."""

    @staticmethod
    def _advance(lane_params, energies, schedule):
        kernel = SlotKernel(slot_energies=np.asarray([energies]), **lane_params)
        for slot, active in enumerate(schedule):
            kernel.advance(slot, np.array([active]))
            yield kernel

    @given(
        capacity=finite_floats,
        initial=finite_floats,
        costs=st.tuples(finite_floats, finite_floats, finite_floats, finite_floats),
        overhead=st.floats(min_value=0.0, max_value=0.9),
        volatile=st.booleans(),
        slots=st.lists(st.tuples(finite_floats, st.booleans()), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_stored_energy_always_within_bounds(
        self, capacity, initial, costs, overhead, volatile, slots
    ):
        leak, idle, sense, work = costs
        params = dict(
            capacity_j=[capacity], initial_j=[initial], leak_j=[leak], idle_j=[idle],
            sense_j=[sense], task_work_j=[work], useful_fraction=[1.0 - overhead],
            volatile=[volatile], comm_cost_j=[idle], max_task_age_slots=[np.inf],
        )
        energies = [energy for energy, _ in slots]
        schedule = [active for _, active in slots]
        for kernel in self._advance(params, energies, schedule):
            # The clamp adds ``capacity - stored`` back: one rounding.
            assert 0.0 <= kernel.stored[0] <= np.nextafter(capacity, np.inf)

    @given(
        capacity=finite_floats,
        initial=finite_floats,
        costs=st.tuples(finite_floats, finite_floats, finite_floats, finite_floats),
        slots=st.lists(st.tuples(finite_floats, st.booleans()), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_conservation(self, capacity, initial, costs, slots):
        # initial + harvested - consumed - leaked == stored, to float
        # accumulation error relative to the energy that flowed.
        leak, idle, sense, work = costs
        params = dict(
            capacity_j=[capacity], initial_j=[initial], leak_j=[leak], idle_j=[idle],
            sense_j=[sense], task_work_j=[work], useful_fraction=[0.95],
            volatile=[False], comm_cost_j=[sense], max_task_age_slots=[3.0],
        )
        energies = [energy for energy, _ in slots]
        schedule = [active for _, active in slots]
        start = min(initial, capacity)
        for kernel in self._advance(params, energies, schedule):
            balance = start + kernel.harvested_j[0] - kernel.consumed_j[0] - kernel.leaked_j[0]
            flowed = start + kernel.harvested_j[0]
            assert abs(balance - kernel.stored[0]) <= 1e-12 * max(flowed, 1.0)


class TestPowerTraceInvariants:
    @given(
        watts=st.lists(
            st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
            min_size=4,
            max_size=64,
        ),
        split=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_energy_is_additive_over_intervals(self, watts, split):
        trace = PowerTrace(dt_s=0.5, watts=np.array(watts))
        mid = trace.duration_s * split
        total = trace.energy_between(0.0, trace.duration_s)
        parts = trace.energy_between(0.0, mid) + trace.energy_between(mid, trace.duration_s)
        assert abs(total - parts) < 1e-12

    @given(
        watts=st.lists(
            st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
            min_size=8,
            max_size=64,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_slot_energies_sum_to_total(self, watts):
        trace = PowerTrace(dt_s=0.5, watts=np.array(watts))
        slot = 1.0  # two samples per slot
        slots = trace.slot_energies(slot)
        covered = len(slots) * slot
        assert slots.sum() == np.float64(
            trace.energy_between(0.0, covered)
        ) or abs(slots.sum() - trace.energy_between(0.0, covered)) < 1e-15


class TestSoftmaxConfidenceInvariants:
    @given(
        logits=st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_softmax_simplex_and_confidence_bounds(self, logits):
        probs = softmax(np.array([logits]))[0]
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()
        conf = confidence_from_softmax(probs)
        assert 0.0 <= conf <= max_confidence(len(logits)) + 1e-12


class TestRoundRobinInvariants:
    @given(
        n_nodes=st.integers(min_value=1, max_value=5),
        noops=st.integers(min_value=0, max_value=6),
        horizon=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_node_gets_equal_turns_per_cycle(self, n_nodes, noops, horizon):
        nodes = list(range(n_nodes))
        policy = ExtendedRoundRobin(nodes, noops_per_node=noops)
        cycle = policy.cycle_length
        owners = [policy.slot_owner(s) for s in range(cycle)]
        for node in nodes:
            assert owners.count(node) == 1
        assert owners.count(None) == n_nodes * noops
        # Wrapping is periodic.
        assert policy.slot_owner(horizon) == policy.slot_owner(horizon % cycle)


class TestMarkovInvariants:
    @given(
        n_windows=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dwell=st.floats(min_value=0.3, max_value=8.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_labels_cover_exactly_and_are_valid(self, n_windows, seed, dwell):
        activities = [Activity.WALKING, Activity.RUNNING, Activity.JUMPING]
        model = MarkovActivityModel(activities, dwell_scale=dwell)
        labels = model.sample_labels(n_windows, seed=seed)
        assert len(labels) == n_windows
        assert set(labels) <= set(activities)


class TestConfidenceMatrixInvariants:
    @given(
        rows=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_weights_stay_non_negative_and_bounded(self, rows, updates):
        weights = {i: row for i, row in enumerate(rows)}
        matrix = ConfidenceMatrix(weights, adaptation_alpha=0.3)
        upper = max(max(row) for row in rows)
        for node, label, conf in updates:
            if node in weights:
                matrix.update(node, label, conf)
                upper = max(upper, conf)
        array = matrix.as_array()
        assert (array >= 0).all()
        # EMA keeps values inside the convex hull of seeds and updates.
        assert (array <= upper + 1e-9).all()
