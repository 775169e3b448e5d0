"""The slot kernel (``repro.sim.kernel``): the simulator's one node model.

Concerns gated here:

* regressions for the energy-ledger and NVP-trace bug fixes the kernel
  carries (the idle draw is ledgered; a completing burst traces full
  progress, a volatile wipe none);
* energy conservation of the per-lane ledger, fault-free and under
  faults;
* fault folding: the power-down drain, dark offline slots, dropout
  scaling of the harvest timeline;
* batching: a run's result does not depend on which other runs share
  its batch, traced or not, and sweeps batch every chunk.

Byte identity against the committed goldens lives in
``tests/test_goldens.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import aas_policy, aasr_policy, naive_policy, origin_policy, rr_policy
from repro.core.scheduling import ActivityAwareScheduler, ExtendedRoundRobin, NaiveAllOn
from repro.datasets.body import BodyLocation
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTrace
from repro.faults import Brownout, FaultPlan, HarvesterDropout, NodeDeath, PacketLoss
from repro.obs.observer import Observability
from repro.obs.summarize import split_runs
from repro.obs.trace import NULL_TRACER
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.kernel import (
    BatchGroup,
    LaneTable,
    SlotKernel,
    run_group_batch,
    run_policy_batch,
)
from repro.sim.sweep import PolicySweep
from repro.wsn.comm import RadioProfile
from repro.wsn.node import NodeCosts, SensorNode

SLOT_S = 2.56

GRID = [rr_policy(3), aas_policy(6), aasr_policy(9), origin_policy(12)]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _make_node(
    *,
    n_slots: int = 64,
    seed: int = 0,
    mean_slot_j: float = 30e-6,
    capacity_j: float = 60e-6,
    initial_j: float = 0.0,
    leakage_w: float = 2e-7,
    idle_j: float = 0.5e-6,
    sense_j: float = 8e-6,
    inference_j: float = 40e-6,
    checkpoint_overhead: float = 0.05,
    volatile: bool = False,
    max_task_age_slots=None,
) -> SensorNode:
    """A standalone node over a random trace."""
    rng = np.random.default_rng(seed)
    watts = rng.uniform(0.0, 2.0 * mean_slot_j / SLOT_S, size=n_slots)
    return SensorNode(
        0,
        BodyLocation.CHEST,
        inference_j,
        Harvester(PowerTrace(dt_s=SLOT_S, watts=watts)),
        Capacitor(capacity_j, initial_j, leakage_w),
        NonVolatileProcessor(checkpoint_overhead, volatile=volatile),
        RadioProfile.ble(),
        costs=NodeCosts(sense_j=sense_j, idle_j=idle_j),
        slot_duration_s=SLOT_S,
        max_task_age_slots=max_task_age_slots,
    )


def _drive(kernel: SlotKernel, schedule) -> SlotKernel:
    """Advance every lane of ``kernel`` under one shared schedule."""
    for slot, active in enumerate(schedule):
        kernel.advance(slot, np.full(kernel.n_lanes, bool(active)))
    return kernel


def _assert_results_equal(fast, slow):
    assert fast.policy_name == slow.policy_name
    assert fast.records == slow.records
    assert fast.node_stats == slow.node_stats
    assert fast.comm_energy_j == slow.comm_energy_j
    assert fast.confidence_updates == slow.confidence_updates
    assert fast.fault_stats == slow.fault_stats


def _assert_sweeps_equal(fast, slow):
    assert sorted(fast.policies) == sorted(slow.policies)
    for name in fast.policies:
        _assert_results_equal(fast.policy(name), slow.policy(name))
    assert sorted(fast.baselines) == sorted(slow.baselines)
    for name in fast.baselines:
        np.testing.assert_array_equal(
            fast.baseline(name).true_labels, slow.baseline(name).true_labels
        )
        np.testing.assert_array_equal(
            fast.baseline(name).predicted_labels,
            slow.baseline(name).predicted_labels,
        )


# ---------------------------------------------------------------------------
# regression: idle draw must appear in the consumed ledger
# ---------------------------------------------------------------------------


class TestEnergyLedger:
    def test_idle_draw_is_charged_to_consumed(self):
        # Before the fix, a node that only idled reported consumed_j=0
        # while its capacitor drained — the ledger leaked silently.
        node = _make_node(initial_j=20e-6)
        kernel = _drive(SlotKernel.from_nodes([node], n_runs=1, n_slots=10), [False] * 10)
        stats = kernel.node_stats()[0]
        assert stats.active_slots == 0
        assert stats.consumed_j == pytest.approx(10 * node.costs.idle_j)
        assert stats.leaked_j > 0.0

    def test_conservation_fault_free(self):
        # harvested - consumed - leaked == delta(stored), to float
        # accumulation error, over a random active/idle schedule.
        initial = 10e-6
        node = _make_node(seed=3, initial_j=initial)
        schedule = np.random.default_rng(42).random(64) < 0.6
        kernel = _drive(SlotKernel.from_nodes([node], n_runs=1, n_slots=64), schedule)
        stats = kernel.node_stats()[0]
        balance = initial + stats.harvested_j - stats.consumed_j - stats.leaked_j
        assert balance == pytest.approx(kernel.stored[0], abs=1e-15)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(volatile=True),
            dict(max_task_age_slots=2, mean_slot_j=12e-6),
            dict(capacity_j=12e-6, mean_slot_j=6e-6),
        ],
        ids=["volatile", "stale-abort", "sense-starved"],
    )
    def test_conservation_across_node_variants(self, overrides):
        node = _make_node(seed=5, initial_j=4e-6, **overrides)
        schedule = np.random.default_rng(1).random(64) < 0.8
        kernel = _drive(SlotKernel.from_nodes([node], n_runs=1, n_slots=64), schedule)
        stats = kernel.node_stats()[0]
        balance = 4e-6 + stats.harvested_j - stats.consumed_j - stats.leaked_j
        assert balance == pytest.approx(kernel.stored[0], abs=1e-15)

    def test_conservation_under_faults(self, tiny_experiment):
        # Brownouts dump stored charge without a ledger entry (the
        # supply collapsed; nothing "consumed" it), so under faults the
        # invariant weakens to "no energy is created": every node's
        # spend never exceeds its income.
        plan = FaultPlan(
            faults=(
                Brownout(node_id=0, start_slot=10, duration_slots=6),
                NodeDeath(1, at_slot=40),
                PacketLoss(rate=0.3),
            )
        )
        result = tiny_experiment.run(rr_policy(3), seed=9, faults=plan)
        for stats in result.node_stats.values():
            spend = stats.consumed_j + stats.leaked_j
            assert spend <= stats.harvested_j + 1e-12

    def test_kernel_lane_conservation(self):
        # The same invariant holds per lane inside the kernel arrays.
        initial = 15e-6
        node = _make_node(seed=5, initial_j=initial)
        kernel = SlotKernel.from_nodes([node], n_runs=3, n_slots=64)
        rng = np.random.default_rng(7)
        for slot in range(64):
            kernel.advance(slot, rng.random(3) < 0.5)
        balance = initial + kernel.harvested_j - kernel.consumed_j - kernel.leaked_j
        np.testing.assert_allclose(balance, kernel.stored, atol=1e-15)


# ---------------------------------------------------------------------------
# regression: the completing burst must trace progress_fraction = 1.0
# ---------------------------------------------------------------------------


def _bursts(experiment, spec, seed, **run_kwargs):
    obs = Observability()
    experiment.run(spec, seed=seed, obs=obs, **run_kwargs)
    return obs.tracer


class TestNvpProgressTrace:
    def test_completing_burst_reports_full_progress(self, tiny_experiment):
        tracer = _bursts(tiny_experiment, rr_policy(3), 4)
        bursts = [e.payload for e in tracer.of_kind("nvp.burst")]
        completing = [p for p in bursts if p["completed"]]
        partial = [p for p in bursts if not p["completed"]]
        assert completing and partial
        # Before the fix the completing burst reported 0.0 (the task had
        # already been finalized when the progress was read).
        for payload in completing:
            assert payload["progress_fraction"] == pytest.approx(1.0)
        for payload in partial:
            assert 0.0 < payload["progress_fraction"] < 1.0

    def test_volatile_wipe_reports_zero(self, tiny_dataset, tiny_bundle):
        config = SimulationConfig(n_windows=60, volatile=True)
        experiment = HARExperiment(tiny_dataset, tiny_bundle, config=config, seed=3)
        events = _bursts(experiment, rr_policy(3), 4).events
        wiped = [
            (i, e) for i, e in enumerate(events)
            if e.kind == "nvp.burst" and not e.payload["completed"]
        ]
        assert wiped
        for i, burst in wiped:
            assert burst.payload["progress_fraction"] == 0.0
            abort, reason = events[i + 1], events[i + 2]
            assert (abort.kind, abort.payload) == ("nvp.task_aborted", {"done_work_j": 0.0})
            assert (reason.kind, reason.payload) == ("inference.aborted", {"reason": "volatile"})

    def test_scan_friendly_properties(self):
        node = _make_node(checkpoint_overhead=0.2, initial_j=60e-6, inference_j=40e-6)
        assert node.nvp.useful_fraction == pytest.approx(0.8)
        kernel = SlotKernel.from_nodes([node], n_runs=1, n_slots=4)
        assert kernel.useful_fraction[0] == pytest.approx(0.8)
        assert kernel.done_work[0] == 0.0  # idle reads as zero progress
        kernel.stored[0] = 13e-6  # sense 8 uJ, then a 5 uJ burst
        kernel.slot_energies[0, 0] = 0.0
        kernel.leak_j[0] = kernel.idle_j[0] = 0.0
        kernel.advance(0, np.ones(1, dtype=bool))
        assert kernel.done_work[0] == pytest.approx(4e-6)


# ---------------------------------------------------------------------------
# scan-friendly harvest vectors (traces/harvester/node agree)
# ---------------------------------------------------------------------------


class TestSlotEnergyVectors:
    def test_trace_pads_and_truncates(self):
        trace = PowerTrace(dt_s=SLOT_S, watts=np.arange(1, 5, dtype=float))
        full = trace.slot_energies(SLOT_S)
        assert full.size == 4
        padded = trace.slot_energies(SLOT_S, n_slots=6)
        np.testing.assert_array_equal(padded[:4], full)
        np.testing.assert_array_equal(padded[4:], 0.0)
        truncated = trace.slot_energies(SLOT_S, n_slots=2)
        np.testing.assert_array_equal(truncated, full[:2])

    def test_harvester_padding_has_no_supplemental(self):
        # Beyond the trace end a node harvests exactly 0.0 J — the
        # battery trickle stops with the trace.
        trace = PowerTrace(dt_s=SLOT_S, watts=np.full(3, 1e-6))
        harvester = Harvester(trace, supplemental_w=2e-6)
        vec = harvester.slot_energies(SLOT_S, n_slots=5)
        assert vec[0] == pytest.approx((1e-6 + 2e-6) * SLOT_S)
        np.testing.assert_array_equal(vec[3:], 0.0)

    def test_node_vector_pads_past_trace(self):
        node = _make_node(seed=8, n_slots=10)
        vec = node.slot_energy_vector(14)
        np.testing.assert_array_equal(vec[:10], node.harvester.slot_energies(SLOT_S))
        np.testing.assert_array_equal(vec[10:], 0.0)


# ---------------------------------------------------------------------------
# lanes: independence, power-down, fault folding
# ---------------------------------------------------------------------------


LANE_CASES = {
    "nvp": dict(),
    "volatile": dict(volatile=True),
    "stale-abort": dict(max_task_age_slots=2, mean_slot_j=12e-6),
    "sense-starved": dict(capacity_j=12e-6, mean_slot_j=6e-6),
    "checkpoint-heavy": dict(checkpoint_overhead=0.3),
    "pre-charged": dict(initial_j=50e-6),
}


class TestLaneIndependence:
    @pytest.mark.parametrize(
        "overrides", list(LANE_CASES.values()), ids=list(LANE_CASES.keys())
    )
    def test_lane_alone_equals_lane_stacked(self, overrides):
        # A lane's floats do not depend on which lanes share its kernel:
        # node 0 alone, and as lanes 1 and 3 of one kernel gathered in
        # one call from a table of three nodes.
        rng = np.random.default_rng(9)
        lanes = [2, 0, 1, 0]
        schedules = rng.random((len(lanes), 64)) < 0.7
        schedules[3] = schedules[1]
        nodes = [_make_node(seed=21 + k, **overrides) for k in range(3)]
        alone = SlotKernel.from_nodes(nodes[:1], n_runs=1, n_slots=64)
        stacked = SlotKernel.from_lanes(LaneTable.of_nodes(nodes, 64), lanes)
        for slot in range(64):
            alone.advance(slot, schedules[1:2, slot])
            stacked.advance(slot, schedules[:, slot])
        for lane in (1, 3):
            assert alone.node_stats()[0] == stacked.node_stats()[lane]
            assert alone.stored[0] == stacked.stored[lane]

    def test_all_idle_schedule(self):
        node = _make_node(seed=2, initial_j=6e-6)
        kernel = _drive(SlotKernel.from_nodes([node], n_runs=1, n_slots=32), [False] * 32)
        stats = kernel.node_stats()[0]
        assert stats.slots == 32
        assert stats.active_slots == stats.attempts_started == stats.completions == 0
        assert stats.consumed_j > 0.0  # the idle draw


class TestLanePowerDown:
    def test_power_down_drains_and_drops_the_task(self):
        node = _make_node(initial_j=60e-6, inference_j=200e-6)
        kernel = SlotKernel.from_nodes([node], n_runs=1, n_slots=8)
        kernel.advance(0, np.ones(1, dtype=bool))
        assert kernel.in_progress[0]
        before = kernel.node_stats()[0]
        assert kernel.power_down(0) is True
        assert kernel.stored[0] == 0.0
        assert not kernel.in_progress[0]
        assert kernel.done_work[0] == 0.0
        # The drained charge leaves no ledger entry.
        assert kernel.node_stats()[0] == before
        assert kernel.power_down(0) is False  # nothing left to lose

    def test_offline_slot_only_counts_the_slot(self):
        # A dark lane (drained, 0.0 J harvest) adds +0.0 to every ledger.
        node = _make_node(initial_j=30e-6)
        kernel = SlotKernel.from_nodes([node], n_runs=1, n_slots=8)
        kernel.advance(0, np.zeros(1, dtype=bool))
        kernel.power_down(0)
        kernel.slot_energies[0, 1:] = 0.0
        before = kernel.node_stats()[0]
        kernel.advance(1, np.zeros(1, dtype=bool))
        after = kernel.node_stats()[0]
        assert after.slots == before.slots + 1
        assert after.harvested_j == before.harvested_j
        assert after.consumed_j == before.consumed_j
        assert after.leaked_j == before.leaked_j
        assert kernel.stored[0] == 0.0


class TestFaultFolding:
    def _engine(self, *faults):
        return FaultPlan(faults=faults).compile(node_ids=[0, 1], n_slots=10, n_classes=3)

    def test_offline_slots_harvest_nothing(self):
        engine = self._engine(
            Brownout(node_id=0, start_slot=2, duration_slots=3), NodeDeath(1, at_slot=7)
        )
        energies = np.arange(1.0, 11.0)
        np.testing.assert_array_equal(
            engine.slot_energies(0, energies),
            [1.0, 2.0, 0.0, 0.0, 0.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        )
        np.testing.assert_array_equal(engine.slot_energies(1, energies)[7:], 0.0)
        np.testing.assert_array_equal(energies, np.arange(1.0, 11.0))  # not mutated

    def test_dropouts_multiply_in_plan_order(self):
        # scale = 1.0, then *= each factor in plan order, then energy *=
        # scale: with these factors another order rounds differently.
        engine = self._engine(
            HarvesterDropout(node_id=0, windows=((0, 4),), factor=0.1),
            HarvesterDropout(node_id=0, windows=((2, 6),), factor=0.2),
            HarvesterDropout(node_id=0, windows=((3, 8),), factor=0.3),
        )
        energies = np.full(10, 0.1)
        folded = engine.slot_energies(0, energies)
        assert folded[0] == 0.1 * 0.1
        assert folded[3] == 0.1 * (((1.0 * 0.1) * 0.2) * 0.3)
        assert folded[3] != 0.1 * (((1.0 * 0.3) * 0.2) * 0.1)
        assert folded[5] == 0.1 * ((1.0 * 0.2) * 0.3)
        assert folded[9] == 0.1
        np.testing.assert_array_equal(engine.slot_energies(1, energies), energies)


# ---------------------------------------------------------------------------
# batches: a run's result does not depend on its batch
# ---------------------------------------------------------------------------


class _Foreign:
    """A duck-typed spec whose scheduler is a subclass of its built-in one.

    The batch engine reads its parameters only from the three built-in
    scheduler classes, so it steps this row through the scheduling
    protocol; the decisions must not change.
    """

    SUBCLASSES = {
        base: type(f"Foreign{base.__name__}", (base,), {})
        for base in (ExtendedRoundRobin, ActivityAwareScheduler, NaiveAllOn)
    }

    def __init__(self, spec):
        self.spec = spec
        self.name = spec.name
        self.aggregation = spec.aggregation
        self.adaptive_confidence = spec.adaptive_confidence
        self.uses_recall = spec.uses_recall

    def make_scheduler(self, node_ids, rank_table):
        scheduler = self.spec.make_scheduler(node_ids, rank_table)
        scheduler.__class__ = self.SUBCLASSES[type(scheduler)]
        return scheduler


class TestProtocolRows:
    @pytest.mark.parametrize(
        "spec", GRID + [naive_policy()], ids=lambda spec: spec.name
    )
    def test_protocol_row_decides_like_builtin(self, tiny_experiment, spec):
        plan = FaultPlan(
            faults=(
                Brownout(node_id=0, start_slot=10, duration_slots=8),
                PacketLoss(rate=0.3),
            ),
        )
        obs = Observability()
        builtin, foreign = run_policy_batch(
            tiny_experiment, [spec, _Foreign(spec)], 5, faults=plan, obs=obs
        )
        _assert_results_equal(foreign, builtin)
        first, second = split_runs(obs.tracer.events)
        assert [e[1:] for e in first] == [e[1:] for e in second]


class TestBatchIdentity:
    @pytest.mark.parametrize("seed", [7, 13])
    def test_batch_matches_single_runs(self, tiny_experiment, seed):
        batch = run_policy_batch(tiny_experiment, GRID, seed)
        assert len(batch) == len(GRID)
        for spec, fast in zip(GRID, batch):
            _assert_results_equal(fast, tiny_experiment.run(spec, seed=seed))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(volatile=True),
            dict(max_task_age_slots=2),
            dict(battery_supplement_w=2e-6),
            dict(capacitor_capacity_j=30e-6, capacitor_initial_j=10e-6),
        ],
        ids=["volatile", "stale-abort", "hybrid", "small-cap"],
    )
    def test_config_variants_identical(self, tiny_dataset, tiny_bundle, overrides):
        config = SimulationConfig(n_windows=40, **overrides)
        experiment = HARExperiment(tiny_dataset, tiny_bundle, config=config, seed=3)
        specs = [rr_policy(3), origin_policy(6)]
        for spec, fast in zip(specs, run_policy_batch(experiment, specs, 9)):
            _assert_results_equal(fast, experiment.run(spec, seed=9))

    def test_group_lanes_match_the_group_alone(self, tiny_experiment):
        # One kernel holds every group's lanes; a group's runs (a faulted
        # one's folded harvest rows included) equal the group run alone.
        plan = FaultPlan(
            faults=(
                HarvesterDropout(node_id=0, windows=((5, 30),), factor=0.2),
                Brownout(node_id=1, start_slot=12, duration_slots=5),
            )
        )
        groups = [
            BatchGroup(policies=GRID[:2], seed=7),
            BatchGroup(policies=GRID[2:], seed=13, faults=plan),
            BatchGroup(
                policies=[origin_policy(12)],
                seed=7,
                config=replace(tiny_experiment.config, capacitor_capacity_j=60e-6),
            ),
        ]
        batched = run_group_batch(tiny_experiment, groups)
        assert batched[1][0].fault_stats is not None
        for group, results in zip(groups, batched):
            (alone,) = run_group_batch(tiny_experiment, [group])
            for fast, slow in zip(results, alone):
                _assert_results_equal(fast, slow)

    def test_faulted_traced_batch_matches_single_runs(self, tiny_experiment):
        plan = FaultPlan(
            faults=(
                Brownout(node_id=0, start_slot=10, duration_slots=6),
                NodeDeath(1, at_slot=40),
                PacketLoss(rate=0.3),
            ),
        )
        batch_obs = Observability()
        batch = run_policy_batch(tiny_experiment, GRID, 5, faults=plan, obs=batch_obs)
        single_events = []
        for spec, fast in zip(GRID, batch):
            obs = Observability()
            _assert_results_equal(fast, tiny_experiment.run(spec, seed=5, faults=plan, obs=obs))
            single_events.extend(obs.tracer.events)
        assert [e[1:] for e in batch_obs.tracer.events] == [e[1:] for e in single_events]
        assert len(split_runs(batch_obs.tracer.events)) == len(GRID)


@pytest.fixture(scope="module")
def pamap2_experiment(tiny_pamap2_dataset, tiny_pamap2_bundle):
    """A micro PAMAP2 deployment (second dataset of the identity gate)."""
    return HARExperiment(
        tiny_pamap2_dataset,
        tiny_pamap2_bundle,
        config=SimulationConfig(n_windows=40),
        seed=2,
    )


class TestPamap2Identity:
    def test_batch_matches_single_runs(self, pamap2_experiment):
        specs = [rr_policy(3), origin_policy(6)]
        batch = run_policy_batch(pamap2_experiment, specs, 11)
        for spec, fast in zip(specs, batch):
            _assert_results_equal(fast, pamap2_experiment.run(spec, seed=11))


# ---------------------------------------------------------------------------
# sweep integration: every chunk is one batch, traced or not
# ---------------------------------------------------------------------------


SWEEP_GRID = [rr_policy(3), origin_policy(3)]


class TestSweepKernelPath:
    def test_sequential_batch_matches_per_cell_sweep(self, tiny_experiment, per_cell_sweep):
        fast = PolicySweep(tiny_experiment, n_seeds=2).run(SWEEP_GRID, workers=1)
        slow = per_cell_sweep(tiny_experiment, SWEEP_GRID, n_seeds=2)
        _assert_sweeps_equal(fast, slow)

    def test_uncached_sweep_matches(self, tiny_experiment, per_cell_sweep):
        # Per-cell runs build their own material; the sweep shares one
        # per seed and batches the chunk.  Results are identical.
        fast = PolicySweep(tiny_experiment, n_seeds=1).run(SWEEP_GRID, workers=1)
        slow = per_cell_sweep(tiny_experiment, SWEEP_GRID, n_seeds=1)
        _assert_sweeps_equal(fast, slow)

    def test_parallel_matches_per_cell_sweep(self, tiny_experiment, per_cell_sweep):
        slow = per_cell_sweep(tiny_experiment, SWEEP_GRID, n_seeds=2)
        fast = PolicySweep(tiny_experiment, n_seeds=2).run(SWEEP_GRID, workers=2)
        _assert_sweeps_equal(fast, slow)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_every_chunk_is_one_batch(self, tiny_experiment, monkeypatch, traced):
        import repro.sim.kernel as kernel_mod

        real = kernel_mod.run_policy_batch
        sizes = []

        def counting(experiment, policies, seed, **kwargs):
            sizes.append(len(list(policies)))
            return real(experiment, policies, seed, **kwargs)

        monkeypatch.setattr(kernel_mod, "run_policy_batch", counting)
        obs = Observability() if traced else None
        PolicySweep(tiny_experiment, n_seeds=2, include_baselines=False).run(
            SWEEP_GRID, workers=1, obs=obs
        )
        assert sizes == [len(SWEEP_GRID)] * 2
        if traced:
            runs = split_runs(obs.tracer.events)
            assert len(runs) == 2 * len(SWEEP_GRID)
            assert all(run[0].kind == "run.started" for run in runs)
            assert all(run[-1].kind == "run.finished" for run in runs)

    def test_batch_failure_falls_back_identically(
        self, tiny_experiment, per_cell_sweep, monkeypatch
    ):
        # A failing batch must degrade to the per-run loop with no
        # change in results.  Only multi-policy (batch) calls fail;
        # single-run calls from experiment.run stay live.
        import repro.sim.kernel as kernel_mod

        real = kernel_mod.run_policy_batch

        def flaky_batch(experiment, policies, seed, **kwargs):
            if len(list(policies)) > 1:
                raise RuntimeError("synthetic batch failure")
            return real(experiment, policies, seed, **kwargs)

        monkeypatch.setattr(kernel_mod, "run_policy_batch", flaky_batch)
        fast = PolicySweep(tiny_experiment, n_seeds=2).run(SWEEP_GRID, workers=1)
        slow = per_cell_sweep(tiny_experiment, SWEEP_GRID, n_seeds=2)
        _assert_sweeps_equal(fast, slow)

    def test_batch_failure_preserves_salvage_accounting(
        self, tiny_experiment, monkeypatch
    ):
        # Batch fails -> per-run fallback -> one policy's cells fail ->
        # salvage reports exactly those cells (per-cell semantics are
        # preserved through the fallback).
        import repro.sim.kernel as kernel_mod

        real_batch = kernel_mod.run_policy_batch

        def flaky_batch(experiment, policies, seed, **kwargs):
            if len(list(policies)) > 1:
                raise RuntimeError("synthetic batch failure")
            return real_batch(experiment, policies, seed, **kwargs)

        monkeypatch.setattr(kernel_mod, "run_policy_batch", flaky_batch)

        real_run = type(tiny_experiment).run

        def flaky_run(self, spec, **kwargs):
            if spec.name == SWEEP_GRID[0].name:
                raise RuntimeError("synthetic cell failure")
            return real_run(self, spec, **kwargs)

        monkeypatch.setattr(type(tiny_experiment), "run", flaky_run)
        result = PolicySweep(
            tiny_experiment, n_seeds=2, include_baselines=False
        ).run(SWEEP_GRID, workers=1, on_failure="salvage")
        report = result.degradation
        assert report is not None and report.failed_cells == 2
        assert SWEEP_GRID[0].name not in result.policies
        assert SWEEP_GRID[1].name in result.policies
        assert all(
            "synthetic cell failure" in cell.cause for cell in report.failed
        )


class TestSetupTimer:
    """A batch's lane set-up is one ``kernel.setup`` timer, and only when observed."""

    GROUPS = [
        BatchGroup(policies=GRID[:2], seed=7),
        BatchGroup(policies=[origin_policy(12)], seed=8),
    ]

    @pytest.fixture
    def clock(self, monkeypatch):
        import repro.sim.kernel as kernel_mod

        calls = []

        def ticking():
            calls.append(1)
            return float(len(calls))

        monkeypatch.setattr(kernel_mod, "perf_counter", ticking)
        return calls

    def test_observed_batch_times_its_setup_once(self, tiny_experiment, clock):
        obs = Observability(tracer=NULL_TRACER)
        run_group_batch(tiny_experiment, self.GROUPS, obs=obs)
        setup = obs.metrics.to_dict()["timers"]["kernel.setup"]
        # The batch reads the clock at its start, after its set-up and
        # at its end; the set-up is the first tick to the second.
        assert len(clock) == 3
        assert setup["calls"] == 1
        assert setup["total_s"] == 1.0

    def test_unobserved_batch_times_nothing(self, tiny_experiment, clock):
        run_group_batch(tiny_experiment, self.GROUPS)
        assert clock == []
