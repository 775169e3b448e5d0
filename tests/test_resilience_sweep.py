"""Sweep-level resilience integration: chaos-perturbed parallel sweeps
must recover byte-identically, journaled sweeps must resume exactly, and
salvage mode must account for every lost cell.

All tests reuse the session ``tiny_experiment``.
"""

from __future__ import annotations

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.policies import Baseline1, Baseline2, origin_policy, rr_policy
from repro.errors import ConfigurationError, ResilienceError
from repro.obs.observer import Observability
from repro.resilience import (
    ChaosAction,
    ChaosPlan,
    SweepJournal,
    baseline_cell,
    policy_cell,
    sweep_fingerprint,
)
from repro.sim.sweep import PolicySweep

GRID = [rr_policy(3), origin_policy(3)]


def _assert_identical(a, b, *, baselines=True):
    assert sorted(a.policies) == sorted(b.policies)
    for name in a.policies:
        lhs, rhs = a.policy(name), b.policy(name)
        assert lhs.records == rhs.records
        assert lhs.node_stats == rhs.node_stats
        assert lhs.comm_energy_j == rhs.comm_energy_j
        assert lhs.confidence_updates == rhs.confidence_updates
        assert lhs.fault_stats == rhs.fault_stats
    if baselines:
        assert sorted(a.baselines) == sorted(b.baselines)
        for name in a.baselines:
            lhs, rhs = a.baseline(name), b.baseline(name)
            np.testing.assert_array_equal(lhs.true_labels, rhs.true_labels)
            np.testing.assert_array_equal(lhs.predicted_labels, rhs.predicted_labels)


def _fail_cells(monkeypatch, experiment, *names):
    """Make the named policies' cells raise.

    Failing every multi-policy kernel batch sends each seed's chunk down
    the cell-by-cell path, where ``HARExperiment.run`` raises for
    ``names`` (single-run kernel calls stay live).
    """
    import repro.sim.kernel as kernel_mod

    real_batch = kernel_mod.run_policy_batch

    def no_batch(experiment, policies, seed, **kwargs):
        if len(list(policies)) > 1:
            raise RuntimeError("synthetic batch failure")
        return real_batch(experiment, policies, seed, **kwargs)

    real_run = type(experiment).run

    def flaky(self, spec, **kwargs):
        if spec.name in names:
            raise RuntimeError("synthetic cell failure")
        return real_run(self, spec, **kwargs)

    monkeypatch.setattr(kernel_mod, "run_policy_batch", no_batch)
    monkeypatch.setattr(type(experiment), "run", flaky)


@pytest.fixture(scope="module")
def sweep(tiny_experiment):
    return PolicySweep(tiny_experiment, n_seeds=2, include_baselines=True)


@pytest.fixture(scope="module")
def reference(sweep):
    """The unperturbed sequential ground truth."""
    return sweep.run(GRID, workers=1)


class TestChaosByteIdentity:
    # With n_seeds=2 and workers=2 the sweep builds exactly 2 units
    # (one per seed), so a one-unit plan perturbs 50% of the workers.

    def test_crashed_workers_recover_identically(self, sweep, reference):
        plan = ChaosPlan(actions={0: ChaosAction(kind="crash")})
        result = sweep.run(GRID, workers=2, chaos=plan)
        _assert_identical(reference, result)
        report = result.degradation
        assert report is not None and report.complete
        assert report.crashes >= 1 and report.retries >= 1
        assert report.pool_restarts >= 1

    def test_hung_worker_reaped_by_timeout_identically(self, sweep, reference):
        plan = ChaosPlan(actions={0: ChaosAction(kind="hang", hang_s=30.0)})
        result = sweep.run(GRID, workers=2, chaos=plan, task_timeout_s=6.0)
        _assert_identical(reference, result)
        report = result.degradation
        assert report is not None and report.complete
        assert report.timeouts == 1

    def test_chaos_requires_a_pool(self, sweep):
        plan = ChaosPlan(actions={0: ChaosAction(kind="crash")})
        with pytest.raises(ConfigurationError, match="workers > 1"):
            sweep.run(GRID, workers=1, chaos=plan)

    def test_bad_on_failure_rejected(self, sweep):
        with pytest.raises(ConfigurationError, match="on_failure"):
            sweep.run(GRID, workers=1, on_failure="shrug")


class TestSpawnedWorkers:
    def test_spawned_workers_match_in_process(self, sweep, reference, monkeypatch):
        # Linux forks pool workers, which inherit their state; under the
        # spawn start method (the macOS default) each worker unpickles it.
        import repro.resilience.pool as pool_mod

        spawning = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", spawning)
        spawned = sweep.run(GRID, workers=2, max_retries=0)
        _assert_identical(reference, spawned)
        assert spawned.degradation is None


class TestJournalResume:
    def test_journaled_run_matches_clean(self, sweep, reference, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = sweep.run(GRID, workers=1, journal=path)
        _assert_identical(reference, first)
        journal = SweepJournal.open(path, sweep_fingerprint(sweep.experiment))
        # 2 policies x 2 seeds + 2 baselines x 2 seeds
        assert len(journal) == 8
        journal.close()

    def test_resume_after_interrupt_is_byte_identical(
        self, sweep, reference, tmp_path
    ):
        path = str(tmp_path / "sweep.jsonl")
        # "Interrupt": unit 0 hangs past its timeout with retries
        # disabled, so the first run dies after journaling only the
        # surviving unit.  (A hang, not a crash: a crash would break
        # the pool and charge the innocent sibling too, while a timeout
        # requeues innocents uncharged — deterministic partial state.)
        plan = ChaosPlan(actions={0: ChaosAction(kind="hang", hang_s=30.0)})
        with pytest.raises(ResilienceError, match="degradation"):
            sweep.run(
                GRID, workers=2, journal=path, chaos=plan,
                task_timeout_s=5.0, max_retries=0, on_failure="raise",
            )
        partial = SweepJournal.open(path, sweep_fingerprint(sweep.experiment))
        n_partial = len(partial)
        partial.close()
        assert 0 < n_partial < 8

        # Resume: journaled cells are served from disk, the rest is
        # recomputed, and the merged result is byte-identical.
        obs = Observability()
        resumed = sweep.run(GRID, workers=2, journal=path, obs=obs)
        _assert_identical(reference, resumed)
        hits = obs.metrics.to_dict()["counters"].get("resilience.journal.hit", 0)
        assert hits == n_partial

        # A second resume serves everything from the journal.
        fully = sweep.run(GRID, workers=1, journal=path)
        _assert_identical(reference, fully)

    def test_journal_refuses_foreign_sweep(self, sweep, tiny_experiment, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        SweepJournal.open(path, "someone-elses-fingerprint").close()
        with pytest.raises(ResilienceError, match="different sweep"):
            sweep.run(GRID, workers=1, journal=path)
        # resume=False replaces it and proceeds.
        result = sweep.run(GRID, workers=1, journal=path, resume=False)
        assert set(result.policies) == {spec.name for spec in GRID}

    def test_open_journal_instance_is_validated(self, sweep, tmp_path):
        journal = SweepJournal.open(str(tmp_path / "sweep.jsonl"), "wrong-fp")
        with pytest.raises(ResilienceError, match="fingerprint"):
            sweep.run(GRID, workers=1, journal=journal)
        journal.close()


class TestSalvage:
    def test_parallel_salvage_reports_lost_cells(self, sweep, reference):
        # A hang (not a crash) so the innocent unit is never charged:
        # exactly unit 0's cells are lost, deterministically.
        plan = ChaosPlan(actions={0: ChaosAction(kind="hang", hang_s=30.0)})
        result = sweep.run(
            GRID, workers=2, chaos=plan, task_timeout_s=5.0,
            max_retries=0, on_failure="salvage",
        )
        report = result.degradation
        assert report is not None and not report.complete
        # Unit 0 is seed offset 0 with both policies: 2 cells lost.
        assert report.failed_cells == 2
        assert report.total_cells == 4
        assert {cell.policy for cell in report.failed} == {
            spec.name for spec in GRID
        }
        assert all("timed out" in cell.cause for cell in report.failed)
        assert all(cell.attempts == 1 for cell in report.failed)
        # Each policy keeps its surviving seed; merged results cover
        # half the records of the full run.
        for spec in GRID:
            survived = result.policy(spec.name)
            full = reference.policy(spec.name)
            assert len(survived.records) * 2 == len(full.records)

    def test_sequential_salvage_catches_cell_errors(self, tiny_experiment,
                                                    monkeypatch):
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=True)
        _fail_cells(monkeypatch, tiny_experiment, GRID[0].name)
        result = sweep.run(GRID, workers=1, on_failure="salvage")
        report = result.degradation
        assert report is not None and report.failed_cells == 2  # both seeds
        assert GRID[0].name not in result.policies
        assert GRID[1].name in result.policies
        assert all(
            "synthetic cell failure" in cell.cause for cell in report.failed
        )

    def test_sequential_raise_propagates_original_error(self, tiny_experiment,
                                                        monkeypatch):
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=True)
        _fail_cells(monkeypatch, tiny_experiment, *(spec.name for spec in GRID))
        with pytest.raises(ResilienceError, match="0/4 cell") as excinfo:
            sweep.run(GRID, workers=1, on_failure="raise")
        cause = excinfo.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "synthetic cell failure" in str(cause)

    def test_sequential_raise_journals_surviving_cells(self, tiny_experiment,
                                                       monkeypatch, tmp_path):
        # The failing cells do not stop the rest of the sweep: the
        # surviving policy cells and the baselines (trailing units of
        # the same executor pass) are journaled before the sweep raises.
        sweep = PolicySweep(tiny_experiment, n_seeds=2, include_baselines=True)
        _fail_cells(monkeypatch, tiny_experiment, GRID[0].name)
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(ResilienceError, match="2/4 cell") as excinfo:
            sweep.run(GRID, workers=1, journal=path, on_failure="raise")
        assert "synthetic cell failure" in str(excinfo.value.__cause__)
        journal = SweepJournal.open(path, sweep_fingerprint(tiny_experiment))
        seeds = (tiny_experiment.seed, tiny_experiment.seed + 1)
        assert journal.cells == sorted(
            [policy_cell(GRID[1], seed) for seed in seeds]
            + [baseline_cell(b.name, seed) for b in (Baseline1, Baseline2) for seed in seeds]
        )
        journal.close()

    def test_failing_baseline_raises_even_when_salvaging(self, tiny_experiment,
                                                          monkeypatch):
        import repro.sim.sweep as sweep_mod

        def broken(*args, **kwargs):
            raise RuntimeError("synthetic baseline failure")

        monkeypatch.setattr(sweep_mod, "evaluate_baseline", broken)
        sweep = PolicySweep(tiny_experiment, n_seeds=1, include_baselines=True)
        with pytest.raises(ResilienceError, match="baseline") as excinfo:
            sweep.run(GRID, workers=1, on_failure="salvage")
        assert "synthetic baseline failure" in str(excinfo.value.__cause__)

    def test_parallel_raise_reports_after_finishing(self, sweep):
        plan = ChaosPlan(actions={0: ChaosAction(kind="crash")})
        with pytest.raises(ResilienceError, match="cell\\(s\\) completed"):
            sweep.run(GRID, workers=2, chaos=plan, max_retries=0)
