"""Run registry, live watcher, and bench-trajectory gate tests."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.errors import ObservabilityError
from repro.obs.bench import (
    DEFAULT_TOLERANCE,
    TRAJECTORY_NAME,
    check,
    extract_headlines,
    update,
)
from repro.obs.bench import main as bench_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.runs import DEFAULT_ROOT, RunRegistry, default_root
from repro.obs.runs import main as runs_main
from repro.obs.timeline import TimeSeriesRecorder
from repro.obs.watch import (
    RunSnapshot,
    _shard_span,
    render_frame,
    snapshot_run_dir,
)
from repro.obs.watch import main as watch_main
from repro.resilience import SweepJournal


def _registry_with_two_runs(root):
    registry = RunRegistry(str(root))
    metrics_a = MetricsRegistry()
    metrics_a.inc("fleet.users", 100)
    metrics_a.inc("fleet.shards", 4)
    registry.record(kind="fleet", metrics=metrics_a, run_id="a", meta={"users": 100})
    metrics_b = MetricsRegistry()
    metrics_b.inc("fleet.users", 100)
    metrics_b.inc("fleet.shards", 8)
    metrics_b.inc("resilience.retries", 2)
    registry.record(kind="fleet", metrics=metrics_b, run_id="b")
    return registry


class TestRunRegistry:
    def test_record_and_load_round_trip(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        metrics = MetricsRegistry()
        metrics.inc("fleet.users", 42)
        metrics.gauge("fleet.total_users").set(42)
        run_id = registry.record(
            kind="fleet",
            metrics=metrics,
            meta={"policy": "origin-12"},
            timeseries=str(tmp_path / "ts.jsonl"),
            run_dir=str(tmp_path),
        )
        record = registry.load(run_id)
        assert record.kind == "fleet"
        assert record.damaged is None
        assert record.meta == {"policy": "origin-12"}
        assert record.counters == {"fleet.users": 42.0}
        assert record.gauges == {"fleet.total_users": 42}
        assert record.timeseries.endswith("ts.jsonl")
        assert "fleet.users=42" in record.headline()

    def test_fresh_ids_never_collide(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        first = registry.record(kind="fleet", metrics={})
        second = registry.record(kind="fleet", metrics={})
        assert first != second
        assert {r.run_id for r in registry.ls()} == {first, second}

    def test_duplicate_and_invalid_ids_rejected(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        registry.record(kind="fleet", metrics={}, run_id="x")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.record(kind="fleet", metrics={}, run_id="x")
        with pytest.raises(ObservabilityError, match="invalid run id"):
            registry.record(kind="fleet", metrics={}, run_id=f"a{os.sep}b")

    def test_damaged_entry_listed_not_fatal(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        registry.record(kind="fleet", metrics={}, run_id="ok")
        broken = tmp_path / "reg" / "broken"
        broken.mkdir()
        (broken / "runmeta.json").write_text("{not json")
        records = {r.run_id: r for r in registry.ls()}
        assert records["ok"].damaged is None
        assert records["broken"].damaged is not None
        assert "DAMAGED" in records["broken"].headline()
        with pytest.raises(ObservabilityError, match="damaged"):
            registry.diff("ok", "broken")

    def test_diff_changed_counters_only(self, tmp_path):
        registry = _registry_with_two_runs(tmp_path / "reg")
        rows = registry.diff("a", "b")
        assert rows == [
            {"name": "fleet.shards", "a": 4.0, "b": 8.0, "delta": 4.0},
            {"name": "resilience.retries", "a": 0.0, "b": 2.0, "delta": 2.0},
        ]

    def test_default_root_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert default_root() == DEFAULT_ROOT
        assert default_root("explicit") == "explicit"
        monkeypatch.setenv("REPRO_RUNS_DIR", "/elsewhere")
        assert default_root() == "/elsewhere"
        assert default_root("explicit") == "explicit"

    def test_cli_ls_info_diff(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        assert runs_main(["--root", root, "ls"]) == 0
        assert "no runs registered" in capsys.readouterr().out
        _registry_with_two_runs(root)
        assert runs_main(["--root", root, "ls"]) == 0
        out = capsys.readouterr().out
        assert "a  kind=fleet" in out and "b  kind=fleet" in out
        assert runs_main(["--root", root, "info", "a"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "fleet.users" in out
        assert runs_main(["--root", root, "diff", "a", "b"]) == 0
        out = capsys.readouterr().out
        assert "fleet.shards" in out and "+4" in out
        assert runs_main(["--root", root, "info", "nope"]) == 1
        assert "error:" in capsys.readouterr().out


def _write_run_dir(tmp_path, *, finished=False, journal=True):
    """Synthetic mid-flight run dir: journal + timeseries, fake clock."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    if journal:
        rows = [
            {"kind": "sweep-journal", "schema_version": 1, "fingerprint": "f"},
            {"kind": "cell", "cell": "shard:0-2", "payload": {}},
            {"kind": "cell", "cell": "shard:2-4", "payload": {}},
        ]
        (run_dir / "fleet.journal").write_text(
            "".join(json.dumps(r) + "\n" for r in rows)
        )
    clock_now = [50.0]
    metrics = MetricsRegistry()
    recorder = TimeSeriesRecorder(
        metrics,
        str(run_dir / "timeseries.jsonl"),
        interval_s=0.0,
        clock=lambda: clock_now[0],
        meta={"job": "fleet", "users": 8},
    )
    metrics.gauge("fleet.total_users").set(8)
    metrics.gauge("fleet.total_shards").set(4)
    metrics.counter("fleet.progress.users").inc(2)
    recorder.sample(force=True)
    clock_now[0] += 2.0
    metrics.counter("fleet.progress.users").inc(2)
    metrics.counter("resilience.retries").inc()
    metrics.gauge("resilience.heartbeat").set(3)
    metrics.gauge("resilience.inflight").set(2)
    metrics.gauge("resilience.queue_depth").set(1)
    recorder.sample(force=True)
    if finished:
        recorder.mark("fleet.run.finished")
    recorder.close(final_sample=False)
    return run_dir


def _dir_digest(path):
    digest = hashlib.md5()
    for name in sorted(os.listdir(path)):
        digest.update((path / name).read_bytes())
    return digest.hexdigest()


class TestWatch:
    def test_shard_span(self):
        assert _shard_span("shard:0-256") == (0, 256)
        assert _shard_span("policy:origin-6:3") is None
        assert _shard_span("shard:garbage") is None

    def test_snapshot_properties(self, tmp_path):
        run_dir = _write_run_dir(tmp_path)
        snapshot = snapshot_run_dir(str(run_dir))
        assert snapshot.done_shards == 2
        assert snapshot.done_users == 4
        assert snapshot.done_cells == 0
        assert snapshot.counter("fleet.progress.users") == 4.0
        assert snapshot.gauge("fleet.total_users") == 8
        assert snapshot.rate("fleet.progress.users") == pytest.approx(1.0)
        assert not snapshot.finished
        assert snapshot.ts_meta == {"job": "fleet", "users": 8}

    def test_snapshot_rejects_non_directory(self, tmp_path):
        with pytest.raises(ObservabilityError, match="not a directory"):
            snapshot_run_dir(str(tmp_path / "missing"))

    def test_render_frame_golden_fragments(self, tmp_path):
        run_dir = _write_run_dir(tmp_path)
        frame = render_frame(snapshot_run_dir(str(run_dir)))
        assert frame.startswith(f"fleet run · {run_dir}")
        assert "job       users=8" in frame
        assert "4/8 users (50.0%)" in frame
        assert "shards    2/4 done (0 from journal)" in frame
        assert "rate      1.0 users/s   ETA 4s" in frame
        assert "workers   heartbeat #3 · in-flight 2 · queue 1" in frame
        assert "incidents retries=1" in frame

    def test_finished_state_from_mark(self, tmp_path):
        run_dir = _write_run_dir(tmp_path, finished=True)
        snapshot = snapshot_run_dir(str(run_dir))
        assert snapshot.finished
        frame = render_frame(snapshot)
        assert "state     finished" in frame
        assert "fleet.run.finished" in frame

    def test_watching_never_mutates_the_run_dir(self, tmp_path):
        run_dir = _write_run_dir(tmp_path)
        # Simulate a writer mid-append: torn journal tail, torn sample.
        with open(run_dir / "fleet.journal", "a") as handle:
            handle.write('{"kind": "cell", "cell": "shard:4-')
        with open(run_dir / "timeseries.jsonl", "a") as handle:
            handle.write('{"kind": "timeseries.sa')
        before = _dir_digest(run_dir)
        snapshot = snapshot_run_dir(str(run_dir))
        render_frame(snapshot)
        assert _dir_digest(run_dir) == before
        assert snapshot.done_shards == 2  # torn cell skipped, not fatal

    def test_done_shards_count_what_a_resume_keeps(self, tmp_path):
        run_dir = _write_run_dir(tmp_path)
        cell = {"kind": "cell", "cell": "shard:4-6", "payload": {}}
        with open(run_dir / "fleet.journal", "a") as handle:
            handle.write("garbage\n" + json.dumps(cell) + "\n")
        copy = tmp_path / "copy.journal"
        shutil.copyfile(run_dir / "fleet.journal", copy)
        snapshot = snapshot_run_dir(str(run_dir))
        with SweepJournal.open(str(copy), "f") as resumed:
            assert snapshot.done_shards == len(resumed) == 2

    def test_waiting_frame_for_empty_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        frame = render_frame(snapshot_run_dir(str(empty)))
        assert "waiting" in frame

    def test_progress_counters_without_journal(self, tmp_path):
        run_dir = _write_run_dir(tmp_path, journal=False)
        frame = render_frame(snapshot_run_dir(str(run_dir)))
        # Journal-less: progress falls back to the stream counters.
        assert "4/8 users (50.0%)" in frame

    def test_cli_once_renders_and_exits_zero(self, tmp_path, capsys):
        run_dir = _write_run_dir(tmp_path)
        assert watch_main([str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "fleet run ·" in out and "incidents" in out

    def test_sweep_cells_branch(self):
        snapshot = RunSnapshot(run_dir="x")
        snapshot.samples = [
            {
                "t_s": 0.0,
                "unix_s": 0.0,
                "counters": {"sweep.progress.cells": 3.0},
                "gauges": {"sweep.total_cells": 6},
            }
        ]
        frame = render_frame(snapshot)
        assert "3/6 cells (50.0%)" in frame


def _write_bench_files(results_dir):
    results_dir.mkdir(parents=True, exist_ok=True)
    store = {
        "bench": "trained_bundle_store_cold_start",
        "speedup": {"warm_vs_cold": 11.81},
        "meta": {"git_sha": "abc1234", "timestamp_utc": "2026-01-01T00:00:00Z"},
    }
    fleet = {
        "benchmark": "fleet",  # the one BENCH file with the old key
        "users_per_second": 180.0,
        "meta": {"git_sha": "abc1234", "timestamp_utc": "2026-01-01T00:00:00Z"},
    }
    chaos = {  # no meta block, like the oldest committed BENCH file
        "bench": "sweep_resilience_chaos",
        "supervision": {"overhead_fraction": 0.02},
    }
    for name, doc in (
        ("BENCH_store.json", store),
        ("BENCH_fleet.json", fleet),
        ("BENCH_chaos.json", chaos),
    ):
        (results_dir / name).write_text(json.dumps(doc))
    return results_dir


class TestBenchTrajectory:
    def test_extract_headlines_both_name_keys(self, tmp_path):
        results = _write_bench_files(tmp_path / "results")
        store = extract_headlines(str(results / "BENCH_store.json"))
        assert store["bench"] == "trained_bundle_store_cold_start"
        assert store["git_sha"] == "abc1234"
        assert store["headlines"] == {"speedup.warm_vs_cold": 11.81}
        fleet = extract_headlines(str(results / "BENCH_fleet.json"))
        assert fleet["bench"] == "fleet"
        assert fleet["headlines"] == {"users_per_second": 180.0}
        chaos = extract_headlines(str(results / "BENCH_chaos.json"))
        assert chaos["git_sha"] is None  # meta-less file still records

    def test_extract_rejects_unknown_and_incomplete(self, tmp_path):
        unknown = tmp_path / "BENCH_mystery.json"
        unknown.write_text(json.dumps({"bench": "mystery"}))
        with pytest.raises(ObservabilityError, match="no HEADLINES entry"):
            extract_headlines(str(unknown))
        partial = tmp_path / "BENCH_partial.json"
        partial.write_text(json.dumps({"bench": "fleet"}))
        with pytest.raises(ObservabilityError, match="users_per_second"):
            extract_headlines(str(partial))

    def test_update_appends_once(self, tmp_path):
        results = _write_bench_files(tmp_path / "results")
        trajectory = str(results / TRAJECTORY_NAME)
        first = update(str(results), trajectory)
        assert {r["bench"] for r in first} == {
            "trained_bundle_store_cold_start",
            "fleet",
            "sweep_resilience_chaos",
        }
        assert update(str(results), trajectory) == []  # idempotent
        with open(trajectory) as handle:
            assert len(handle.readlines()) == 3

    def test_update_appends_again_when_numbers_move(self, tmp_path):
        results = _write_bench_files(tmp_path / "results")
        trajectory = str(results / TRAJECTORY_NAME)
        update(str(results), trajectory)
        doc = json.loads((results / "BENCH_store.json").read_text())
        doc["speedup"]["warm_vs_cold"] = 12.5
        (results / "BENCH_store.json").write_text(json.dumps(doc))
        appended = update(str(results), trajectory)
        assert [r["bench"] for r in appended] == ["trained_bundle_store_cold_start"]

    def test_check_passes_without_history_and_within_tolerance(self, tmp_path):
        results = _write_bench_files(tmp_path / "results")
        trajectory = str(results / TRAJECTORY_NAME)
        assert check(str(results), trajectory) == []  # no ledger at all
        update(str(results), trajectory)
        # Only the current identity in the ledger: still no baseline.
        assert check(str(results), trajectory) == []

    def test_check_flags_higher_metric_drop(self, tmp_path):
        results = _write_bench_files(tmp_path / "results")
        trajectory = str(results / TRAJECTORY_NAME)
        golden_past = {
            "schema_version": 1,
            "bench": "trained_bundle_store_cold_start",
            "source": "BENCH_store.json",
            "git_sha": "older00",
            "timestamp_utc": "2025-12-01T00:00:00Z",
            "headlines": {"speedup.warm_vs_cold": 20.0},
        }
        with open(trajectory, "w") as handle:
            handle.write(json.dumps(golden_past) + "\n")
        regressions = check(str(results), trajectory)
        assert len(regressions) == 1
        assert "warm_vs_cold regressed 20 -> 11.81" in regressions[0]
        # Wide tolerance swallows the same drop.
        assert check(str(results), trajectory, tolerance=0.9) == []

    def test_check_flags_lower_metric_climb(self, tmp_path):
        results = _write_bench_files(tmp_path / "results")
        trajectory = str(results / TRAJECTORY_NAME)
        golden_past = {
            "schema_version": 1,
            "bench": "sweep_resilience_chaos",
            "source": "BENCH_chaos.json",
            "git_sha": "older00",
            "timestamp_utc": "2025-12-01T00:00:00Z",
            "headlines": {"supervision.overhead_fraction": -0.2},
        }
        with open(trajectory, "w") as handle:
            handle.write(json.dumps(golden_past) + "\n")
        regressions = check(str(results), trajectory)
        assert len(regressions) == 1
        assert "overhead_fraction regressed -0.2 -> 0.02" in regressions[0]

    def test_cli_update_then_gate(self, tmp_path, capsys):
        results = _write_bench_files(tmp_path / "results")
        assert bench_main(["--results-dir", str(results), "update"]) == 0
        assert "appended" in capsys.readouterr().out
        assert bench_main(["--results-dir", str(results), "check"]) == 0
        assert "no headline regressions" in capsys.readouterr().out
        doc = json.loads((results / "BENCH_store.json").read_text())
        doc["speedup"]["warm_vs_cold"] = 1.0
        doc["meta"]["git_sha"] = "newer00"
        (results / "BENCH_store.json").write_text(json.dumps(doc))
        assert bench_main(["--results-dir", str(results), "check"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_committed_trajectory_gate_passes(self, capsys):
        """The repo's own ledger must gate green (CI runs exactly this)."""
        results = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks", "results"
        )
        assert bench_main(["--results-dir", results, "check"]) == 0
        out = capsys.readouterr().out
        assert "no headline regressions" in out

    def test_default_tolerance_is_sane(self):
        assert 0.0 < DEFAULT_TOLERANCE < 0.5
