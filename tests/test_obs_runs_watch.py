"""Run registry and live watcher tests."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.errors import ObservabilityError
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

