"""Golden-output tests for the report renderer (`repro.obs.summarize`)."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.summarize import (
    _fault_ledger,
    _fleet_line,
    _resilience_line,
    _store_line,
    _timeline_rows,
    fleet_journal_lines,
    main,
    render_report,
    split_runs,
    timeseries_lines,
)
from repro.obs.timeline import TimeSeriesRecorder
from repro.obs.trace import TraceEvent

E = TraceEvent


@pytest.fixture()
def run_events():
    """Hand-built six-slot, two-node run exercising every glyph."""
    return [
        E(0, "run.started", None, None,
          {"policy": "origin-6", "seed": 3, "n_windows": 6, "n_nodes": 2}),
        E(1, "window.sensed", 0, 0, {}),
        E(2, "nvp.burst", 1, 0, {}),
        E(3, "inference.completed", 2, 0, {}),
        E(4, "message.dropped", 3, 1, {}),
        E(5, "fault.fired", 4, 1, {"fault": "power_down"}),
        E(6, "vote.cast", 2, None, {}),
        E(7, "run.finished", None, None, {}),
    ]


class TestTimelineRows:
    def test_golden_rows(self, run_events):
        rows = _timeline_rows(run_events, 6, 100)
        assert rows == [
            "  node 0   |aaC...|",
            "  node 1   |...d!.|",
            "  host     |  V   |",
        ]

    def test_priority_highest_glyph_wins(self):
        # Same node+slot: completed (C) outranks burst (a), fault (!)
        # outranks everything.
        events = [
            E(0, "nvp.burst", 0, 0, {}),
            E(1, "inference.completed", 0, 0, {}),
            E(2, "fault.fired", 1, 0, {"fault": "radio_off"}),
            E(3, "inference.completed", 1, 0, {}),
        ]
        assert _timeline_rows(events, 2, 100) == ["  node 0   |C!|"]

    def test_downsampling_keeps_highest_priority_per_bucket(self):
        # 12 slots into 6 columns: each column is a 2-slot bucket.
        events = [
            E(0, "window.sensed", 0, 0, {}),
            E(1, "inference.completed", 1, 0, {}),  # bucket 0 -> C
            E(2, "message.dropped", 5, 0, {}),      # bucket 2 -> d
            E(3, "fault.fired", 10, 0, {"fault": "x"}),  # bucket 5 -> !
        ]
        assert _timeline_rows(events, 12, 6) == ["  node 0   |C.d..!|"]

    def test_out_of_range_slots_ignored(self):
        events = [
            E(0, "window.sensed", 0, 0, {}),
            E(1, "inference.completed", 99, 0, {}),
        ]
        assert _timeline_rows(events, 2, 100) == ["  node 0   |a.|"]

    def test_no_votes_no_host_row(self):
        events = [E(0, "window.sensed", 0, 0, {})]
        rows = _timeline_rows(events, 1, 100)
        assert rows == ["  node 0   |a|"]


class TestFaultLedger:
    def test_golden_line(self, run_events):
        assert _fault_ledger(run_events) == [
            "  slot     4  node 1    power_down",
        ]

    def test_host_scoped_fault(self):
        events = [E(0, "fault.fired", 2, None, {"fault": "brownout"})]
        assert _fault_ledger(events) == ["  slot     2  host      brownout"]

    def test_clean_run_empty(self):
        assert _fault_ledger([E(0, "vote.cast", 0, None, {})]) == []


class TestSplitRuns:
    def test_two_runs_partitioned_at_boundaries(self, run_events):
        doubled = run_events + [
            E(e.seq + 8, e.kind, e.slot, e.node_id, e.payload)
            for e in run_events
        ]
        runs = split_runs(doubled)
        assert [len(r) for r in runs] == [8, 8]
        assert all(r[0].kind == "run.started" for r in runs)


class TestMetricLines:
    def test_store_line_golden(self):
        exported = {
            "counters": {"store.hit": 3, "store.miss": 1, "store.rebuild": 1},
            "timers": {
                "store.load": {"calls": 3, "total_s": 0.5, "min_s": 0.1, "max_s": 0.3}
            },
        }
        assert _store_line(exported) == (
            "artifact store: 3 hit(s), 1 miss(es), 1 corrupt rebuild(s), load 0.50 s"
        )

    def test_store_line_none_without_traffic(self):
        assert _store_line({"counters": {}, "timers": {}}) is None

    def test_resilience_line_golden(self):
        exported = {"counters": {"resilience.crashes": 1, "resilience.retries": 2}}
        assert _resilience_line(exported) == "resilience: 1 crash(es), 2 retry(ies)"

    def test_resilience_line_none_when_incident_free(self):
        assert _resilience_line({"counters": {"resilience.crashes": 0}}) is None

    def test_fleet_line_golden(self):
        exported = {
            "counters": {
                "fleet.users": 500,
                "fleet.shards": 2,
                "fleet.journal.hit": 1,
            },
            "timers": {
                "fleet.run": {"calls": 1, "total_s": 2.0, "min_s": 2.0, "max_s": 2.0}
            },
        }
        assert _fleet_line(exported) == (
            "fleet: 500 user(s) over 2 shard(s), 1 journal hit(s), 250 users/s"
        )

    def test_fleet_line_none_without_fleet(self):
        assert _fleet_line({"counters": {}, "timers": {}}) is None


class TestRenderReport:
    def test_full_report_contains_golden_fragments(self, run_events):
        report = render_report({"schema_version": 2, "meta": {}}, run_events)
        assert "runs in trace: 1" in report
        assert "run #0: origin-6 (seed 3, 6 slots)" in report
        assert "  node 0   |aaC...|" in report
        assert "  node 1   |...d!.|" in report
        assert "  host     |  V   |" in report
        assert "fault ledger:" in report
        assert "  slot     4  node 1    power_down" in report

    def test_run_index_out_of_range(self, run_events):
        with pytest.raises(IndexError, match="out of range"):
            render_report(
                {"schema_version": 2}, run_events, run_index=5
            )


class TestArtifactSections:
    def test_fleet_journal_lines_golden(self, tmp_path):
        path = tmp_path / "fleet.journal"
        rows = [
            {"kind": "sweep-journal", "schema_version": 1, "fingerprint": "f"},
            {"kind": "cell", "cell": "shard:0-3", "payload": {}},
            {"kind": "cell", "cell": "shard:3-6", "payload": {}},
            {"kind": "cell", "cell": "policy:origin-6:3", "payload": {}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert fleet_journal_lines(str(path)) == [
            "fleet journal: 2 shard(s) checkpointed, 6 user(s)",
            "  plus 1 non-shard cell(s) (sweep journal?)",
        ]

    def test_timeseries_lines_golden(self, tmp_path):
        clock_now = [100.0]
        metrics = MetricsRegistry()
        recorder = TimeSeriesRecorder(
            metrics,
            str(tmp_path / "ts.jsonl"),
            interval_s=0.0,
            clock=lambda: clock_now[0],
        )
        metrics.counter("fleet.progress.users").inc(2)
        recorder.sample(force=True)
        clock_now[0] += 2.0
        metrics.counter("fleet.progress.users").inc(4)
        recorder.sample(force=True)
        recorder.mark("fleet.run.finished")
        recorder.close(final_sample=False)
        assert timeseries_lines(str(tmp_path / "ts.jsonl")) == [
            "timeseries: 2 sample(s), 1 mark(s) over 2.0 s",
            "  fleet.progress.users: 6 total, 2.0 users/s",
            "  mark 2.0s: fleet.run.finished",
        ]


class TestCLI:
    def test_no_inputs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "--metrics/--fleet-journal/--timeseries" in capsys.readouterr().err

    def test_metrics_only_report(self, tmp_path, capsys):
        metrics = MetricsRegistry()
        metrics.inc("fleet.users", 12)
        metrics.inc("fleet.shards", 3)
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(json.dumps(metrics.to_dict()))
        assert main(["--metrics", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metrics report")
        assert "fleet: 12 user(s) over 3 shard(s)" in out

    def test_artifact_only_report_and_output_file(self, tmp_path, capsys):
        journal = tmp_path / "fleet.journal"
        journal.write_text(
            json.dumps({"kind": "sweep-journal", "schema_version": 1}) + "\n"
            + json.dumps({"kind": "cell", "cell": "shard:0-4", "payload": {}}) + "\n"
        )
        report_path = tmp_path / "report.txt"
        assert main(
            ["--fleet-journal", str(journal), "--output", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet journal: 1 shard(s) checkpointed, 4 user(s)" in out
        assert report_path.read_text().startswith("fleet journal:")
