"""Render a per-run report from a JSONL trace (+ optional metrics).

Usage::

    python -m repro.obs.summarize trace.jsonl [--metrics metrics.json]
        [--run N] [--width 100] [--output report.txt]
        [--fleet-journal fleet.journal] [--timeseries timeseries.jsonl]

The report shows, per run in the trace: a per-node slot timeline (who
was scheduled, who completed, where messages were dropped, where faults
fired), the host's vote row, the fault ledger, and — when a metrics
snapshot is given — the top wall-time timers and headline counters.

``--fleet-journal`` adds a fleet progress/aggregate line read from a
fleet run's shard journal, and ``--timeseries`` a stream summary from a
:mod:`repro.obs.timeline` recording; with either (or ``--metrics``) the
trace argument is optional — ``summarize`` then reports on the run
artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceEvent, read_trace

#: Timeline glyphs, in increasing display priority: a slot shows the
#: highest-priority thing that happened to the node in it.
_GLYPHS = (
    (".", "idle"),
    ("a", "active (burst, no completion)"),
    ("x", "inference aborted"),
    ("C", "inference completed"),
    ("d", "result message dropped"),
    ("!", "fault fired"),
)
_PRIORITY = {glyph: rank for rank, (glyph, _) in enumerate(_GLYPHS)}

_EVENT_GLYPH = {
    "window.sensed": "a",
    "nvp.burst": "a",
    "inference.aborted": "x",
    "inference.completed": "C",
    "message.dropped": "d",
    "fault.fired": "!",
}


def split_runs(events: Sequence[TraceEvent]) -> List[List[TraceEvent]]:
    """Partition a trace into runs at ``run.started`` boundaries.

    Events before the first ``run.started`` (if any) are attached to the
    first run.
    """
    runs: List[List[TraceEvent]] = []
    current: List[TraceEvent] = []
    for event in events:
        if event.kind == "run.started" and current:
            runs.append(current)
            current = []
        current.append(event)
    if current:
        runs.append(current)
    return runs


def _run_header(run_events: Sequence[TraceEvent]) -> Dict[str, Any]:
    for event in run_events:
        if event.kind == "run.started":
            return dict(event.payload)
    return {}


def _timeline_rows(
    run_events: Sequence[TraceEvent], n_slots: int, width: int
) -> List[str]:
    """Per-node (plus host-vote) timeline strips, downsampled to width."""
    node_ids = sorted(
        {e.node_id for e in run_events if e.node_id is not None}
    )
    grid: Dict[int, List[str]] = {nid: ["."] * n_slots for nid in node_ids}
    votes = [" "] * n_slots
    for event in run_events:
        if event.slot is None or not (0 <= event.slot < n_slots):
            continue
        if event.kind == "vote.cast":
            votes[event.slot] = "V"
            continue
        glyph = _EVENT_GLYPH.get(event.kind)
        if glyph is None or event.node_id is None:
            continue
        row = grid[event.node_id]
        if _PRIORITY[glyph] > _PRIORITY[row[event.slot]]:
            row[event.slot] = glyph

    def compress(cells: List[str]) -> str:
        if n_slots <= width:
            return "".join(cells)
        # Downsample: each output column shows the highest-priority
        # glyph of its slot bucket.
        out = []
        for col in range(width):
            lo = col * n_slots // width
            hi = max(lo + 1, (col + 1) * n_slots // width)
            bucket = cells[lo:hi]
            out.append(max(bucket, key=lambda c: _PRIORITY.get(c, -1)))
        return "".join(out)

    rows = [f"  node {nid:<3d} |{compress(grid[nid])}|" for nid in node_ids]
    if any(cell != " " for cell in votes):
        rows.append(f"  host     |{compress(votes)}|")
    return rows


def _fault_ledger(run_events: Sequence[TraceEvent]) -> List[str]:
    lines = []
    for event in run_events:
        if event.kind != "fault.fired":
            continue
        where = f"node {event.node_id}" if event.node_id is not None else "host"
        lines.append(
            f"  slot {event.slot:>5}  {where:<8}  {event.payload.get('fault')}"
        )
    return lines


def _store_line(exported: Dict[str, Any]) -> Optional[str]:
    """One-line artifact-store summary, or ``None`` if no store traffic."""
    counters = exported["counters"]
    hits = int(counters.get("store.hit", 0))
    misses = int(counters.get("store.miss", 0))
    if not hits and not misses:
        return None
    parts = [f"artifact store: {hits} hit(s), {misses} miss(es)"]
    digest_hits = int(counters.get("store.digests.hit", 0))
    digest_misses = int(counters.get("store.digests.miss", 0))
    if digest_hits or digest_misses:
        # A digests miss is a build that synthesized its splits.
        parts.append(f"split digests {digest_hits} hit(s) / {digest_misses} miss(es)")
    rebuilds = int(counters.get("store.rebuild", 0))
    if rebuilds:
        parts.append(f"{rebuilds} corrupt rebuild(s)")
    timers = exported["timers"]
    for timer_name, label in (("store.load", "load"), ("store.build", "build")):
        stat = timers.get(timer_name)
        if stat and stat["calls"]:
            parts.append(f"{label} {stat['total_s']:.2f} s")
    return ", ".join(parts)


def _resilience_line(exported: Dict[str, Any]) -> Optional[str]:
    """One-line supervision summary, or ``None`` for an incident-free run."""
    counters = exported["counters"]
    parts = []
    for name, label in (
        ("resilience.crashes", "crash(es)"),
        ("resilience.timeouts", "timeout(s)"),
        ("resilience.task_errors", "task error(s)"),
        ("resilience.retries", "retry(ies)"),
        ("resilience.requeued", "requeue(s)"),
        ("resilience.pool_restarts", "pool restart(s)"),
        ("resilience.giveups", "giveup(s)"),
        ("resilience.journal.hit", "journal hit(s)"),
    ):
        value = int(counters.get(name, 0))
        if value:
            parts.append(f"{value} {label}")
    if not parts:
        return None
    return "resilience: " + ", ".join(parts)


def _fleet_line(exported: Dict[str, Any]) -> Optional[str]:
    """One-line fleet summary, or ``None`` if no fleet ran."""
    counters = exported["counters"]
    users = int(counters.get("fleet.users", 0))
    shards = int(counters.get("fleet.shards", 0))
    if not users and not shards:
        return None
    parts = [f"fleet: {users} user(s) over {shards} shard(s)"]
    hits = int(counters.get("fleet.journal.hit", 0))
    if hits:
        parts.append(f"{hits} journal hit(s)")
    lost = int(counters.get("fleet.failed_shards", 0))
    if lost:
        parts.append(f"{lost} failed shard(s)")
    timer = exported["timers"].get("fleet.run")
    if timer and timer["total_s"] > 0:
        parts.append(f"{users / timer['total_s']:,.0f} users/s")
    return ", ".join(parts)


def fleet_journal_lines(path: str) -> List[str]:
    """Fleet progress read straight from a shard journal (read-only).

    Works mid-flight: the journal is read up to its torn tail, as the
    watcher and a resume read it.
    """
    from repro.obs.watch import _shard_span
    from repro.resilience.journal import read_journal

    cells = read_journal(path)[1]
    spans = [span for span in map(_shard_span, cells) if span is not None]
    users = sum(hi - lo for lo, hi in spans)
    lines = [
        f"fleet journal: {len(spans)} shard(s) checkpointed, {users} user(s)"
    ]
    other = len(cells) - len(spans)
    if other:
        lines.append(f"  plus {other} non-shard cell(s) (sweep journal?)")
    return lines


def timeseries_lines(path: str) -> List[str]:
    """Summary of a :mod:`repro.obs.timeline` stream."""
    from repro.obs.timeline import _rate_from_samples, read_timeseries

    header, samples, marks = read_timeseries(path)
    span = float(samples[-1]["t_s"]) - float(samples[0]["t_s"]) if samples else 0.0
    lines = [
        f"timeseries: {len(samples)} sample(s), {len(marks)} mark(s) "
        f"over {span:.1f} s"
    ]
    if samples:
        final = samples[-1]["counters"]
        for name, label in (
            ("fleet.progress.users", "users/s"),
            ("sweep.progress.cells", "cells/s"),
        ):
            if name in final:
                rate = _rate_from_samples(samples, name)
                lines.append(f"  {name}: {final[name]:g} total, {rate:.1f} {label}")
    for mark in marks[-3:]:
        lines.append(f"  mark {mark['t_s']:.1f}s: {mark['label']}")
    return lines


def _metrics_section(metrics: MetricsRegistry, top: int = 10) -> List[str]:
    exported = metrics.to_dict()
    lines: List[str] = []
    store = _store_line(exported)
    if store is not None:
        lines.append(store)
    resilience = _resilience_line(exported)
    if resilience is not None:
        lines.append(resilience)
    fleet = _fleet_line(exported)
    if fleet is not None:
        lines.append(fleet)
    timers = exported["timers"]
    if timers:
        lines.append("top timers (by total wall time):")
        ranked = sorted(timers.items(), key=lambda kv: -kv[1]["total_s"])[:top]
        for name, stat in ranked:
            mean_ms = stat["total_s"] / stat["calls"] * 1e3 if stat["calls"] else 0.0
            lines.append(
                f"  {name:<28} {stat['calls']:>8} calls  "
                f"{stat['total_s']:>9.3f} s total  {mean_ms:>8.3f} ms/call"
            )
    counters = exported["counters"]
    headline = {
        name: value
        for name, value in counters.items()
        if name.startswith(("sim.", "faults.", "store.", "resilience.", "fleet."))
    }
    if headline:
        lines.append("counters:")
        for name, value in headline.items():
            rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<28} {rendered}")
    histograms = exported["histograms"]
    if histograms:
        lines.append("histograms:")
        for name, spec in histograms.items():
            lines.append(
                f"  {name:<28} n={spec['count']} mean="
                f"{(spec['total'] / spec['count']) if spec['count'] else 0.0:.2f} "
                f"min={spec['min']} max={spec['max']}"
            )
    return lines


def render_report(
    header: Dict[str, Any],
    events: Sequence[TraceEvent],
    *,
    metrics: Optional[MetricsRegistry] = None,
    run_index: Optional[int] = None,
    width: int = 100,
) -> str:
    """The full text report for one trace."""
    lines = [
        f"trace report — schema v{header.get('schema_version')}, "
        f"{len(events)} events"
    ]
    meta = header.get("meta") or {}
    if meta:
        lines.append("meta: " + json.dumps(meta, sort_keys=True))

    runs = split_runs(list(events))
    if runs:
        lines.append("")
        lines.append(f"runs in trace: {len(runs)}")
        for index, run_events in enumerate(runs):
            info = _run_header(run_events)
            lines.append(
                f"  #{index}  policy={info.get('policy', '?'):<14} "
                f"seed={info.get('seed', '?')}  "
                f"n_windows={info.get('n_windows', '?')}"
            )
        selected = range(len(runs)) if run_index is None else [run_index]
        for index in selected:
            if not 0 <= index < len(runs):
                raise IndexError(
                    f"trace has {len(runs)} run(s); --run {index} is out of range"
                )
            run_events = runs[index]
            info = _run_header(run_events)
            n_slots = int(info.get("n_windows") or 0)
            if not n_slots:
                n_slots = 1 + max(
                    (e.slot for e in run_events if e.slot is not None), default=0
                )
            lines.append("")
            lines.append(
                f"run #{index}: {info.get('policy', '?')} "
                f"(seed {info.get('seed', '?')}, {n_slots} slots)"
            )
            lines.extend(_timeline_rows(run_events, n_slots, width))
            lines.append(
                "  legend: "
                + "  ".join(f"{glyph}={label}" for glyph, label in _GLYPHS[1:])
                + "  V=vote cast"
            )
            ledger = _fault_ledger(run_events)
            if ledger:
                lines.append("fault ledger:")
                lines.extend(ledger)
    else:
        lines.append("(no events)")

    if metrics is not None:
        lines.append("")
        lines.extend(_metrics_section(metrics))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.summarize", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="JSONL trace written by Tracer.write_jsonl (optional with "
        "--metrics/--fleet-journal/--timeseries)",
    )
    parser.add_argument(
        "--metrics", default=None, help="metrics snapshot JSON (Observability.export)"
    )
    parser.add_argument(
        "--run", type=int, default=None, help="render only this run's timeline"
    )
    parser.add_argument("--width", type=int, default=100, help="timeline columns")
    parser.add_argument(
        "--fleet-journal", default=None, help="fleet shard journal to report on"
    )
    parser.add_argument(
        "--timeseries", default=None, help="timeseries.jsonl stream to report on"
    )
    parser.add_argument(
        "--output", default=None, help="also write the report to this file"
    )
    args = parser.parse_args(argv)
    if args.trace is None and not (
        args.metrics or args.fleet_journal or args.timeseries
    ):
        parser.error(
            "give a trace, or at least one of "
            "--metrics/--fleet-journal/--timeseries"
        )

    metrics = None
    if args.metrics is not None:
        with open(args.metrics) as handle:
            metrics = MetricsRegistry.from_dict(json.load(handle))
    sections: List[str] = []
    if args.trace is not None:
        header, events = read_trace(args.trace)
        sections.append(
            render_report(
                header, events, metrics=metrics, run_index=args.run,
                width=args.width,
            )
        )
    elif metrics is not None:
        sections.append("metrics report\n" + "\n".join(_metrics_section(metrics)))
    if args.fleet_journal is not None:
        sections.append("\n".join(fleet_journal_lines(args.fleet_journal)))
    if args.timeseries is not None:
        sections.append("\n".join(timeseries_lines(args.timeseries)))
    report = "\n\n".join(sections)
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
