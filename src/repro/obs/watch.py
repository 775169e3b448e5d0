"""Live terminal dashboard over an in-flight run directory.

::

    python -m repro.obs.watch runs/cohort-a            # refreshing dashboard
    python -m repro.obs.watch runs/cohort-a --once     # one frame (CI, non-TTY)

The watcher tails the two files a ``--run-dir``-armed job streams —
the shard journal (``fleet.journal`` / ``sweep.journal``) and the
timeseries (``timeseries.jsonl``) — and renders shard progress, users/s,
ETA, worker health and incident counters.  It is strictly **read-only**:
both files are parsed in place (the journal by
:func:`~repro.resilience.journal.read_journal`, never through
``SweepJournal.open``, which holds an append handle and truncates torn
tails), so attaching and detaching mid-run cannot perturb the run.  The
journal counts the cells a resume would keep: reading stops at a torn
tail (the writer is mid-append, or died there) or at any line that does
not parse.  A directory with no files yet renders a waiting frame.

A frame, mid-flight::

    fleet run · runs/cohort-a
    job       users=2000 dataset=mhealth policy=origin workers=4
    progress  [######################------------------------]  1024/2000 users (51.2%)
    shards    4/8 done (0 from journal)
    rate      171.4 users/s   ETA 6s   stream age 0.4s
    workers   heartbeat #9 · in-flight 4 · queue 2
    incidents retries=1 crashes=0 timeouts=0 giveups=0
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.timeline import TimeSeriesTail, _rate_from_samples
from repro.resilience.journal import read_journal

__all__ = ["RunSnapshot", "snapshot_run_dir", "render_frame", "main"]

#: Journal file names probed (in order) inside a run directory.
JOURNAL_NAMES = ("fleet.journal", "sweep.journal")

#: Seconds after which a silent timeseries stream is flagged stale.
STALE_AFTER_S = 10.0

#: Samples of lookback for the rate estimate (recent, not lifetime).
RATE_SPAN = 32

_BAR_WIDTH = 46

#: Incident counters surfaced on the dashboard, in display order.
_INCIDENTS = (
    "resilience.retries",
    "resilience.crashes",
    "resilience.timeouts",
    "resilience.giveups",
    "resilience.requeued",
    "resilience.pool_restarts",
)


@dataclass
class RunSnapshot:
    """Everything one dashboard frame needs, parsed read-only."""

    run_dir: str
    journal_path: Optional[str] = None
    journal_cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    ts_meta: Dict[str, Any] = field(default_factory=dict)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    marks: List[Dict[str, Any]] = field(default_factory=list)

    # -- journal-derived progress --------------------------------------

    @property
    def done_shards(self) -> int:
        return sum(1 for cell in self.journal_cells if cell.startswith("shard:"))

    @property
    def done_users(self) -> int:
        total = 0
        for cell in self.journal_cells:
            span = _shard_span(cell)
            if span is not None:
                total += span[1] - span[0]
        return total

    @property
    def done_cells(self) -> int:
        """Sweep-journal cells (``policy:``/``baseline:``) completed."""
        return sum(
            1
            for cell in self.journal_cells
            if cell.startswith(("policy:", "baseline:"))
        )

    # -- timeseries-derived state --------------------------------------

    @property
    def latest(self) -> Optional[Dict[str, Any]]:
        return self.samples[-1] if self.samples else None

    def counter(self, name: str) -> float:
        latest = self.latest
        if latest is None:
            return 0.0
        return float(latest["counters"].get(name, 0.0))

    def gauge(self, name: str) -> Optional[float]:
        latest = self.latest
        if latest is None:
            return None
        value = latest.get("gauges", {}).get(name)
        return None if value is None else float(value)

    def rate(self, name: str, *, span: int = RATE_SPAN) -> float:
        return _rate_from_samples(self.samples[-span:], name)

    @property
    def stream_age_s(self) -> Optional[float]:
        latest = self.latest
        if latest is None or "unix_s" not in latest:
            return None
        return max(0.0, time.time() - float(latest["unix_s"]))

    @property
    def finished(self) -> bool:
        return any(
            mark.get("label")
            in ("fleet.run.finished", "sweep.run.finished", "serve.run.finished")
            for mark in self.marks
        )


def _shard_span(cell: str) -> Optional[Tuple[int, int]]:
    """``"shard:lo-hi"`` → ``(lo, hi)``, else ``None``."""
    if not cell.startswith("shard:"):
        return None
    try:
        lo, hi = cell[len("shard:"):].split("-", 1)
        return int(lo), int(hi)
    except ValueError:
        return None


def snapshot_run_dir(
    run_dir: str,
    *,
    journal: Optional[str] = None,
    timeseries: Optional[str] = None,
    tail: Optional[TimeSeriesTail] = None,
) -> RunSnapshot:
    """One read-only parse of a run directory's observable state.

    Pass a persistent :class:`~repro.obs.timeline.TimeSeriesTail` (as
    the refreshing watch loop does) to read only the bytes appended
    since the previous frame instead of re-parsing the whole stream;
    without one, a throwaway tail reads the file from the top.
    """
    if not os.path.isdir(run_dir):
        raise ObservabilityError(f"{run_dir!r} is not a directory")
    snapshot = RunSnapshot(run_dir=run_dir)

    journal_path = journal
    if journal_path is None:
        for name in JOURNAL_NAMES:
            candidate = os.path.join(run_dir, name)
            if os.path.exists(candidate):
                journal_path = candidate
                break
    if journal_path is not None and os.path.exists(journal_path):
        snapshot.journal_path = journal_path
        snapshot.journal_cells = read_journal(journal_path)[1]

    if tail is None:
        tail = TimeSeriesTail(
            timeseries or os.path.join(run_dir, "timeseries.jsonl")
        )
    try:
        tail.poll()
    except ObservabilityError:
        pass  # header not landed (or not a stream) yet: waiting frame
    if tail.header is not None:
        snapshot.ts_meta = tail.header.get("meta", {})
        snapshot.samples = tail.samples
        snapshot.marks = tail.marks
    return snapshot


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _eta(remaining: float, rate: float) -> str:
    if rate <= 0 or remaining <= 0:
        return "--"
    seconds = remaining / rate
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render_frame(snapshot: RunSnapshot) -> str:
    """Render one dashboard frame (pure text — also the ``--once`` body)."""
    lines: List[str] = []
    job = snapshot.ts_meta.get("job", "run")
    lines.append(f"{job} run · {snapshot.run_dir}")
    if snapshot.ts_meta:
        detail = " ".join(
            f"{key}={snapshot.ts_meta[key]}"
            for key in sorted(snapshot.ts_meta)
            if key != "job"
        )
        if detail:
            lines.append(f"job       {detail}")

    if not snapshot.samples and not snapshot.journal_cells:
        lines.append("waiting   no journal or timeseries yet — is the run up?")
        return "\n".join(lines)

    if job == "serve":
        active = snapshot.gauge("serve.sessions.active")
        lines.append(
            f"sessions  active {int(active) if active is not None else 0}"
            f" · opened {int(snapshot.counter('serve.sessions.opened'))}"
            f" · closed {int(snapshot.counter('serve.sessions.closed'))}"
        )
        age = snapshot.stream_age_s
        age_part = f"   stream age {age:.1f}s" if age is not None else ""
        lines.append(
            f"windows   {int(snapshot.counter('serve.windows'))} ingested   "
            f"{snapshot.rate('serve.windows'):.1f}/s{age_part}"
        )
        shed = int(snapshot.counter("serve.windows.shed"))
        lines.append(
            f"decisions {int(snapshot.counter('serve.decisions'))}"
            + (f" · shed {shed}" if shed else "")
        )

    total_users = snapshot.gauge("fleet.total_users")
    total_shards = snapshot.gauge("fleet.total_shards")
    total_cells = snapshot.gauge("sweep.total_cells")
    done_users = snapshot.done_users
    done_shards = snapshot.done_shards
    done_cells = snapshot.done_cells
    if not snapshot.journal_cells:
        # No journal: fall back to the progress counters.  These count
        # simulated work only, so a resumed run reads lower here.
        done_users = int(snapshot.counter("fleet.progress.users"))
        done_shards = int(snapshot.counter("fleet.progress.shards"))
        done_cells = int(snapshot.counter("sweep.progress.cells"))

    if total_users and total_users > 0:
        fraction = done_users / total_users
        lines.append(
            f"progress  {_bar(fraction)}  "
            f"{done_users}/{int(total_users)} users ({100 * fraction:.1f}%)"
        )
        hits = int(snapshot.counter("fleet.journal.hit"))
        shard_total = f"/{int(total_shards)}" if total_shards else ""
        lines.append(
            f"shards    {done_shards}{shard_total} done ({hits} from journal)"
        )
        rate = snapshot.rate("fleet.progress.users")
        eta = _eta(total_users - done_users, rate)
        age = snapshot.stream_age_s
        age_part = f"   stream age {age:.1f}s" if age is not None else ""
        lines.append(f"rate      {rate:.1f} users/s   ETA {eta}{age_part}")
    elif done_cells or total_cells:
        cell_total = f"/{int(total_cells)}" if total_cells else ""
        fraction = done_cells / total_cells if total_cells else 0.0
        lines.append(
            f"progress  {_bar(fraction)}  {done_cells}{cell_total} cells"
            + (f" ({100 * fraction:.1f}%)" if total_cells else "")
        )
        rate = snapshot.rate("sweep.progress.cells")
        eta = _eta((total_cells or 0) - done_cells, rate)
        lines.append(f"rate      {rate:.2f} cells/s   ETA {eta}")

    beat = snapshot.gauge("resilience.heartbeat")
    if beat is not None:
        inflight = snapshot.gauge("resilience.inflight")
        queue = snapshot.gauge("resilience.queue_depth")
        lines.append(
            f"workers   heartbeat #{int(beat)}"
            + (f" · in-flight {int(inflight)}" if inflight is not None else "")
            + (f" · queue {int(queue)}" if queue is not None else "")
        )

    age = snapshot.stream_age_s
    if snapshot.finished:
        lines.append("state     finished")
    elif age is not None and age > STALE_AFTER_S:
        lines.append(
            f"state     STALE — no sample for {age:.0f}s "
            f"(writer hung, crashed, or just done?)"
        )

    incidents = [
        f"{name.split('.', 1)[1]}={int(snapshot.counter(name))}"
        for name in _INCIDENTS
        if snapshot.counter(name) > 0
    ]
    lines.append(
        "incidents " + (" ".join(incidents) if incidents else "none")
    )

    recent_marks = snapshot.marks[-3:]
    if recent_marks:
        rendered = " · ".join(
            f"{mark['t_s']:.1f}s {mark['label']}" for mark in recent_marks
        )
        lines.append(f"marks     {rendered}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Live dashboard over an in-flight run directory.",
    )
    parser.add_argument("run_dir", help="directory with journal + timeseries")
    parser.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh seconds"
    )
    parser.add_argument(
        "--journal", default=None, help="journal path (default: autodetect)"
    )
    parser.add_argument(
        "--timeseries",
        default=None,
        help="timeseries path (default: RUN_DIR/timeseries.jsonl)",
    )
    args = parser.parse_args(argv)

    # One tail across frames: each refresh reads only the bytes the
    # writer appended since the previous frame.
    tail = TimeSeriesTail(
        args.timeseries or os.path.join(args.run_dir, "timeseries.jsonl")
    )

    def frame() -> str:
        snapshot = snapshot_run_dir(args.run_dir, journal=args.journal, tail=tail)
        return render_frame(snapshot)

    try:
        if args.once:
            print(frame())
            return 0
        use_ansi = sys.stdout.isatty()
        while True:
            text = frame()
            if use_ansi:
                # Clear + home; the frame fully repaints the screen.
                sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
                sys.stdout.flush()
            else:
                print(text)
                print("--")
            time.sleep(args.interval)
    except ObservabilityError as error:
        print(f"error: {error}")
        return 1
    except KeyboardInterrupt:
        print()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
