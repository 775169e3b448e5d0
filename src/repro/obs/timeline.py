"""Streaming time-series metrics: live snapshots of a running job.

A :class:`TimeSeriesRecorder` turns the end-of-run
:class:`~repro.obs.metrics.MetricsRegistry` snapshot into a *stream*:
on a wall-clock cadence (and at forced lifecycle points) it captures the
registry's cumulative counters, the per-interval deltas and the current
gauges, keeps the most recent samples in a bounded ring buffer, and
appends each sample as a schema-versioned JSONL record to
``timeseries.jsonl`` — the file ``python -m repro.obs.watch`` tails to
render a live dashboard of an in-flight fleet run or sweep.

The stream reuses the trace file envelope: the first line is the
standard :data:`~repro.obs.schema.HEADER_KIND` header stamped with
:data:`~repro.obs.schema.TRACE_SCHEMA_VERSION`, and every record is a
registered event kind (``timeseries.sample`` / ``timeseries.mark``,
schema v2).  ``read_timeseries`` is therefore tolerant of exactly the
failure a live stream has: a torn final line (the writer died or is
mid-append) is skipped, never fatal.

Emission points are guarded the same way as every other ``repro.obs``
site: callers hold an :class:`~repro.obs.observer.Observability` whose
``timeseries`` attribute is ``None`` by default, so traced-off runs do
no extra work and stay byte-identical.  Recording never reaches into
the simulation — the recorder only *reads* the registry — so a recorded
run's results are byte-identical to an unrecorded one by construction
(asserted by the test suite and the ``benchmarks/bench_perf_sweep.py``
overhead gate, which runs the traced leg with a recorder attached).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observability
from repro.obs.schema import (
    HEADER_KIND,
    SCHEMA_CHANGELOG,
    TRACE_SCHEMA_VERSION,
    validate_event,
)

__all__ = [
    "TimeSeriesRecorder",
    "TimeSeriesTail",
    "attach_recorder",
    "read_timeseries",
    "SAMPLE_KIND",
    "MARK_KIND",
]

SAMPLE_KIND = "timeseries.sample"
MARK_KIND = "timeseries.mark"

#: Default minimum seconds between periodic samples.
DEFAULT_INTERVAL_S = 1.0

#: Default ring-buffer capacity (samples retained in memory for rate
#: computations and programmatic access; the file keeps everything).
DEFAULT_WINDOW = 256


class TimeSeriesRecorder:
    """Cadenced metrics snapshots, ring-buffered and streamed to JSONL.

    Parameters
    ----------
    metrics:
        The registry to snapshot.  The recorder only reads it.
    path:
        JSONL destination.  The header is written immediately so a
        watcher can attach before the first sample lands.
    interval_s:
        Minimum seconds between periodic samples; :meth:`sample` calls
        inside the interval are no-ops (cheap: one clock read and a
        compare), so emission points can call it as often as they like.
    window:
        Ring-buffer capacity — how many recent samples stay available
        via :attr:`recent` after they have been flushed to disk.
    flush_every:
        Samples per disk flush.  The default (1) makes every sample
        immediately visible to a tailing watcher; larger values batch
        writes for very hot cadences.
    meta:
        Extra header metadata (job name, cohort size, ...).
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        path: str,
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        window: int = DEFAULT_WINDOW,
        flush_every: int = 1,
        meta: Optional[Dict[str, Any]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s < 0:
            raise ObservabilityError(f"interval_s must be >= 0, got {interval_s}")
        if window < 1:
            raise ObservabilityError(f"window must be >= 1, got {window}")
        if flush_every < 1:
            raise ObservabilityError(f"flush_every must be >= 1, got {flush_every}")
        self.metrics = metrics
        self.path = os.fspath(path)
        self.interval_s = float(interval_s)
        self.flush_every = int(flush_every)
        self._clock = clock
        self._start = clock()
        self._last_sample_t: Optional[float] = None
        self._last_counters: Dict[str, float] = {}
        self._seq = 0
        self._unflushed = 0
        self.samples_written = 0
        self.marks_written = 0
        #: Ring buffer of the most recent sample payloads (marks excluded).
        self.recent: Deque[Dict[str, Any]] = deque(maxlen=int(window))
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._handle: Optional[Any] = open(self.path, "w")
        self._handle.write(
            json.dumps(
                {
                    "kind": HEADER_KIND,
                    "schema_version": TRACE_SCHEMA_VERSION,
                    "meta": dict(meta or {}),
                }
            )
            + "\n"
        )
        self._handle.flush()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the stream has been closed (no further records)."""
        return self._handle is None

    def due(self) -> bool:
        """Whether enough wall time has passed for a periodic sample."""
        if self._last_sample_t is None:
            return True
        return self._clock() - self._last_sample_t >= self.interval_s

    def sample(self, *, force: bool = False) -> bool:
        """Snapshot the registry if the cadence allows (or ``force``).

        Returns whether a sample was emitted.  The payload carries
        ``t_s`` (seconds since the recorder started), ``unix_s`` (wall
        clock, so watchers can age the stream), the full cumulative
        ``counters`` dict, the per-interval ``delta`` (changed counters
        only) and the current ``gauges``.
        """
        if self._handle is None:
            return False
        now = self._clock()
        if not force and self._last_sample_t is not None:
            if now - self._last_sample_t < self.interval_s:
                return False
        exported = self.metrics.to_dict()
        counters = exported["counters"]
        delta = {
            name: value - self._last_counters.get(name, 0.0)
            for name, value in counters.items()
            if value != self._last_counters.get(name, 0.0)
        }
        payload: Dict[str, Any] = {
            "t_s": round(now - self._start, 6),
            "unix_s": round(time.time(), 3),
            "counters": counters,
            "delta": delta,
            "gauges": exported["gauges"],
        }
        self._last_sample_t = now
        self._last_counters = dict(counters)
        self.recent.append(payload)
        self._write(SAMPLE_KIND, payload)
        self.samples_written += 1
        return True

    def mark(self, label: str, **fields: Any) -> None:
        """Emit a labelled lifecycle point (shard done, retry, ...).

        Marks bypass the cadence — they are rare and anchor the sample
        stream to job structure.
        """
        if self._handle is None:
            return
        payload: Dict[str, Any] = {
            "t_s": round(self._clock() - self._start, 6),
            "unix_s": round(time.time(), 3),
            "label": str(label),
        }
        payload.update(fields)
        self._write(MARK_KIND, payload)
        self.marks_written += 1

    def _write(self, kind: str, payload: Dict[str, Any]) -> None:
        validate_event(kind, payload)
        record = {
            "seq": self._seq,
            "kind": kind,
            "slot": None,
            "node": None,
            "payload": payload,
        }
        self._seq += 1
        self._handle.write(json.dumps(record) + "\n")
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self._handle.flush()
            self._unflushed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Push any buffered records to disk."""
        if self._handle is not None:
            self._handle.flush()
            self._unflushed = 0

    def close(self, *, final_sample: bool = True) -> None:
        """Emit one last (forced) sample, flush and release the file."""
        if self._handle is None:
            return
        if final_sample:
            self.sample(force=True)
        handle, self._handle = self._handle, None
        handle.flush()
        handle.close()

    def __enter__(self) -> "TimeSeriesRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # in-memory rates (the watcher computes these from the file)
    # ------------------------------------------------------------------

    def rate(self, counter: str, *, span: int = 0) -> float:
        """Per-second rate of one counter over the ring buffer.

        ``span`` limits the lookback to the most recent N samples
        (0 = the whole buffer).  0.0 when fewer than two samples exist
        or no time has passed.
        """
        samples = list(self.recent)
        if span:
            samples = samples[-span:]
        return _rate_from_samples(samples, counter)


def _rate_from_samples(samples: List[Dict[str, Any]], counter: str) -> float:
    """Per-second rate of ``counter`` across ordered sample payloads."""
    if len(samples) < 2:
        return 0.0
    first, last = samples[0], samples[-1]
    elapsed = float(last["t_s"]) - float(first["t_s"])
    if elapsed <= 0:
        return 0.0
    moved = float(last["counters"].get(counter, 0.0)) - float(
        first["counters"].get(counter, 0.0)
    )
    return moved / elapsed


def attach_recorder(
    obs: Observability, path: str, **kwargs: Any
) -> TimeSeriesRecorder:
    """Create a recorder over ``obs.metrics`` and install it on ``obs``.

    The standard way to arm a job for live watching::

        obs = Observability()
        recorder = attach_recorder(obs, run_dir / "timeseries.jsonl")
        runner.run(obs=obs, journal=run_dir / "fleet.journal")
        recorder.close()
    """
    if not obs.enabled:
        raise ObservabilityError(
            "cannot attach a TimeSeriesRecorder to a disabled Observability "
            "(NULL_OBS); build a live Observability() first"
        )
    recorder = TimeSeriesRecorder(obs.metrics, path, **kwargs)
    obs.timeseries = recorder
    return recorder


class TimeSeriesTail:
    """Incremental, offset-resumable reader over a (live) stream.

    A dashboard refreshing every couple of seconds over an hours-long
    stream must not re-read and re-parse the whole file per frame.  A
    tail remembers the byte offset of the last *complete* line it
    consumed and each :meth:`poll` reads only what the writer appended
    since — O(new bytes), not O(file) — accumulating the decoded
    payloads in :attr:`samples` / :attr:`marks`.

    Same tolerance contract as the batch reader: a torn final line
    (the writer is mid-append, or died there) is left unread until a
    newline lands behind it; interior lines that fail to parse are
    skipped.  A file that shrinks under the tail (truncated or swapped
    by a restarted writer) resets the tail to re-read from the top.
    The header is validated once, on its first complete appearance;
    a missing-on-disk file polls as "nothing yet", never raises.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        #: The stream header record (``None`` until it lands complete).
        self.header: Optional[Dict[str, Any]] = None
        #: All sample payloads consumed so far, in file order.
        self.samples: List[Dict[str, Any]] = []
        #: All mark payloads consumed so far, in file order.
        self.marks: List[Dict[str, Any]] = []
        self._offset = 0

    @property
    def offset(self) -> int:
        """Byte offset of the next unread complete line."""
        return self._offset

    def reset(self) -> None:
        """Forget everything and re-read from the top on the next poll."""
        self.header = None
        self.samples = []
        self.marks = []
        self._offset = 0

    def poll(self) -> int:
        """Consume newly appended complete records; returns how many.

        Raises :class:`ObservabilityError` if the stream's first
        complete line is not a valid header (wrong kind, unknown schema
        version) — the file is not a timeseries stream.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0  # not written yet (or gone): nothing to consume
        if size < self._offset:
            self.reset()  # truncated or swapped: start over
        if size <= self._offset:
            return 0
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read(size - self._offset)
        end = chunk.rfind(b"\n")
        if end < 0:
            return 0  # only a torn tail so far
        self._offset += end + 1
        consumed = 0
        for raw in chunk[: end + 1].split(b"\n"):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue  # interior corruption: keep what parses
            if self.header is None:
                self._ingest_header(record)
                continue
            kind = record.get("kind")
            payload = record.get("payload") or {}
            if kind == SAMPLE_KIND:
                validate_event(kind, payload)
                self.samples.append(payload)
                consumed += 1
            elif kind == MARK_KIND:
                validate_event(kind, payload)
                self.marks.append(payload)
                consumed += 1
        return consumed

    def _ingest_header(self, record: Dict[str, Any]) -> None:
        if record.get("kind") != HEADER_KIND:
            raise ObservabilityError(
                f"{self.path} does not start with a {HEADER_KIND!r} record "
                f"(got {record.get('kind')!r})"
            )
        version = record.get("schema_version")
        if version not in SCHEMA_CHANGELOG:
            raise ObservabilityError(
                f"{self.path} uses trace schema version {version!r}, but "
                f"this build knows versions {sorted(SCHEMA_CHANGELOG)}"
            )
        self.header = record


def read_timeseries(
    path: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Read a timeseries stream: ``(header, samples, marks)``.

    One-shot form of :class:`TimeSeriesTail` (which live watchers keep
    across frames to avoid re-parsing): a torn final line is skipped
    silently and every complete record is schema-validated.  Raises
    :class:`ObservabilityError` for a missing header or an unknown
    schema version, and the usual :class:`OSError` for a missing file.
    """
    with open(path):
        pass  # surface the missing-file OSError the batch API promises
    tail = TimeSeriesTail(path)
    tail.poll()
    if tail.header is None:
        raise ObservabilityError(f"{path} is empty, not a timeseries stream")
    return tail.header, tail.samples, tail.marks
