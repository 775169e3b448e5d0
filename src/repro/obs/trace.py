"""Structured tracing: typed span/event records with JSONL export.

A :class:`Tracer` collects :class:`TraceEvent` records as the simulation
runs — which node the scheduler picked, each NVP burst's charge/progress
summary, when a result message was dropped, when a recalled vote went
stale — and serializes them to a schema-versioned JSONL file that
``python -m repro.obs.summarize`` (or any external tool) can replay.

The default everywhere is the :class:`NullTracer` singleton
(:data:`NULL_TRACER`): ``enabled`` is ``False``, ``emit`` is a no-op,
and every instrumentation site in the hot path guards on ``enabled``
before even building the payload, so untraced runs do no extra work and
stay bit-identical to the pre-instrumentation code.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.schema import (
    HEADER_KIND,
    SCHEMA_CHANGELOG,
    TRACE_SCHEMA_VERSION,
    validate_event,
)


class TraceEvent(NamedTuple):
    """One typed trace record.

    ``seq`` is the tracer-assigned emission index (total order within
    one trace); ``slot`` / ``node_id`` are ``None`` for events that are
    not slot- or node-scoped (e.g. run lifecycle).  A NamedTuple rather
    than a dataclass: emission is on the simulation hot path, and tuple
    construction is ~3x cheaper than a frozen dataclass's ``__init__``.
    """

    seq: int
    kind: str
    slot: Optional[int]
    node_id: Optional[int]
    payload: Dict[str, Any]

    def to_json(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL export."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "slot": self.slot,
            "node": self.node_id,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(record["seq"]),
            kind=str(record["kind"]),
            slot=record.get("slot"),
            node_id=record.get("node"),
            payload=dict(record.get("payload") or {}),
        )


class Tracer:
    """Collects typed events in emission order.

    Parameters
    ----------
    validate:
        Check every emit against the registered schema
        (:data:`repro.obs.schema.EVENT_KINDS`) at emission time.  Off by
        default to keep the hot path within the tracing overhead budget;
        schema conformance is still enforced at the serialization
        boundary — :func:`write_trace` and :func:`read_trace` validate
        every event — so a malformed emit cannot survive a round trip.
        Turn on in tests or when debugging a new instrumentation site to
        get the error at the source instead of at export.
    """

    enabled = True

    def __init__(self, *, validate: bool = False) -> None:
        # Raw (kind, slot, node_id, payload) tuples: emission happens a
        # few times per simulated slot, so the hot path appends a bare
        # tuple and the seq number is simply the list index, assigned
        # when ``events`` materializes the typed records.
        self._records: List[Tuple[str, Optional[int], Optional[int], Dict[str, Any]]] = []
        self.validate = bool(validate)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def events(self) -> List[TraceEvent]:
        """The typed records in emission order (materialized on demand)."""
        return [
            TraceEvent(seq, kind, slot, node_id, payload)
            for seq, (kind, slot, node_id, payload) in enumerate(self._records)
        ]

    def emit(
        self,
        kind: str,
        *,
        slot: Optional[int] = None,
        node_id: Optional[int] = None,
        **payload: Any,
    ) -> None:
        """Record one event (payload keys become the record's payload)."""
        if self.validate:
            validate_event(kind, payload)
        self._records.append((kind, slot, node_id, payload))

    def append(
        self,
        kind: str,
        slot: Optional[int],
        node_id: Optional[int],
        payload: Dict[str, Any],
    ) -> None:
        """Positional hot-path variant of :meth:`emit`.

        Skips keyword-argument parsing and per-emit validation; the
        caller supplies the payload dict directly.  Used by the per-slot
        instrumentation sites — schema conformance is still enforced
        when the trace is written or read.
        """
        self._records.append((kind, slot, node_id, payload))

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append foreign events (e.g. from a worker process), re-sequenced.

        The incoming events keep their relative order but get fresh
        ``seq`` numbers (their position in this tracer), so a parallel
        sweep's per-unit traces merge into one totally ordered trace.
        """
        self._records.extend(
            (event.kind, event.slot, event.node_id, event.payload) for event in events
        )

    def absorb(self, other: "Tracer") -> None:
        """Append every event of another tracer, in order.

        :meth:`extend` for a buffer in this process (one simulated run's
        trace): the records move over without being materialized.
        """
        self._records.extend(other._records)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        """Drop every recorded event."""
        self._records.clear()

    # ------------------------------------------------------------------
    # JSONL export
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str, *, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write header + events to ``path`` (one JSON object per line)."""
        write_trace(path, self.events, meta=meta)


class NullTracer(Tracer):
    """The zero-overhead default: records nothing, always disabled."""

    enabled = False

    def __init__(self) -> None:  # no buffers to allocate
        self._records = []
        self.validate = False

    def emit(self, kind: str, **_: Any) -> None:  # noqa: ARG002
        pass

    def append(self, kind: str, slot, node_id, payload) -> None:  # noqa: ARG002
        pass

    def extend(self, events: Iterable[TraceEvent]) -> None:  # noqa: ARG002
        pass

    def absorb(self, other: Tracer) -> None:  # noqa: ARG002
        pass


#: Shared no-op tracer; safe to use as a default everywhere.
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# file round-trip
# ---------------------------------------------------------------------------


def write_trace(
    path: str,
    events: Iterable[TraceEvent],
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a schema-versioned JSONL trace file.

    Every event is validated against the registered schema on the way
    out, so files on disk always conform even when the tracer skipped
    per-emit validation.
    """
    header = {
        "kind": HEADER_KIND,
        "schema_version": TRACE_SCHEMA_VERSION,
        "meta": meta or {},
    }
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for event in events:
            validate_event(event.kind, event.payload)
            handle.write(json.dumps(event.to_json()) + "\n")


def read_trace(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Read a JSONL trace; returns ``(header, events)``.

    Raises :class:`ObservabilityError` when the header is missing or the
    file was written by a schema version this build does not know.
    """
    with open(path) as handle:
        lines = [line for line in (raw.strip() for raw in handle) if line]
    if not lines:
        raise ObservabilityError(f"{path} is empty, not a trace file")
    header = json.loads(lines[0])
    if header.get("kind") != HEADER_KIND:
        raise ObservabilityError(
            f"{path} does not start with a {HEADER_KIND!r} record "
            f"(got {header.get('kind')!r})"
        )
    version = header.get("schema_version")
    if version not in SCHEMA_CHANGELOG:
        raise ObservabilityError(
            f"{path} uses trace schema version {version!r}, but this build "
            f"knows versions {sorted(SCHEMA_CHANGELOG)}"
        )
    events = [TraceEvent.from_json(json.loads(line)) for line in lines[1:]]
    for event in events:
        validate_event(event.kind, event.payload)
    return header, events
