"""Wire protocol for the online serving path.

Frames are length-prefixed JSON: a 4-byte big-endian payload size
followed by a UTF-8 JSON object.  JSON keeps the stream debuggable
(``nc`` + eyeballs) and — because python's ``json`` round-trips floats
through the shortest-repr algorithm — *exact*: an energy value decoded
on the server compares equal to the float the device serialized, which
is what lets a served session reproduce an offline run bit for bit.

One exchange per scheduling slot::

    device                          server
    ------                          ------
    hello{profile, policy, seed,
          n_windows, states}   -->
                               <--  hello_ack{session, active}   (slot 0)
    window{slot=0, reports,
           states for slot 1}  -->
                               <--  decision{slot=0, label, shed,
                                             active_next}        (slot 1)
    ...
    window{slot=N-1, reports}  -->      (no next states: timeline over)
                               <--  decision{slot=N-1, ..., active_next=None}
    bye{}                      -->
                               <--  bye_ack{stats}

The decision frame piggybacks the *next* slot's active set, so steady
state costs one round-trip per slot.  Any protocol violation is answered
with an ``error`` frame and the connection closes.  Node states cross
the wire as ``{node_id: [energy, ready, online]}`` in deployment order;
the server reads them straight into the engine's ready/online flags
(:func:`flags_from_wire`).
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import NodeSlotState, WireReport
from repro.core.policies import AggregationMode, PolicySpec
from repro.errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "PREFIX_BYTES",
    "WireReport",
    "encode_frame",
    "decode_frame",
    "frame_length",
    "read_frame",
    "write_frame",
    "validate_frame",
    "integer_from_wire",
    "policy_to_wire",
    "policy_from_wire",
    "states_to_wire",
    "flags_from_wire",
    "report_to_wire",
    "report_from_wire",
]

#: Bump on any incompatible frame-layout change.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON payload.  A window frame carries at
#: most a handful of per-node reports and states — kilobytes — so any
#: larger length prefix is garbage (or an attack) and drops the session.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: Bytes of the length prefix in front of every frame's payload.
PREFIX_BYTES = _LENGTH.size

#: One compact encoder for every frame (``json.dumps`` would build one per call).
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: ``{frame type: required fields}`` (beyond ``type`` itself).
FRAME_FIELDS: Dict[str, Sequence[str]] = {
    "hello": ("version", "profile", "policy", "seed", "n_windows", "states"),
    "hello_ack": ("version", "session", "active"),
    "window": ("slot", "reports"),
    "decision": ("slot", "label", "shed", "active_next"),
    "bye": (),
    "bye_ack": ("stats",),
    "error": ("message",),
}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialize one frame to its on-wire bytes (prefix + JSON)."""
    payload = _ENCODER.encode(frame).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES="
            f"{MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def frame_length(data: bytes, offset: int = 0) -> int:
    """The payload length announced by the prefix at ``data[offset:]``.

    A length above :data:`MAX_FRAME_BYTES` is a :class:`ServeError`, so
    a reader can refuse the frame before buffering any of its payload.
    """
    (length,) = _LENGTH.unpack_from(data, offset)
    if length > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame length {length} exceeds MAX_FRAME_BYTES={MAX_FRAME_BYTES}"
        )
    return length


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Parse one frame's JSON payload (the bytes after the prefix).

    Bytes that are not UTF-8 JSON are a :class:`ServeError`, and so are
    the documents ``json`` refuses for size: an integer past python's
    digit limit (``ValueError``) or arrays nested past the recursion
    limit (``RecursionError``).
    """
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # UnicodeDecodeError and json.JSONDecodeError are ValueErrors.
        raise ServeError(f"undecodable frame: {error}") from None
    if not isinstance(frame, dict):
        raise ServeError(f"frame must be a JSON object, got {type(frame).__name__}")
    return frame


def validate_frame(
    frame: Dict[str, Any], expected_type: Optional[str] = None
) -> str:
    """Check a decoded frame's type and required fields; returns the type."""
    kind = frame.get("type")
    # An unhashable type (a list, an object) cannot be a dict key.
    if not isinstance(kind, str) or kind not in FRAME_FIELDS:
        raise ServeError(f"unknown frame type {kind!r}")
    if expected_type is not None and kind != expected_type:
        raise ServeError(f"expected a {expected_type!r} frame, got {kind!r}")
    missing = [name for name in FRAME_FIELDS[kind] if name not in frame]
    if missing:
        raise ServeError(f"{kind!r} frame is missing fields {missing}")
    return kind


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF before the prefix."""
    try:
        prefix = await reader.readexactly(PREFIX_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise ServeError("connection dropped mid-prefix") from None
    length = frame_length(prefix)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ServeError("connection dropped mid-frame") from None
    return decode_frame(payload)


async def write_frame(
    writer: asyncio.StreamWriter, frame: Dict[str, Any]
) -> None:
    """Serialize and send one frame, honouring transport backpressure."""
    writer.write(encode_frame(frame))
    await writer.drain()


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------


def policy_to_wire(spec: PolicySpec) -> Dict[str, Any]:
    """A :class:`PolicySpec` as a wire dict."""
    return {
        "name": spec.name,
        "rr_length": spec.rr_length,
        "activity_aware": spec.activity_aware,
        "aggregation": spec.aggregation.value,
        "adaptive_confidence": spec.adaptive_confidence,
        "all_on": spec.all_on,
    }


def policy_from_wire(wire: Dict[str, Any]) -> PolicySpec:
    """Rebuild a :class:`PolicySpec` from its wire dict.

    The flags must be JSON booleans (an absent ``adaptive_confidence``
    or ``all_on`` reads as false) and ``rr_length`` a JSON integer;
    anything else is a :class:`ServeError` (a string ``"false"`` must
    not read as an adaptive policy, nor ``6.9`` as RR6).
    """
    try:
        name = str(wire["name"])
        rr_length = wire["rr_length"]
        flags = {
            "activity_aware": wire["activity_aware"],
            "adaptive_confidence": wire.get("adaptive_confidence", False),
            "all_on": wire.get("all_on", False),
        }
        if not _is_integer(rr_length):
            raise TypeError(f"rr_length must be an integer, got {rr_length!r}")
        for flag, value in flags.items():
            if not isinstance(value, bool):
                raise TypeError(f"{flag} must be a boolean, got {value!r}")
        return PolicySpec(
            name=name,
            rr_length=rr_length,
            aggregation=AggregationMode(wire["aggregation"]),
            **flags,
        )
    except (KeyError, ValueError, TypeError) as error:
        raise ServeError(f"bad policy spec on the wire: {error}") from None


def states_to_wire(states: Dict[int, NodeSlotState]) -> Dict[str, Any]:
    """Scheduler-visible node states as a wire dict.

    JSON object keys are strings, so node ids stringify; insertion order
    survives the round trip (python dicts and ``json`` both preserve
    it), which scheduling tie-breaks depend on.
    """
    return {
        str(node_id): [state.energy_j, state.ready, state.online]
        for node_id, state in states.items()
    }


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """A JSON number that reads as a float: ``10**400`` does not."""
    if isinstance(value, float):
        return True
    if not _is_integer(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def integer_from_wire(frame: Dict[str, Any], name: str) -> int:
    """``frame[name]``, which must be a JSON integer.

    A bool, float, string or ``null`` is a :class:`ServeError`: ``int()``
    would read ``0.9`` and ``false`` as 0 and raise on ``"abc"``.
    """
    value = frame[name]
    if not _is_integer(value):
        raise ServeError(f"{name} must be an integer, got {value!r}")
    return value


def flags_from_wire(
    wire: Any, node_ids: List[int]
) -> Tuple[List[bool], List[bool]]:
    """A frame's node states as the engine's ``(ready, online)`` flags.

    The wire form is a JSON object of ``[energy, ready, online]`` with a
    number and two JSON booleans, keyed by every node of ``node_ids`` in
    that (construction) order, which scheduling tie-breaks follow;
    anything else is a :class:`ServeError` (a string ``"false"`` must
    not read as ready).  The energy is checked but not kept: no
    scheduler reads it.
    """
    if not isinstance(wire, dict):
        raise ServeError(
            f"bad node states on the wire: expected an object, got "
            f"{type(wire).__name__}"
        )
    order: List[int] = []
    ready: List[bool] = []
    online: List[bool] = []
    for node_id, raw in wire.items():
        if not (
            isinstance(raw, (list, tuple))
            and len(raw) == 3
            and _is_real(raw[0])
            and isinstance(raw[1], bool)
            and isinstance(raw[2], bool)
        ):
            raise ServeError(
                f"bad node states on the wire: node {node_id!r} needs "
                f"[number, bool, bool], got {raw!r}"
            )
        try:
            order.append(int(node_id))
        except (ValueError, TypeError) as error:
            raise ServeError(f"bad node states on the wire: {error}") from None
        ready.append(raw[1])
        online.append(raw[2])
    if order != node_ids:
        raise ServeError(
            f"states must cover nodes {node_ids} in order, got {order}"
        )
    return ready, online


def report_to_wire(report: WireReport) -> List[Any]:
    """A report as a compact wire list.

    ``[node_id, slot, started_slot, completed, delivered, label,
    confidence, reported_label]`` — positional, because a window frame
    carries one per active node every 2.56 simulated seconds.
    """
    return [
        report.node_id,
        report.slot_index,
        report.started_slot,
        report.completed,
        report.delivered,
        report.predicted_label,
        (None if report.confidence is None else float(report.confidence)),
        report.reported_label,
    ]


def report_from_wire(wire: Sequence[Any]) -> WireReport:
    """Rebuild a :class:`WireReport` from its wire list.

    The flags must be JSON booleans; the node id, the slot, a present
    started slot and present labels JSON integers (never a bool, float
    or string); a confidence finite and ``>= 0``; and a completed report
    must carry its started slot, label and confidence.  Which node ids,
    slots and labels a deployment accepts is the session's check
    (:class:`~repro.serve.session.Session`).
    """
    if not isinstance(wire, (list, tuple)) or len(wire) != 8:
        raise ServeError(f"bad report on the wire: {wire!r}")
    node_id, slot, started, completed, delivered, label, confidence, reported = wire
    if not (isinstance(completed, bool) and isinstance(delivered, bool)):
        raise ServeError(
            f"bad report on the wire: completed/delivered must be booleans, "
            f"got {completed!r}/{delivered!r}"
        )
    if confidence is not None and not (
        _is_real(confidence) and math.isfinite(confidence) and confidence >= 0
    ):
        raise ServeError(
            f"bad report on the wire: confidence must be finite and >= 0, "
            f"got {confidence!r}"
        )
    if completed and (started is None or label is None or confidence is None):
        raise ServeError(
            f"bad report on the wire: a completed report needs its started "
            f"slot, label and confidence: {wire!r}"
        )
    if not (
        _is_integer(node_id)
        and _is_integer(slot)
        and (started is None or _is_integer(started))
        and (label is None or _is_integer(label))
        and (reported is None or _is_integer(reported))
    ):
        raise ServeError(
            f"bad report on the wire: the node id, slots and labels must be "
            f"integers: {wire!r}"
        )
    return WireReport(
        node_id=node_id,
        slot_index=slot,
        started_slot=started,
        completed=completed,
        delivered=delivered,
        predicted_label=label,
        confidence=(confidence if confidence is None else float(confidence)),
        reported_label=reported,
    )
