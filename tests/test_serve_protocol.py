"""Wire protocol: framing, validation, and payload codec round trips."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.engine import NodeSlotState
from repro.core.policies import (
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.errors import ServeError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WireReport,
    decode_frame,
    encode_frame,
    policy_from_wire,
    policy_to_wire,
    read_frame,
    report_from_wire,
    report_to_wire,
    states_from_wire,
    states_to_wire,
    validate_frame,
)


def read_from_bytes(data: bytes, *, eof: bool = True):
    """Drive read_frame against an in-memory stream (no socket)."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFraming:
    def test_encode_decode_round_trip(self):
        frame = {"type": "bye", "extra": [1, 2.5, None, "x"]}
        data = encode_frame(frame)
        (length,) = struct.unpack(">I", data[:4])
        assert length == len(data) - 4
        assert decode_frame(data[4:]) == frame

    def test_read_frame_round_trip(self):
        frame = {"type": "window", "slot": 3, "reports": []}
        assert read_from_bytes(encode_frame(frame)) == frame

    def test_clean_eof_returns_none(self):
        assert read_from_bytes(b"") is None

    def test_drop_mid_prefix_raises(self):
        with pytest.raises(ServeError, match="mid-prefix"):
            read_from_bytes(b"\x00\x00")

    def test_drop_mid_frame_raises(self):
        data = encode_frame({"type": "bye"})
        with pytest.raises(ServeError, match="mid-frame"):
            read_from_bytes(data[:-2])

    def test_oversized_length_prefix_rejected(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ServeError, match="MAX_FRAME_BYTES"):
            read_from_bytes(prefix + b"x")

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(ServeError, match="MAX_FRAME_BYTES"):
            encode_frame({"type": "bye", "pad": "x" * (MAX_FRAME_BYTES + 1)})

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ServeError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")
        with pytest.raises(ServeError, match="JSON object"):
            decode_frame(b"[1, 2]")


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(ServeError, match="unknown frame type"):
            validate_frame({"type": "telnet"})
        with pytest.raises(ServeError, match="unknown frame type"):
            validate_frame({})

    def test_missing_fields_rejected(self):
        with pytest.raises(ServeError, match="missing fields"):
            validate_frame({"type": "window", "slot": 0})

    def test_expected_type_enforced(self):
        frame = {"type": "bye"}
        assert validate_frame(frame, "bye") == "bye"
        with pytest.raises(ServeError, match="expected a 'decision'"):
            validate_frame(frame, "decision")


class TestCodecs:
    @pytest.mark.parametrize(
        "policy",
        [
            naive_policy(3),
            rr_policy(6),
            aas_policy(6),
            aasr_policy(6),
            origin_policy(6),
        ],
        ids=lambda policy: policy.name,
    )
    def test_policy_round_trip(self, policy):
        assert policy_from_wire(policy_to_wire(policy)) == policy

    def test_policy_round_trip_through_json_version(self):
        # The wire dict is what a hello frame carries.
        frame = {"type": "bye", "policy": policy_to_wire(origin_policy(6))}
        decoded = decode_frame(encode_frame(frame)[4:])
        assert policy_from_wire(decoded["policy"]) == origin_policy(6)

    def test_bad_policy_rejected(self):
        with pytest.raises(ServeError, match="bad policy"):
            policy_from_wire({"name": "x"})
        with pytest.raises(ServeError, match="bad policy"):
            policy_from_wire(
                dict(policy_to_wire(rr_policy(3)), aggregation="quantum")
            )

    def test_absent_optional_flags_read_false(self):
        wire = policy_to_wire(aasr_policy(6))
        del wire["adaptive_confidence"], wire["all_on"]
        assert policy_from_wire(wire) == aasr_policy(6)

    @pytest.mark.parametrize(
        "base, field, value",
        [
            (origin_policy(6, adaptive=False), "adaptive_confidence", "false"),
            (rr_policy(6), "activity_aware", "no"),
            (rr_policy(6), "activity_aware", 1),
            (rr_policy(6), "all_on", "yes"),
            (rr_policy(6), "rr_length", 6.9),
            (rr_policy(6), "rr_length", 6.0),
            (rr_policy(6), "rr_length", True),
            (rr_policy(6), "rr_length", "6"),
        ],
        ids=[
            "adaptive-string",
            "aware-string",
            "aware-integer",
            "all-on-string",
            "rr-float",
            "rr-integral-float",
            "rr-bool",
            "rr-string",
        ],
    )
    def test_policy_fields_must_have_json_types(self, base, field, value):
        # bool() and int() would read each of these as a different policy.
        wire = dict(policy_to_wire(base), **{field: value})
        with pytest.raises(ServeError, match=f"bad policy spec on the wire: {field}"):
            policy_from_wire(wire)

    def test_states_round_trip_preserves_order_and_floats(self):
        states = {
            2: NodeSlotState(energy_j=1.1e-4, ready=True),
            0: NodeSlotState(energy_j=0.0, ready=False, online=False),
            1: NodeSlotState(energy_j=7.619047619047619e-05, ready=True),
        }
        wire = states_to_wire(states)
        decoded = decode_frame(encode_frame({"type": "bye", "s": wire})[4:])
        rebuilt = states_from_wire(decoded["s"])
        assert list(rebuilt) == [2, 0, 1]  # insertion order survives JSON
        assert rebuilt == states  # floats exact via shortest-repr round trip

    def test_bad_states_rejected(self):
        with pytest.raises(ServeError, match="bad node states"):
            states_from_wire({"0": [1.0]})
        with pytest.raises(ServeError, match="bad node states"):
            states_from_wire({"zero": [1.0, True, True]})

    def test_report_round_trip(self):
        report = WireReport(
            node_id=1,
            slot_index=9,
            started_slot=8,
            completed=True,
            delivered=True,
            predicted_label=4,
            confidence=0.25,
            reported_label=3,
        )
        assert report_from_wire(report_to_wire(report)) == report
        assert report.delivered_label == 3  # corruption wins over prediction

    def test_incomplete_report_round_trip(self):
        report = WireReport(
            node_id=0, slot_index=2, started_slot=2, completed=False
        )
        rebuilt = report_from_wire(report_to_wire(report))
        assert rebuilt == report
        assert rebuilt.delivered_label is None

    def test_bad_report_rejected(self):
        with pytest.raises(ServeError, match="bad report"):
            report_from_wire([1, 2, 3])
        with pytest.raises(ServeError, match="bad report"):
            report_from_wire({"node_id": 1})
        with pytest.raises(ServeError, match="bad report"):
            report_from_wire([0, 0, 0, True, True, "four-ish", None, None])
        with pytest.raises(ServeError, match="completed report needs"):
            report_from_wire([0, 0, 0, True, True, None, 0.1, None])


#: A completed, corrupted report: node 2, slot 5, started at slot 2.
GOOD_REPORT = [2, 5, 2, True, True, 1, 0.1, 0]
#: Values ``int()`` would coerce but JSON does not call integers.
NOT_INTEGERS = pytest.mark.parametrize(
    "value", ["2", 2.0, 2.9, True], ids=["string", "integral-float", "float", "bool"]
)


def _reject_at(index, value):
    wire = list(GOOD_REPORT)
    wire[index] = value
    with pytest.raises(ServeError, match="must be integers"):
        report_from_wire(wire)


class TestReportIntegers:
    """Node ids, slots and labels decode only from JSON integers."""

    @NOT_INTEGERS
    def test_node_id_must_be_an_integer(self, value):
        _reject_at(0, value)

    @NOT_INTEGERS
    def test_slot_must_be_an_integer(self, value):
        _reject_at(1, value)

    @NOT_INTEGERS
    def test_started_slot_must_be_an_integer(self, value):
        _reject_at(2, value)

    @NOT_INTEGERS
    def test_label_must_be_an_integer(self, value):
        _reject_at(5, value)

    @NOT_INTEGERS
    def test_reported_label_must_be_an_integer(self, value):
        _reject_at(7, value)


def test_protocol_version_is_one():
    # Bump PROTOCOL_VERSION (and this pin) on any frame-layout change.
    assert PROTOCOL_VERSION == 1
