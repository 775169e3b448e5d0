"""Wire protocol: framing, validation, and payload codec round trips."""

from __future__ import annotations

import asyncio
import json
import struct
import sys

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
    flags_from_wire,
    policy_from_wire,
    policy_to_wire,
    read_frame,
    report_from_wire,
    report_to_wire,
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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_integer_past_the_digit_limit_rejected(self):
        # json raises a plain ValueError, not a JSONDecodeError.
        with pytest.raises(ServeError, match="undecodable"):
            decode_frame(b'{"type": "bye", "n": ' + b"9" * 5000 + b"}")

    def test_nesting_past_the_recursion_limit_rejected(self):
        with pytest.raises(ServeError, match="undecodable"):
            decode_frame(b'{"type": "bye", "deep": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "bye"},
            {"type": "decision", "slot": 7, "label": None, "shed": False, "active_next": [0, 2]},
            {"type": "x", "f": [1e-05, 7.619047619047619e-05, 0.1, -0.0, 1e300, 3]},
            {"type": "x", "text": "caf\u00e9 \u2014 \U0001f600", "nested": {"a": [True, None]}},
            {"type": "x", "nan": float("nan"), "inf": float("inf")},
        ],
        ids=["bye", "decision", "floats", "unicode", "non-finite"],
    )
    def test_encoded_bytes_equal_json_dumps(self, frame):
        # One shared encoder writes what json.dumps with the same
        # separators wrote per call.
        payload = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        assert encode_frame(frame) == struct.pack(">I", len(payload)) + payload


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(ServeError, match="unknown frame type"):
            validate_frame({"type": "telnet"})
        with pytest.raises(ServeError, match="unknown frame type"):
            validate_frame({})

    def test_missing_fields_rejected(self):
        with pytest.raises(ServeError, match="missing fields"):
            validate_frame({"type": "window", "slot": 0})

    @pytest.mark.parametrize("kind", [["window"], {"window": 1}, 7, None, True])
    def test_non_string_type_rejected(self, kind):
        # An unhashable type must not escape as a TypeError.
        with pytest.raises(ServeError, match="unknown frame type"):
            validate_frame({"type": kind, "slot": 0, "reports": []})

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
        # Insertion order survives JSON, floats exact via shortest repr.
        assert list(decoded["s"].items()) == list(wire.items())
        assert [value[0] for value in decoded["s"].values()] == [
            state.energy_j for state in states.values()
        ]
        # The flags come out in the deployment's construction order.
        assert flags_from_wire(decoded["s"], [2, 0, 1]) == (
            [True, False, True],
            [True, False, True],
        )

    def test_bad_states_rejected(self):
        good = [1e-4, True, True]
        for wire, message in [
            ([], "bad node states on the wire: expected an object, got list"),
            ({"0": [1.0], "1": good, "2": good}, r"node '0' needs \[number, bool, bool\]"),
            ({"0": good, "1": [1e-4, "false", True], "2": good}, "node '1' needs"),
            ({"0": good, "1": good, "2": [1e-4, True, 1]}, "node '2' needs"),
            ({"0": ["1e-4", True, True], "1": good, "2": good}, "node '0' needs"),
            ({"0": [True, True, True], "1": good, "2": good}, "node '0' needs"),
            ({"0": [None, True, True], "1": good, "2": good}, "node '0' needs"),
            # An integer energy that does not fit a float.
            ({"0": [10**400, True, True], "1": good, "2": good}, "node '0' needs"),
            ({"zero": good, "1": good, "2": good}, "bad node states on the wire: invalid literal"),
            # A bad shape anywhere wins over a bad order.
            ({"2": good, "1": good, "0": [1.0]}, "node '0' needs"),
            ({"0": good, "1": good}, r"states must cover nodes \[0, 1, 2\] in order, got \[0, 1\]"),
            ({"0": good, "2": good, "1": good}, r"in order, got \[0, 2, 1\]"),
            ({"0": good, "1": good, "2": good, "3": good}, r"in order, got \[0, 1, 2, 3\]"),
            # Two keys naming one node.
            ({"0": good, "1": good, "01": good, "2": good}, r"in order, got \[0, 1, 1, 2\]"),
        ]:
            with pytest.raises(ServeError, match=message):
                flags_from_wire(wire, [0, 1, 2])
        # Integral energies and keys int() reads are accepted, as before.
        assert flags_from_wire({"0": [0, True, False], "01": good, " 2": good}, [0, 1, 2]) == (
            [True, True, True],
            [False, True, True],
        )

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
        with pytest.raises(ServeError, match="confidence must be finite"):
            # An integer confidence that does not fit a float.
            report_from_wire([0, 0, 0, True, True, 1, 10**400, None])
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
