"""Session state machine: transport-free frame-in, frames-out tests."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.policies import aasr_policy, origin_policy, rr_policy
from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import record_tape
from repro.serve.protocol import policy_from_wire
from repro.serve.session import EngineCatalog, ServeProfile, Session


@pytest.fixture(scope="module")
def catalog(tiny_experiment):
    return EngineCatalog(
        [ServeProfile.from_experiment("default", tiny_experiment)]
    )


@pytest.fixture(scope="module")
def tape(tiny_experiment):
    return record_tape(tiny_experiment, origin_policy(6), seed=9)


def fresh(catalog, **kwargs) -> Session:
    return Session(catalog, **kwargs)


class TestHappyPath:
    def test_replay_reproduces_expected_stream(self, catalog, tape):
        session = fresh(catalog)
        (ack,) = session.handle(tape.hello)
        assert ack["type"] == "hello_ack"
        assert ack["active"] == tape.expected_active[0]
        labels, actives = [], []
        for frame in tape.windows:
            (decision,) = session.handle(frame)
            assert decision["type"] == "decision"
            assert decision["shed"] is False
            labels.append(decision["label"])
            if decision["active_next"] is not None:
                actives.append(decision["active_next"])
        assert labels == tape.expected_labels
        assert actives == tape.expected_active[1:]
        assert session.handle({"type": "bye"})[0]["type"] == "bye_ack"
        assert session.closed

    def test_final_window_carries_no_next_active(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        for frame in tape.windows:
            (decision,) = session.handle(frame)
        assert decision["active_next"] is None

    def test_bye_ack_stats_account_for_every_window(self, catalog, tape):
        metrics = MetricsRegistry()
        session = fresh(catalog, session_id="sess-42", metrics=metrics)
        session.handle(tape.hello)
        for index, frame in enumerate(tape.windows):
            session.handle(frame, shed=(index % 3 == 0))
        (bye_ack,) = session.handle({"type": "bye"})
        stats = bye_ack["stats"]
        assert stats["session"] == "sess-42"
        assert stats["windows"] == len(tape.windows)
        assert stats["decisions"] + stats["shed"] == stats["windows"]
        counters = metrics.to_dict()["counters"]
        assert counters["serve.windows"] == len(tape.windows)
        assert counters["serve.decisions"] == stats["decisions"]
        assert counters["serve.windows.shed"] == stats["shed"]


class TestShedding:
    def test_shed_window_repeats_last_decision(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        (first,) = session.handle(tape.windows[0])
        (shed,) = session.handle(tape.windows[1], shed=True)
        assert shed["shed"] is True
        assert shed["label"] == first["label"]  # stale, not recomputed
        assert shed["active_next"] is not None  # scheduling continues
        assert session.shed_windows == 1 and session.decisions == 1

    def test_shed_keeps_slot_cursor_moving(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        session.handle(tape.windows[0], shed=True)
        (decision,) = session.handle(tape.windows[1])
        assert decision["slot"] == 1


class TestViolations:
    def test_window_before_hello(self, catalog, tape):
        with pytest.raises(ServeError, match="before hello"):
            fresh(catalog).handle(tape.windows[0])

    def test_duplicate_hello(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="duplicate hello"):
            session.handle(tape.hello)

    def test_version_mismatch(self, catalog, tape):
        bad = dict(tape.hello, version=99)
        with pytest.raises(ServeError, match="version 99"):
            fresh(catalog).handle(bad)

    def test_unknown_profile(self, catalog, tape):
        bad = dict(tape.hello, profile="nonesuch")
        with pytest.raises(ServeError, match="unknown profile 'nonesuch'"):
            fresh(catalog).handle(bad)

    def test_bad_n_windows(self, catalog, tape):
        bad = dict(tape.hello, n_windows=0)
        with pytest.raises(ServeError, match="n_windows"):
            fresh(catalog).handle(bad)

    def test_states_out_of_order(self, catalog, tape):
        shuffled = dict(reversed(list(tape.hello["states"].items())))
        bad = dict(tape.hello, states=shuffled)
        with pytest.raises(ServeError, match="in order"):
            fresh(catalog).handle(bad)

    def test_out_of_order_window(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="out-of-order"):
            session.handle(tape.windows[1])

    def test_replayed_window_rejected(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        session.handle(tape.windows[0])
        with pytest.raises(ServeError, match="out-of-order"):
            session.handle(tape.windows[0])

    def test_states_with_final_window_rejected(self, catalog, tiny_experiment):
        short = record_tape(tiny_experiment, rr_policy(3), seed=9, n_windows=2)
        session = fresh(catalog)
        session.handle(short.hello)
        session.handle(short.windows[0])
        bad = dict(short.windows[1], states=short.windows[0]["states"])
        with pytest.raises(ServeError, match="final window"):
            session.handle(bad)

    def test_bye_after_close(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        session.handle({"type": "bye"})
        with pytest.raises(ServeError, match="bye after close"):
            session.handle({"type": "bye"})

    def test_server_to_client_frames_rejected(self, catalog):
        frame = {
            "type": "decision",
            "slot": 0,
            "label": None,
            "shed": False,
            "active_next": None,
        }
        with pytest.raises(ServeError, match="may not send"):
            fresh(catalog).handle(frame)

    def test_engine_untouched_after_violation(self, catalog, tape):
        # A rejected frame must not half-advance the slot cursor.
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError):
            session.handle(tape.windows[1])
        (decision,) = session.handle(tape.windows[0])
        assert decision["label"] == tape.expected_labels[0]


#: Values ``int()`` would read as some integer, or raise on.
NOT_INTEGERS = pytest.mark.parametrize(
    "value", ["abc", None, 0.9, False, 3.0], ids=["string", "null", "float", "bool", "integral-float"]
)


class TestMalformedFrames:
    """A malformed hello or window ends in a ServeError, never deeper."""

    @NOT_INTEGERS
    @pytest.mark.parametrize("field", ["n_windows", "seed"])
    def test_hello_integers(self, catalog, tape, field, value):
        with pytest.raises(ServeError, match=f"{field} must be an integer"):
            fresh(catalog).handle(dict(tape.hello, **{field: value}))

    @NOT_INTEGERS
    def test_window_slot_must_be_an_integer(self, catalog, tape, value):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="slot must be an integer"):
            session.handle(dict(tape.windows[0], slot=value))
        (decision,) = session.handle(tape.windows[0])
        assert decision["label"] == tape.expected_labels[0]

    def test_unschedulable_policy_rejected(self, catalog, tape):
        # RR4 on three nodes has no ER-r cycle.
        policy = dict(tape.hello["policy"], name="RR4 Origin", rr_length=4)
        with pytest.raises(ServeError, match="cannot run policy 'RR4 Origin'"):
            fresh(catalog).handle(dict(tape.hello, policy=policy))


class TestLongCycles:
    """A valid but huge ``rr_length`` costs the server no ER-r cycle."""

    def test_hello_with_a_long_cycle_is_cheap(self, catalog, tape):
        wire = dict(tape.hello["policy"], name="RR3000000 Origin", rr_length=3_000_000)
        (ack,) = fresh(catalog).handle(dict(tape.hello, policy=wire))
        assert ack["type"] == "hello_ack"
        profile = catalog.get(tape.hello["profile"])
        policy = policy_from_wire(wire)
        tracemalloc.start()
        try:
            profile.build_engine(policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def with_report(frame, report):
    """``frame`` carrying one crafted report in place of its own."""
    return dict(frame, reports=[report])


def completed_report(node_id, *, label=1, confidence=0.1, completed=True):
    return [node_id, 0, 0, completed, True, label, confidence, None]


class TestHostileInputs:
    """Malformed states and reports end in a ServeError, never deeper."""

    @pytest.fixture(scope="class")
    def aasr_tape(self, tiny_experiment):
        return record_tape(tiny_experiment, aasr_policy(6), seed=9)

    @pytest.fixture(scope="class")
    def node(self, catalog):
        return catalog.get("default").node_ids[0]

    def test_states_must_be_an_object(self, catalog, tape):
        with pytest.raises(ServeError, match="bad node states"):
            fresh(catalog).handle(dict(tape.hello, states=[]))

    def test_ready_flag_must_be_a_json_boolean(self, catalog, tape):
        states = dict(tape.hello["states"])
        first = next(iter(states))
        states[first] = [1e-4, "false", True]
        with pytest.raises(ServeError, match="bad node states"):
            fresh(catalog).handle(dict(tape.hello, states=states))

    @pytest.mark.parametrize("kind", [["window"], {"type": "window"}], ids=["list", "object"])
    def test_unhashable_frame_type_rejected(self, catalog, tape, kind):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="unknown frame type"):
            session.handle(dict(tape.windows[0], type=kind))
        (decision,) = session.handle(tape.windows[0])
        assert decision["label"] == tape.expected_labels[0]

    def test_energy_too_large_for_a_float_rejected(self, catalog, tape):
        states = dict(tape.hello["states"])
        first = next(iter(states))
        states[first] = [10**400, True, True]
        with pytest.raises(ServeError, match="bad node states"):
            fresh(catalog).handle(dict(tape.hello, states=states))
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="bad node states"):
            session.handle(dict(tape.windows[0], states=states))

    def test_confidence_too_large_for_a_float_rejected(self, catalog, tape, node):
        session = fresh(catalog)
        session.handle(tape.hello)
        bad = completed_report(node, confidence=10**400)
        with pytest.raises(ServeError, match="confidence must be finite"):
            session.handle(with_report(tape.windows[0], bad))
        (decision,) = session.handle(tape.windows[0])
        assert decision["label"] == tape.expected_labels[0]

    def test_origin_rejects_report_from_unknown_node(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="node 99"):
            session.handle(with_report(tape.windows[0], completed_report(99)))

    def test_origin_rejects_negative_confidence(self, catalog, tape, node):
        session = fresh(catalog)
        session.handle(tape.hello)
        bad = completed_report(node, confidence=-0.5)
        with pytest.raises(ServeError, match="confidence"):
            session.handle(with_report(tape.windows[0], bad))

    def test_origin_rejects_label_out_of_range(self, catalog, tape, node):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError, match="label 99"):
            session.handle(with_report(tape.windows[0], completed_report(node, label=99)))

    def test_origin_rejects_nan_confidence(self, catalog, tape, node):
        session = fresh(catalog)
        session.handle(tape.hello)
        bad = completed_report(node, confidence=float("nan"))
        with pytest.raises(ServeError, match="confidence"):
            session.handle(with_report(tape.windows[0], bad))

    def test_aasr_rejects_label_out_of_range(self, catalog, aasr_tape, node):
        session = fresh(catalog)
        session.handle(aasr_tape.hello)
        bad = completed_report(node, label=99)
        with pytest.raises(ServeError, match="label 99"):
            session.handle(with_report(aasr_tape.windows[0], bad))

    def test_aasr_rejects_report_from_unknown_node(self, catalog, aasr_tape):
        session = fresh(catalog)
        session.handle(aasr_tape.hello)
        with pytest.raises(ServeError, match="node 99"):
            session.handle(with_report(aasr_tape.windows[0], completed_report(99)))

    def test_aasr_rejects_non_boolean_completed_flag(self, catalog, aasr_tape, node):
        session = fresh(catalog)
        session.handle(aasr_tape.hello)
        bad = completed_report(node, completed="no")
        with pytest.raises(ServeError, match="booleans"):
            session.handle(with_report(aasr_tape.windows[0], bad))

    def test_rejected_report_leaves_session_usable(self, catalog, tape):
        session = fresh(catalog)
        session.handle(tape.hello)
        with pytest.raises(ServeError):
            session.handle(with_report(tape.windows[0], completed_report(99)))
        (decision,) = session.handle(tape.windows[0])
        assert decision["label"] == tape.expected_labels[0]


class TestReportsADeviceCouldSend:
    """A window carries at most one report per node, for its own slot,
    on a window sensed no later than that slot."""

    SLOT = 5

    @pytest.fixture(scope="class")
    def rr3_tape(self, tiny_experiment):
        return record_tape(tiny_experiment, origin_policy(3), seed=9)

    @pytest.fixture(scope="class")
    def node(self, catalog):
        return catalog.get("default").node_ids[0]

    def rejected(self, catalog, tape, reports, match, frame=None):
        """Window ``SLOT`` with ``reports`` (or ``frame``) fails before the
        engine moves, and the recorded window is still decided as on the
        tape."""
        session = fresh(catalog)
        session.handle(tape.hello)
        for window in tape.windows[: self.SLOT]:
            session.handle(window)
        engine = session.engine

        def state():
            return (
                engine.messages_received,
                engine.confidence_updates,
                session.completions,
                session.windows,
            )

        before = state()
        if frame is None:
            frame = dict(tape.windows[self.SLOT], reports=reports)
        with pytest.raises(ServeError, match=match):
            session.handle(frame)
        assert state() == before
        (decision,) = session.handle(tape.windows[self.SLOT])
        assert decision["label"] == tape.expected_labels[self.SLOT]

    def test_second_report_from_a_node_rejected(self, catalog, rr3_tape, node):
        report = [node, self.SLOT, self.SLOT, True, True, 1, 0.1, None]
        self.rejected(catalog, rr3_tape, [report, report], "second report from node")

    def test_undelivered_report_rejected(self, catalog, rr3_tape, node):
        # A dropped message never reaches the host, so no device sends it.
        report = [node, self.SLOT, self.SLOT, True, False, 1, 0.1, None]
        self.rejected(catalog, rr3_tape, [report], "undelivered report from node")

    def test_report_for_another_slot_rejected(self, catalog, rr3_tape, node):
        report = [node, self.SLOT + 1, self.SLOT, True, True, 1, 0.1, None]
        self.rejected(catalog, rr3_tape, [report], "report for slot 6")

    @pytest.mark.parametrize(
        "states, match",
        [({"x": 1}, "bad node states"), ([], "bad node states"), ({}, "in order")],
        ids=["bad-shape", "not-an-object", "no-nodes"],
    )
    def test_bad_next_states_rejected_before_the_window_counts(
        self, catalog, rr3_tape, node, states, match
    ):
        # A completed report the engine would ingest, with bad states.
        report = [node, self.SLOT, self.SLOT, True, True, 1, 0.1, None]
        frame = dict(rr3_tape.windows[self.SLOT], reports=[report], states=states)
        self.rejected(catalog, rr3_tape, [report], match, frame=frame)

    @pytest.mark.parametrize("started", [-5, SLOT + 1, 40])
    def test_started_slot_outside_the_window_range_rejected(
        self, catalog, rr3_tape, node, started
    ):
        report = [node, self.SLOT, started, True, True, 1, 0.1, None]
        self.rejected(catalog, rr3_tape, [report], f"started slot {started} outside")
