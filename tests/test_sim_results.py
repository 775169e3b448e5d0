"""Tests for result containers."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.activities import Activity
from repro.errors import SimulationError
from repro.resilience.journal import decode_experiment_result, encode_experiment_result
from repro.sim.results import CompletionBreakdown, ExperimentResult, SlotRecord

ACTIVITIES = [Activity.WALKING, Activity.RUNNING]


def record(slot, true, pred, active=(0,), completions=1, attempts=1):
    return SlotRecord(
        slot_index=slot,
        true_label=true,
        predicted_label=pred,
        active_nodes=tuple(active),
        completions=completions,
        attempts=attempts,
    )


def result_with(records):
    return ExperimentResult.from_records("test", ACTIVITIES, records)


class TestSlotRecord:
    def test_correct(self):
        assert record(0, 1, 1).correct
        assert not record(0, 1, 0).correct
        assert not record(0, 1, None).correct


class TestCompletionBreakdown:
    def test_fractions(self):
        breakdown = CompletionBreakdown(10, 1, 2, 7)
        assert breakdown.all_fraction == 0.1
        assert breakdown.some_fraction == 0.2
        assert breakdown.any_fraction == pytest.approx(0.3)
        assert breakdown.failed_fraction == 0.7

    def test_must_add_up(self):
        with pytest.raises(SimulationError):
            CompletionBreakdown(10, 5, 5, 5)

    def test_empty(self):
        breakdown = CompletionBreakdown(0, 0, 0, 0)
        assert breakdown.all_fraction == 0.0


class TestExperimentResult:
    def test_overall_accuracy(self):
        result = result_with([record(0, 0, 0), record(1, 1, 0), record(2, 1, None)])
        assert result.overall_accuracy == pytest.approx(1 / 3)

    def test_per_activity_accuracy(self):
        result = result_with([record(0, 0, 0), record(1, 0, 1), record(2, 1, 1)])
        per = result.per_activity_accuracy()
        assert per[Activity.WALKING] == 0.5
        assert per[Activity.RUNNING] == 1.0

    def test_event_accuracy_ignores_skipped_slots(self):
        records = [
            record(0, 0, 0, completions=1),
            record(1, 0, 1, completions=0, attempts=1),  # failed: not an event
            record(2, 1, 0, completions=0, attempts=0),  # no-op: not an event
        ]
        result = result_with(records)
        assert result.n_events == 1
        assert result.event_accuracy == 1.0

    def test_event_accuracy_empty(self):
        result = result_with([record(0, 0, 0, completions=0, attempts=0)])
        assert result.event_accuracy == 0.0

    def test_per_activity_event_accuracy(self):
        records = [record(0, 0, 0), record(1, 1, 0)]
        per = result_with(records).per_activity_event_accuracy()
        assert per[Activity.WALKING] == 1.0
        assert per[Activity.RUNNING] == 0.0

    def test_completion_breakdown_excludes_noops(self):
        records = [
            record(0, 0, 0, active=(0, 1), completions=2, attempts=2),
            record(1, 0, 0, active=(0, 1), completions=1, attempts=2),
            record(2, 0, 0, active=(0,), completions=0, attempts=1),
            record(3, 0, 0, active=(), completions=0, attempts=0),
        ]
        breakdown = result_with(records).completion_breakdown()
        assert breakdown.n_slots == 3
        assert breakdown.slots_all_completed == 1
        assert breakdown.slots_some_completed == 1
        assert breakdown.slots_none_completed == 1

    def test_completion_rate(self):
        result = result_with(
            [record(0, 0, 0, completions=1, attempts=2)]
        )
        assert result.completion_rate == 0.5

    def test_labels_arrays(self):
        result = result_with([record(0, 0, None), record(1, 1, 0)])
        assert list(result.true_labels()) == [0, 1]
        assert list(result.predicted_labels()) == [-1, 0]

    def test_summary_renders(self):
        result = result_with([record(0, 0, 0)])
        text = result.summary()
        assert "test" in text
        assert "Walking" in text

    def test_empty_accuracy_raises(self):
        with pytest.raises(SimulationError):
            _ = result_with([]).overall_accuracy


# ---------------------------------------------------------------------------
# columns against the record-based formulas
# ---------------------------------------------------------------------------


def _mean(flags):
    return float(np.mean(flags))


class _RecordFormulas:
    """Every metric as computed from a list of :class:`SlotRecord`."""

    def __init__(self, records, activities):
        self.records = records
        self.activities = activities
        self.events = [r for r in records if r.completions > 0]

    def overall_accuracy(self):
        if not self.records:
            raise SimulationError("no slots recorded")
        return _mean([r.correct for r in self.records])

    def per_activity_accuracy(self):
        true = np.array([r.true_label for r in self.records], dtype=np.int64)
        pred = np.array(
            [-1 if r.predicted_label is None else r.predicted_label for r in self.records],
            dtype=np.int64,
        )
        return {
            activity: float((pred[true == label] == label).mean())
            if (true == label).any()
            else float("nan")
            for label, activity in enumerate(self.activities)
        }

    def event_accuracy(self):
        return _mean([r.correct for r in self.events]) if self.events else 0.0

    def per_activity_event_accuracy(self):
        report = {}
        for label, activity in enumerate(self.activities):
            of_class = [r for r in self.events if r.true_label == label]
            report[activity] = _mean([r.correct for r in of_class]) if of_class else float("nan")
        return report

    def totals(self):
        attempts = sum(r.attempts for r in self.records)
        completions = sum(r.completions for r in self.records)
        return {
            "n_slots": len(self.records),
            "n_events": len(self.events),
            "total_attempts": attempts,
            "total_completions": completions,
            "total_dropped_messages": sum(r.dropped_messages for r in self.records),
            "completion_rate": completions / attempts if attempts else 0.0,
        }

    def completion_breakdown(self):
        attempting = [r for r in self.records if r.attempts > 0]
        return CompletionBreakdown(
            len(attempting),
            sum(1 for r in attempting if r.completions == r.attempts),
            sum(1 for r in attempting if 0 < r.completions < r.attempts),
            sum(1 for r in attempting if r.completions == 0),
        )


def _same(a, b):
    """Equal bit for bit, of the same Python type (NaN equals NaN)."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, float) and math.isnan(a):
        assert math.isnan(b)
    else:
        assert a == b


@st.composite
def _runs(draw):
    n_classes = draw(st.integers(min_value=1, max_value=len(Activity)))
    records = []
    slots = draw(st.integers(min_value=0, max_value=30))
    for slot in range(slots):
        active = draw(st.lists(st.sampled_from([0, 1, 2]), unique=True, max_size=3))
        completions = draw(st.integers(min_value=0, max_value=len(active)))
        final = draw(st.integers(min_value=-1, max_value=n_classes - 1))
        records.append(
            SlotRecord(
                slot_index=slot,
                true_label=draw(st.integers(min_value=0, max_value=n_classes - 1)),
                predicted_label=None if final < 0 else final,
                active_nodes=tuple(active),
                completions=completions,
                attempts=len(active),
                dropped_messages=draw(st.integers(min_value=0, max_value=completions)),
            )
        )
    return list(Activity)[:n_classes], records


class TestColumnsMatchRecordFormulas:
    @given(run=_runs())
    @settings(max_examples=150, deadline=None)
    def test_metrics_equal_the_record_formulas(self, run):
        activities, records = run
        result = ExperimentResult.from_records("test", activities, records)
        reference = _RecordFormulas(records, activities)
        if records:
            _same(result.overall_accuracy, reference.overall_accuracy())
        else:
            with pytest.raises(SimulationError):
                _ = result.overall_accuracy
        _same(result.event_accuracy, reference.event_accuracy())
        for name, value in reference.totals().items():
            _same(getattr(result, name), value)
        for name in ("per_activity_accuracy", "per_activity_event_accuracy"):
            got, want = getattr(result, name)(), getattr(reference, name)()
            assert list(got) == list(want)
            for activity in want:
                _same(got[activity], want[activity])
        assert result.completion_breakdown() == reference.completion_breakdown()

    @given(run=_runs())
    @settings(max_examples=60, deadline=None)
    def test_records_round_trip(self, run):
        activities, records = run
        result = ExperimentResult.from_records("test", activities, records)
        assert result.records == tuple(records)
        assert ExperimentResult.from_records("test", activities, result.records).records == (
            result.records
        )
        document = json.loads(json.dumps(encode_experiment_result(result)))
        assert document["records"] == [
            [
                r.slot_index,
                r.true_label,
                r.predicted_label,
                list(r.active_nodes),
                r.completions,
                r.attempts,
                r.dropped_messages,
            ]
            for r in records
        ]
        assert decode_experiment_result(document).records == result.records

    def test_columns_are_read_only(self):
        result = result_with([record(0, 0, 0), record(1, 1, None)])
        # A result a pool worker pickled stays read-only too.
        for copy in (result, pickle.loads(pickle.dumps(result))):
            with pytest.raises(ValueError):
                copy.final_label[0] = 1
            np.testing.assert_array_equal(copy.final_label, [0, -1])
            assert copy == result

    def test_columns_must_share_one_length(self):
        with pytest.raises(SimulationError):
            ExperimentResult(
                policy_name="test",
                activities=ACTIVITIES,
                slot_index=[0, 1],
                true_label=[0, 1],
                final_label=[0],
                completions=[1, 1],
                attempts=[1, 1],
                dropped_messages=[0, 0],
                active_nodes=((0,), (0,)),
            )
