"""Tests for the figure/table renderers."""

import numpy as np

from repro.datasets.activities import Activity
from repro.reporting import (
    render_fig1_completion,
    render_fig2_sensor_accuracy,
    render_fig3_schedules,
    render_fig4_aas,
    render_fig5_policies,
    render_fig6_personalization,
    render_table1,
)
from repro.reporting.figures import render_completion_vs_rr
from repro.sim.baselines import BaselineResult
from repro.sim.completion import CompletionStudyResult
from repro.sim.personalization import PersonalizationResult
from repro.sim.results import CompletionBreakdown, ExperimentResult, SlotRecord
from repro.sim.sweep import SweepResult

ACTIVITIES = [Activity.WALKING, Activity.RUNNING]


def make_result(name, labels):
    return ExperimentResult.from_records(
        name,
        ACTIVITIES,
        [
            SlotRecord(slot, true, pred, active_nodes=(0,), completions=1, attempts=1)
            for slot, (true, pred) in enumerate(labels)
        ],
    )


def make_sweep():
    sweep = SweepResult(activities=ACTIVITIES)
    sweep.policies["RR12 Origin"] = make_result(
        "RR12 Origin", [(0, 0), (1, 1), (0, 0), (1, 0)]
    )
    for name in ("Baseline-1", "Baseline-2"):
        sweep.baselines[name] = BaselineResult(
            baseline_name=name,
            activities=ACTIVITIES,
            true_labels=np.array([0, 1, 0, 1]),
            predicted_labels=np.array([0, 1, 1, 1]),
        )
    return sweep


class TestRenderers:
    def test_fig1(self):
        study = CompletionStudyResult(
            naive=CompletionBreakdown(100, 1, 9, 90),
            round_robin=CompletionBreakdown(100, 28, 0, 72),
        )
        text = render_fig1_completion(study)
        assert "naive" in text
        assert "RR3" in text
        assert "90.00%" in text

    def test_fig2(self):
        per_sensor = {
            "Chest": {a: 0.8 for a in ACTIVITIES},
            "Left Ankle": {a: 0.9 for a in ACTIVITIES},
        }
        majority = {a: 0.92 for a in ACTIVITIES}
        text = render_fig2_sensor_accuracy(ACTIVITIES, per_sensor, majority)
        assert "Majority Voting" in text
        assert "Walking" in text

    def test_fig3(self):
        text = render_fig3_schedules([0, 1, 2], (3, 12))
        assert "RR3" in text and "RR12" in text
        assert "No Op" in text

    def test_fig4(self):
        columns = {"RR3": {a: 0.5 for a in ACTIVITIES}}
        overall = {"RR3": 0.5}
        text = render_fig4_aas(ACTIVITIES, columns, overall)
        assert "Fig. 4" in text
        assert "Overall" in text

    def test_fig5(self):
        text = render_fig5_policies("MHEALTH", make_sweep())
        assert "MHEALTH" in text
        assert "Baseline-2" in text

    def test_table1(self):
        text = render_table1(make_sweep())
        assert "vs BL-2" in text
        assert "Average" in text

    def test_fig6(self):
        result = PersonalizationResult(
            checkpoints=[1, 10],
            per_user_accuracy={1000: [0.7, 0.85]},
            base_accuracy=0.82,
        )
        text = render_fig6_personalization(result)
        assert "base" in text
        assert "85.00%" in text

    def test_completion_vs_rr(self):
        text = render_completion_vs_rr({"RR3": 0.3, "RR12": 0.95})
        assert "RR12" in text
