"""Extension — fault-severity x policy degradation matrix.

Sweeps single-fault scenarios (lossy links, burst loss, corruption,
node death, brownout, harvester shadowing, host restart) against the
paper's policy ladder at RR12, and reports how gracefully each policy
degrades relative to its own fault-free accuracy.  The headline claim
under test: Origin keeps the system usable — it retains more than half
of its fault-free event accuracy under every single fault injected
here.
"""

import numpy as np
import pytest

from benchmarks.conftest import SEEDS
from repro.core.policies import aas_policy, aasr_policy, origin_policy, rr_policy
from repro.faults import (
    Brownout,
    FaultPlan,
    GilbertElliottLoss,
    HarvesterDropout,
    HostRestart,
    NodeDeath,
    PacketLoss,
    PayloadCorruption,
)
from repro.utils.text import format_table

POLICIES = (rr_policy(12), aas_policy(12), aasr_policy(12), origin_policy(12))
MATRIX_SEEDS = SEEDS[:2]

# Node ids follow deployment order: chest 0, right wrist 1, left ankle 2.
SCENARIOS = (
    ("fault-free", FaultPlan()),
    ("packet loss 10%", FaultPlan(faults=(PacketLoss(rate=0.10),))),
    ("packet loss 30%", FaultPlan(faults=(PacketLoss(rate=0.30),))),
    (
        "burst loss (GE, ~17%)",
        FaultPlan(
            faults=(GilbertElliottLoss(p_good_to_bad=0.05, p_bad_to_good=0.25),)
        ),
    ),
    ("corruption 10%", FaultPlan(faults=(PayloadCorruption(rate=0.10),))),
    ("wrist dies @150", FaultPlan(faults=(NodeDeath(node_id=1, at_slot=150),))),
    (
        "wrist brownout 100-180",
        FaultPlan(faults=(Brownout(node_id=1, start_slot=100, duration_slots=80),)),
    ),
    (
        "ankle shadowed 100-300",
        FaultPlan(
            faults=(HarvesterDropout(node_id=2, windows=((100, 300),), factor=0.0),)
        ),
    ),
    ("host restart @250", FaultPlan(faults=(HostRestart(at_slot=250),))),
)


@pytest.fixture(scope="module")
def fault_matrix(mhealth_exp):
    """scenario -> policy -> (mean event accuracy, mean retained, runs)."""
    matrix = {}
    baselines = {}
    for scenario, plan in SCENARIOS:
        matrix[scenario] = {}
        for spec in POLICIES:
            runs = []
            for seed in MATRIX_SEEDS:
                subject = mhealth_exp.dataset.eval_subjects[seed % 2]
                runs.append(
                    mhealth_exp.run(spec, seed=seed, subject=subject, faults=plan)
                )
            accuracy = float(np.mean([r.event_accuracy for r in runs]))
            if scenario == "fault-free":
                baselines[spec.name] = runs
                retained = 1.0
            else:
                retained = float(
                    np.mean(
                        [
                            r.degradation_vs(clean)["retained_event_accuracy"]
                            for r, clean in zip(runs, baselines[spec.name])
                        ]
                    )
                )
            matrix[scenario][spec.name] = (accuracy, retained, runs)
    return matrix


def _origin_name():
    return origin_policy(12).name


def test_fault_matrix_render(fault_matrix, save_result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    names = [spec.name for spec in POLICIES]

    accuracy_rows = [
        [scenario] + [fault_matrix[scenario][name][0] * 100 for name in names]
        for scenario, _ in SCENARIOS
    ]
    text = format_table(
        ["Scenario"] + [f"{name} (%)" for name in names],
        accuracy_rows,
        title="=== Extension: event accuracy under injected faults (RR12 ladder) ===",
    )

    retained_rows = [
        [scenario] + [fault_matrix[scenario][name][1] * 100 for name in names]
        for scenario, _ in SCENARIOS
        if scenario != "fault-free"
    ]
    text += "\n\n" + format_table(
        ["Scenario"] + [f"{name} (%)" for name in names],
        retained_rows,
        title="=== Retained fraction of each policy's fault-free event accuracy ===",
    )

    degradation_rows = []
    for scenario, _ in SCENARIOS:
        if scenario == "fault-free":
            continue
        runs = fault_matrix[scenario][_origin_name()][2]
        stats = [r.fault_stats for r in runs]
        degradation_rows.append(
            [
                scenario,
                float(np.mean([s.messages_dropped for s in stats])),
                float(np.mean([s.messages_corrupted for s in stats])),
                float(np.mean([s.total_offline_slots for s in stats])),
                float(np.mean([r.total_dropped_messages for r in runs])),
            ]
        )
    text += "\n\n" + format_table(
        [
            "Scenario",
            "msgs dropped",
            "msgs corrupted",
            "node-slots offline",
            "slot-level drops",
        ],
        degradation_rows,
        title=f"=== Degradation accounting ({_origin_name()}, mean over seeds) ===",
    )
    save_result("ext_fault_matrix", text)


def test_origin_degrades_gracefully_everywhere(fault_matrix, benchmark):
    """Origin(RR12) keeps >50% of its fault-free event accuracy under
    every single-fault scenario — the graceful-degradation claim."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    origin = _origin_name()
    for scenario, _ in SCENARIOS:
        if scenario == "fault-free":
            continue
        _, retained, _ = fault_matrix[scenario][origin]
        assert retained > 0.5, f"{scenario}: Origin retained only {retained:.1%}"


def test_loss_severity_monotonically_hurts(fault_matrix, benchmark):
    """More link loss cannot help: 30% loss retains no more than 10%
    (small slack for seed noise)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    origin = _origin_name()
    mild = fault_matrix["packet loss 10%"][origin][1]
    severe = fault_matrix["packet loss 30%"][origin][1]
    assert severe <= mild + 0.05, (mild, severe)


def test_empty_plan_matches_fault_free_baseline(fault_matrix, mhealth_exp, benchmark):
    """The fault-free column *is* a plain run: empty plan == no plan."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    seed = MATRIX_SEEDS[0]
    subject = mhealth_exp.dataset.eval_subjects[seed % 2]
    plain = mhealth_exp.run(origin_policy(12), seed=seed, subject=subject)
    with_plan = fault_matrix["fault-free"][_origin_name()][2][0]
    assert plain == with_plan


def test_fault_matrix_timing(benchmark, mhealth_exp):
    plan = FaultPlan(faults=(PacketLoss(rate=0.3),))
    benchmark.pedantic(
        lambda: mhealth_exp.run(
            origin_policy(12), seed=2, n_windows=120, faults=plan
        ),
        rounds=1,
        iterations=1,
    )
