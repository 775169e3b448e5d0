"""Ablation B — confidence weighting: naive / static matrix / adaptive.

DESIGN.md calls out the variance-of-softmax confidence matrix and its
moving-average adaptation as Origin's accuracy lever over naive
majority voting (AASR).
"""

import pytest

from benchmarks.conftest import averaged_event_accuracy
from repro.core.policies import aasr_policy, origin_policy
from repro.utils.text import format_table

RR = 12


@pytest.fixture(scope="module")
def variants(mhealth_exp):
    naive, _ = averaged_event_accuracy(mhealth_exp, aasr_policy(RR))
    static, _ = averaged_event_accuracy(
        mhealth_exp, origin_policy(RR, adaptive=False)
    )
    adaptive, _ = averaged_event_accuracy(mhealth_exp, origin_policy(RR))
    return {"naive majority (AASR)": naive, "static matrix": static, "adaptive matrix (Origin)": adaptive}


def test_ablation_confidence_render(variants, save_result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = format_table(
        ["Ensemble", "Event accuracy (%)"],
        [[name, value * 100] for name, value in variants.items()],
        title=f"=== Ablation B: ensemble weighting at RR{RR} (MHEALTH) ===",
    )
    save_result("ablation_confidence", table)


def test_ablation_confidence_weighting_helps(variants, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    best_weighted = max(
        variants["static matrix"], variants["adaptive matrix (Origin)"]
    )
    assert best_weighted > variants["naive majority (AASR)"] - 0.02


def test_ablation_adaptation_not_harmful(variants, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert (
        variants["adaptive matrix (Origin)"]
        > variants["static matrix"] - 0.05
    )


def test_ablation_timing(benchmark, mhealth_exp):
    benchmark.pedantic(
        lambda: mhealth_exp.run(origin_policy(RR), seed=4, n_windows=120),
        rounds=1,
        iterations=1,
    )
