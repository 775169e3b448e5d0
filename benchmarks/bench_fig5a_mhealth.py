"""Fig. 5a — the full policy ladder on the MHEALTH-like dataset.

Paper shape: within one ER-r level the ladder orders
RR < AAS < AASR < Origin; accuracy tends to improve with the ER-r
delay for the scheduling-only policies; the baselines bracket the band.
"""

import numpy as np
import pytest

from benchmarks.conftest import SEEDS
from repro.reporting import render_fig5_policies
from repro.sim.sweep import PolicySweep, paper_policy_grid

RR_LENGTHS = (3, 6, 9, 12)


@pytest.fixture(scope="module")
def sweep(mhealth_exp):
    runner = PolicySweep(mhealth_exp, n_seeds=len(SEEDS), include_baselines=True)
    return runner.run(paper_policy_grid(RR_LENGTHS), seed=SEEDS[0])


def event_overall(sweep, name):
    return sweep.policy(name).event_accuracy


def test_fig5a_render(sweep, save_result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    save_result("fig5a_mhealth", render_fig5_policies("MHEALTH", sweep))


def test_fig5a_ladder_ordering_within_rr(sweep, benchmark):
    """Mean over the four ER-r levels: each rung adds accuracy."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rungs = {"rr": [], "aas": [], "aasr": [], "origin": []}
    for n in RR_LENGTHS:
        rungs["rr"].append(event_overall(sweep, f"RR{n}"))
        rungs["aas"].append(event_overall(sweep, f"RR{n} AAS"))
        rungs["aasr"].append(event_overall(sweep, f"RR{n} AASR"))
        rungs["origin"].append(event_overall(sweep, f"RR{n} Origin"))
    means = {name: float(np.mean(values)) for name, values in rungs.items()}
    assert means["aas"] > means["rr"], means
    assert means["aasr"] > means["aas"] - 0.01, means
    assert means["origin"] > means["aasr"], means


def test_fig5a_origin_beats_plain_rr_everywhere(sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for n in RR_LENGTHS:
        assert event_overall(sweep, f"RR{n} Origin") > event_overall(sweep, f"RR{n}")


def test_fig5a_baselines_bracket(sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    bl1 = sweep.baseline("Baseline-1").overall_accuracy
    bl2 = sweep.baseline("Baseline-2").overall_accuracy
    assert bl1 > bl2 - 0.01, "unpruned baseline should not trail the pruned one"
    best_origin = max(event_overall(sweep, f"RR{n} Origin") for n in RR_LENGTHS)
    # Origin on harvested energy lands in the baselines' band.
    assert best_origin > bl2 - 0.05


def test_fig5a_timing(benchmark, mhealth_exp):
    from repro.core.policies import origin_policy

    benchmark.pedantic(
        lambda: mhealth_exp.run(origin_policy(12), seed=1, n_windows=120),
        rounds=1,
        iterations=1,
    )
