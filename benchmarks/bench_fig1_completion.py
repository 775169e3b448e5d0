"""Fig. 1 — inference completion on harvested energy, naive vs RR3.

Paper: (a) all sensors attempt every window -> ~1% all succeed, ~9% at
least one, ~90% fail; (b) plain RR3 -> 28% succeed / 72% fail.
"""

import pytest

from benchmarks.conftest import N_WINDOWS
from repro.reporting import render_fig1_completion
from repro.sim.completion import CompletionExperiment


@pytest.fixture(scope="module")
def study(mhealth_exp):
    return CompletionExperiment(mhealth_exp).run(n_windows=N_WINDOWS, seed=21)


def test_fig1_render(study, save_result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    save_result("fig1_completion", render_fig1_completion(study))


def test_fig1a_naive_completion(study, benchmark, mhealth_exp):
    """Naive all-on: the vast majority of windows see no completion."""
    naive = study.naive
    assert naive.failed_fraction > 0.80, "naive scheduling should mostly fail"
    assert naive.any_fraction < 0.20
    assert naive.all_fraction < 0.08, "all-three-succeed must be rare"
    # Correlated office bursts make 'all succeed' disproportionately
    # likely relative to independence.
    independent = naive.any_fraction**3
    assert naive.all_fraction >= independent

    benchmark.pedantic(
        lambda: CompletionExperiment(mhealth_exp).run(n_windows=100, seed=5),
        rounds=1,
        iterations=1,
    )


def test_fig1b_round_robin_completion(study, benchmark):
    """Plain RR3 completes a minority of inferences (paper: 28%)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rr = study.round_robin
    assert 0.15 < rr.any_fraction < 0.45
    assert rr.any_fraction > study.naive.any_fraction, (
        "waiting to compute must beat always trying and failing"
    )
