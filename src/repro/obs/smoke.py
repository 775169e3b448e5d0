"""Generate a small traced run for CI artifacts and local tinkering.

Usage::

    python -m repro.obs.smoke [--outdir obs-smoke] [--n-windows 60]
        [--seed 3] [--quiet]

Trains a tiny MHEALTH-like bundle, runs the RR3 baseline and Origin-RR3
with a brownout fault under a live :class:`~repro.obs.Observability`,
and writes ``trace.jsonl`` + ``metrics.json`` into ``--outdir`` (then
prints the rendered summarize report, so CI exercises the whole
trace → export → summarize loop in one command).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.datasets.mhealth import make_mhealth
from repro.faults.models import Brownout
from repro.faults.plan import FaultPlan
from repro.obs.observer import Observability
from repro.obs.summarize import render_report
from repro.obs.trace import read_trace
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.training import TrainedSensorBundle, TrainingConfig


def build_smoke_experiment(seed: int, n_windows: int) -> HARExperiment:
    """A tiny but complete experiment (same recipe as the test suite)."""
    dataset = make_mhealth(
        seed=11,
        train_windows_per_activity=14,
        val_windows_per_activity=8,
        n_train_subjects=3,
        n_eval_subjects=1,
    )
    bundle = TrainedSensorBundle.train(
        dataset,
        budget_j=160e-6,
        seed=5,
        config=TrainingConfig(
            epochs=6,
            batch_size=16,
            early_stopping_patience=6,
            finetune_epochs=1,
            final_finetune_epochs=2,
            finetune_every=6,
        ),
    )
    return HARExperiment(
        dataset, bundle, config=SimulationConfig(n_windows=n_windows), seed=seed
    )


def run_smoke(
    outdir: Path, *, seed: int = 3, n_windows: int = 60
) -> str:
    """Run the traced smoke and return the rendered report."""
    from repro.core.policies import origin_policy, rr_policy

    experiment = build_smoke_experiment(seed, n_windows)
    obs = Observability()
    # A mid-run brownout on node 0 exercises the fault ledger.
    faults = FaultPlan(
        faults=(
            Brownout(
                node_id=0,
                start_slot=n_windows // 3,
                duration_slots=max(2, n_windows // 10),
            ),
        )
    )
    experiment.run(rr_policy(3), obs=obs)
    experiment.run(origin_policy(3), faults=faults, obs=obs)

    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "trace.jsonl"
    metrics_path = outdir / "metrics.json"
    obs.export(
        trace_path=trace_path,
        metrics_path=metrics_path,
        meta={"source": "repro.obs.smoke", "seed": seed, "n_windows": n_windows},
    )
    header, events = read_trace(trace_path)
    return render_report(header, events, metrics=obs.metrics)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--outdir", default="obs-smoke", help="directory for trace.jsonl/metrics.json"
    )
    parser.add_argument("--n-windows", type=int, default=60)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--quiet", action="store_true", help="skip printing the summarize report"
    )
    args = parser.parse_args(argv)

    report = run_smoke(Path(args.outdir), seed=args.seed, n_windows=args.n_windows)
    if not args.quiet:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
