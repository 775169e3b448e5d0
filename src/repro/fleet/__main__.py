"""Command-line fleet runs.

Usage::

    python -m repro.fleet run --users 10000 [--seed 42] [--dataset mhealth]
        [--policy origin|aas|aasr|rr] [--rr-length 12] [--n-windows 600]
        [--timelines 4] [--shard-size 256] [--workers 1]
        [--journal fleet.journal] [--no-resume]
        [--output fleet.json] [--run-dir runs/cohort-a] [--registry DIR]
    python -m repro.fleet summarize fleet.json

``run`` trains (or store-loads) the standard experiment, simulates the
cohort and prints the users/second headline plus per-policy percentile
tables; ``--output`` also writes the exact aggregate as JSON, which
``summarize`` re-renders without re-simulating.  Each shard is one
kernel mega-batch and one journal cell, run in this process or, with
``--workers N``, on a supervised pool of ``N`` processes.

``--run-dir DIR`` arms the run for live observability: the journal goes
to ``DIR/fleet.journal``, a :class:`~repro.obs.timeline.TimeSeriesRecorder`
streams ``DIR/timeseries.jsonl``, and the final metrics land in
``DIR/metrics.json`` — attach ``python -m repro.obs.watch DIR`` from
another terminal while it runs.  ``--registry DIR`` registers the
finished run in a :class:`~repro.obs.runs.RunRegistry` for
``python -m repro.obs.runs ls|info|diff``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.version import __version__

_POLICIES = ("origin", "aas", "aasr", "rr")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate a cohort")
    run.add_argument("--users", type=int, default=1000, help="cohort size")
    run.add_argument("--seed", type=int, default=42, help="cohort sampling seed")
    run.add_argument(
        "--dataset", choices=("mhealth", "pamap2"), default="mhealth"
    )
    run.add_argument(
        "--train-seed", type=int, default=7, help="experiment/training seed"
    )
    run.add_argument("--policy", choices=_POLICIES, default="origin")
    run.add_argument("--rr-length", type=int, default=12)
    run.add_argument("--n-windows", type=int, default=600, help="slots per user")
    run.add_argument(
        "--timelines", type=int, default=4, help="distinct activity timelines"
    )
    run.add_argument(
        "--shard-size",
        type=int,
        default=256,
        help="users per kernel mega-batch, journal cell and executor unit",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="supervised pool processes (1 runs the shards in this process)",
    )
    run.add_argument(
        "--journal", default=None, help="checkpoint shard aggregates here"
    )
    run.add_argument(
        "--no-resume",
        action="store_true",
        help="discard an existing journal instead of resuming it",
    )
    run.add_argument("--output", default=None, help="write the result JSON here")
    run.add_argument(
        "--run-dir",
        default=None,
        help="watchable run directory (journal + timeseries + metrics)",
    )
    run.add_argument(
        "--timeseries-interval",
        type=float,
        default=1.0,
        help="seconds between timeseries samples (with --run-dir)",
    )
    run.add_argument(
        "--registry",
        default=None,
        help="register the finished run in this repro.obs.runs registry",
    )

    summarize = commands.add_parser(
        "summarize", help="re-render a saved fleet result"
    )
    summarize.add_argument("input", help="JSON written by `run --output`")
    return parser


def _policy(name: str, rr_length: int):
    from repro.core.policies import aas_policy, aasr_policy, origin_policy, rr_policy

    maker = {
        "origin": origin_policy,
        "aas": aas_policy,
        "aasr": aasr_policy,
        "rr": rr_policy,
    }[name]
    return maker(rr_length)


def _run(args: argparse.Namespace) -> int:
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import CohortSpec
    from repro.sim.experiment import HARExperiment, SimulationConfig

    config = SimulationConfig(n_windows=args.n_windows)
    builder = (
        HARExperiment.standard_mhealth
        if args.dataset == "mhealth"
        else HARExperiment.standard_pamap2
    )
    print(f"building {args.dataset} experiment (seed {args.train_seed}) ...")
    experiment = builder(seed=args.train_seed, config=config)

    spec = CohortSpec(
        size=args.users,
        seed=args.seed,
        base=replace(experiment.config, n_windows=args.n_windows),
        n_timelines=args.timelines,
    )
    runner = FleetRunner(
        experiment,
        spec,
        policies=[_policy(args.policy, args.rr_length)],
        shard_size=args.shard_size,
    )

    journal = args.journal
    obs = None
    recorder = None
    if args.run_dir:
        from repro.obs import Observability
        from repro.obs.timeline import attach_recorder

        os.makedirs(args.run_dir, exist_ok=True)
        journal = journal or os.path.join(args.run_dir, "fleet.journal")
        obs = Observability()
        recorder = attach_recorder(
            obs,
            os.path.join(args.run_dir, "timeseries.jsonl"),
            interval_s=args.timeseries_interval,
            meta={
                "job": "fleet",
                "users": args.users,
                "dataset": args.dataset,
                "policy": args.policy,
                "workers": args.workers,
            },
        )
        print(f"watchable run dir: {args.run_dir}")
    elif args.registry:
        from repro.obs import Observability

        obs = Observability()

    try:
        result = runner.run(
            workers=args.workers,
            journal=journal,
            resume=not args.no_resume,
            obs=obs,
        )
    finally:
        if recorder is not None:
            recorder.close()
    print(result.summary())

    if args.run_dir and obs is not None:
        obs.export(metrics_path=os.path.join(args.run_dir, "metrics.json"))
    if args.registry and obs is not None:
        from repro.obs.runs import RunRegistry

        run_id = RunRegistry(args.registry).record(
            kind="fleet",
            metrics=obs.metrics,
            meta={
                "users": result.users,
                "policies": result.policy_names,
                "workers": args.workers,
                "elapsed_s": round(result.elapsed_s, 3),
                "users_per_second": round(result.users_per_second, 1),
            },
            timeseries=(
                os.path.join(args.run_dir, "timeseries.jsonl")
                if args.run_dir
                else None
            ),
            run_dir=args.run_dir,
        )
        print(f"registered run {run_id} in {args.registry}")

    if args.output:
        document = {
            "kind": "fleet-run",
            "schema_version": 1,
            "meta": {
                "repro_version": __version__,
                "python": platform.python_version(),
                "timestamp_utc": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "argv": list(sys.argv),
            },
            "spec": spec.to_dict(),
            "policies": result.policy_names,
            "users": result.users,
            "users_simulated": result.users_simulated,
            "shards": result.shards,
            "journal_hits": result.journal_hits,
            "failed": [list(entry) for entry in result.failed],
            "elapsed_s": round(result.elapsed_s, 3),
            "users_per_second": round(result.users_per_second, 1),
            "aggregate": result.aggregate.to_dict(),
        }
        parent = os.path.dirname(os.path.abspath(args.output))
        os.makedirs(parent, exist_ok=True)
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def _summarize(args: argparse.Namespace) -> int:
    from repro.fleet.aggregate import FleetAggregate

    with open(args.input) as handle:
        document = json.load(handle)
    if document.get("kind") != "fleet-run":
        raise ReproError(f"{args.input} is not a fleet run payload")
    aggregate = FleetAggregate.from_dict(document["aggregate"])
    headline = (
        f"fleet: {document.get('users')} user(s), "
        f"{document.get('shards')} shard(s), "
        f"{document.get('elapsed_s')} s "
        f"({document.get('users_per_second')} users/s simulated)"
    )
    print(headline)
    for line in aggregate.summary_lines():
        print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _summarize(args)


if __name__ == "__main__":
    sys.exit(main())
