"""Benchmark the fleet layer: users/second plus the invariance gates.

Simulates a reproducible heterogeneous cohort (``repro.fleet``) on the
standard MHEALTH-like experiment and writes the machine-readable
results to ``benchmarks/results/BENCH_fleet.json``:

1. **Headline** — ``FleetRunner.run`` over the full cohort, reporting
   simulated **users/second** (the committed figure).
2. **Invariance** — the same cohort re-run with a different shard
   size and with a worker pool must reproduce the sequential
   aggregate statistics byte for byte, and a journal truncated after
   one cell must resume to the same bytes.

That each user's row equals its own ``HARExperiment.run`` of every
policy is a unit test (``tests/test_fleet_runner.py``), not a timed leg.

``--smoke`` shrinks the cohort/horizon so CI finishes quickly and
leaves the committed JSON untouched unless ``--output`` is given; the
invariance and resume gates still apply.

Run with ``PYTHONPATH=src python benchmarks/bench_fleet.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.core.policies import origin_policy
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CohortSpec
from repro.sim.experiment import HARExperiment, SimulationConfig

try:
    from benchmarks.runmeta import WallClock, write_stamped_json
except ImportError:  # invoked as a script: sibling import
    from runmeta import WallClock, write_stamped_json

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "results", "BENCH_fleet.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small cohort + short horizon; enforce gates, skip the JSON",
    )
    parser.add_argument(
        "--users", type=int, default=None, help="headline cohort size"
    )
    parser.add_argument(
        "--n-windows", type=int, default=None, help="slots per user"
    )
    parser.add_argument("--shard-size", type=int, default=None)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42, help="cohort sampling seed")
    parser.add_argument(
        "--output",
        default=None,
        help=f"JSON destination (default {DEFAULT_OUTPUT}; never written in "
        "--smoke mode unless given explicitly)",
    )
    args = parser.parse_args(argv)
    if args.users is None:
        args.users = 300 if args.smoke else 2000
    if args.n_windows is None:
        args.n_windows = 60 if args.smoke else 200
    if args.shard_size is None:
        args.shard_size = 64 if args.smoke else 256
    return args


def headline_leg(runner, workers):
    """Sequential headline + parallel/shard/journal invariance gates."""
    sequential = runner.run()
    reference = sequential.aggregate.stats_json()

    parallel = runner.run(workers=workers)
    if parallel.aggregate.stats_json() != reference:
        raise SystemExit("FAIL: parallel aggregate diverges from sequential")

    other_layout = FleetRunner(
        runner.experiment,
        runner.spec,
        policies=runner.policies,
        shard_size=max(1, runner.shard_size // 2),
    ).run()
    if other_layout.aggregate.stats_json() != reference:
        raise SystemExit("FAIL: shard layout leaked into aggregate statistics")

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "fleet.journal")
        runner.run(journal=journal_path)
        with open(journal_path) as handle:
            lines = handle.readlines()
        with open(journal_path, "w") as handle:
            handle.writelines(lines[:2])  # header + first cell: a crash
        resumed = runner.run(journal=journal_path)
        if resumed.aggregate.stats_json() != reference:
            raise SystemExit("FAIL: journal resume diverges from clean run")
        if resumed.journal_hits != 1:
            raise SystemExit("FAIL: journal resume recomputed the surviving cell")

    return sequential, {
        "users": sequential.users,
        "shards": sequential.shards,
        "sequential_s": round(sequential.elapsed_s, 3),
        "users_per_second": round(sequential.users_per_second, 1),
        "parallel_workers": workers,
        "parallel_s": round(parallel.elapsed_s, 3),
        "parallel_users_per_second": round(parallel.users_per_second, 1),
        "invariance": {
            "parallel_identical": True,
            "shard_layout_identical": True,
            "journal_resume_identical": True,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    print(
        f"fleet bench: {args.users} users, {args.n_windows} windows, "
        f"shard {args.shard_size}, workers {args.workers}"
        + (" [smoke]" if args.smoke else "")
    )

    with WallClock() as total_clock:
        config = SimulationConfig(n_windows=args.n_windows)
        experiment = HARExperiment.standard_mhealth(seed=7, config=config)
        spec = CohortSpec(size=args.users, seed=args.seed, base=experiment.config)
        policies = [origin_policy(12)]

        runner = FleetRunner(
            experiment, spec, policies=policies, shard_size=args.shard_size
        )
        result, headline = headline_leg(runner, args.workers)
        print(
            f"headline: {headline['users']} users in "
            f"{headline['sequential_s']} s sequential -> "
            f"{headline['users_per_second']} users/s "
            f"({headline['parallel_users_per_second']} users/s with "
            f"{args.workers} workers); invariance gates passed"
        )
        origin = result.aggregate.distribution(policies[0].name, "event_accuracy")
        print(
            f"cohort event accuracy: mean={origin.mean:.4f} "
            f"p5={origin.percentile(5):.4f} p50={origin.percentile(50):.4f} "
            f"p95={origin.percentile(95):.4f}"
        )

    payload = {
        "benchmark": "fleet",
        "config": {
            "users": args.users,
            "n_windows": args.n_windows,
            "shard_size": args.shard_size,
            "workers": args.workers,
            "cohort_seed": args.seed,
            "smoke": args.smoke,
        },
        "users_per_second": headline["users_per_second"],
        "headline": headline,
        "cohort_event_accuracy": {
            "mean": round(origin.mean, 4),
            "p5": round(origin.percentile(5), 4),
            "p50": round(origin.percentile(50), 4),
            "p95": round(origin.percentile(95), 4),
        },
    }
    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    if output is not None:
        write_stamped_json(output, payload, wall_time_s=total_clock.elapsed_s)
        print(f"wrote {output}")
    # Exercise the exact serialization path even when not writing.
    FleetAggregate.from_dict(result.aggregate.to_dict())
    print(f"total wall time {total_clock.elapsed_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
