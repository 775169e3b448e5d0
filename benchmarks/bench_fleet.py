"""Gate the fleet layer: parallel, shard-layout and resume invariance.

Simulates a reproducible heterogeneous cohort (``repro.fleet``: 300
users from cohort seed 42, 60 windows each, ``origin_policy(12)``) on
the standard MHEALTH-like experiment in shards of 64, then re-runs it
on 2 workers, with half the shard size and from a journal truncated
after one cell.  Each re-run must reproduce the sequential aggregate
statistics byte for byte, and the resumed run must reuse exactly the
one surviving cell.  The aggregate must also survive its
``to_dict``/``from_dict`` round trip.

That each user's row equals its own ``HARExperiment.run`` of every
policy is a unit test (``tests/test_fleet_runner.py``), not a gate.

Exits nonzero on the first failed check.  Run with
``PYTHONPATH=src python benchmarks/bench_fleet.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.core.policies import origin_policy
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CohortSpec
from repro.sim.experiment import HARExperiment, SimulationConfig

USERS = 300
N_WINDOWS = 60
SHARD_SIZE = 64
WORKERS = 2
COHORT_SEED = 42


def check_invariance(runner):
    """Sequential run + parallel/shard/journal invariance gates."""
    sequential = runner.run()
    reference = sequential.aggregate.stats_json()

    parallel = runner.run(workers=WORKERS)
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
    return sequential, parallel


def main() -> int:
    print(
        f"fleet gate: {USERS} users, {N_WINDOWS} windows, shard {SHARD_SIZE}, "
        f"workers {WORKERS}, {len(os.sched_getaffinity(0))} cores"
    )
    config = SimulationConfig(n_windows=N_WINDOWS)
    experiment = HARExperiment.standard_mhealth(seed=7, config=config)
    spec = CohortSpec(size=USERS, seed=COHORT_SEED, base=experiment.config)
    policies = [origin_policy(12)]
    runner = FleetRunner(experiment, spec, policies=policies, shard_size=SHARD_SIZE)
    result, parallel = check_invariance(runner)
    print(
        f"{result.users} users in {result.elapsed_s:.3f} s sequential, "
        f"{parallel.elapsed_s:.3f} s on {WORKERS} workers; invariance gates passed"
    )
    origin = result.aggregate.distribution(policies[0].name, "event_accuracy")
    print(
        f"cohort event accuracy: mean={origin.mean:.4f} "
        f"p5={origin.percentile(5):.4f} p50={origin.percentile(50):.4f} "
        f"p95={origin.percentile(95):.4f}"
    )
    FleetAggregate.from_dict(result.aggregate.to_dict())
    return 0


if __name__ == "__main__":
    sys.exit(main())
