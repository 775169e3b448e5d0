"""Benchmark the sweep performance layer (prediction cache + workers).

Times the paper policy grid on a standard MHEALTH-like experiment and
writes the machine-readable results to
``benchmarks/results/BENCH_sweep.json``:

1. sequential — one material per seed shared by every policy of the
   grid, each seed's policies batched through the slot kernel;
2. parallel — the same sweep fanned out over a supervised process pool.

Both must produce byte-identical per-slot records; the script exits
nonzero if they diverge, which is what the CI smoke step checks
(``--smoke`` shrinks the horizon/seeds so it finishes quickly and
leaves the committed JSON untouched unless ``--output`` is given).

A third pass re-runs the sequential sweep under a fully enabled
:class:`repro.obs.Observability` (tracer + metrics + a streaming
:class:`~repro.obs.timeline.TimeSeriesRecorder` at a 50 ms cadence) and
reports the combined tracing + live-recording overhead as a percentage
of the untraced sequential sweep's wall time — the budget is <10%,
enforced in ``--smoke`` mode.  A traced sweep steps the same kernel
batches as an untraced one, so the untraced sequential sweep is the
honest denominator.  The traced sweep must match the other sweeps byte
for byte.

``--cold-start`` benchmarks the trained-bundle artifact store instead:
``standard_mhealth`` built in a fresh interpreter against an empty
store (trains + publishes) vs a warm store (rehydrates from disk), each
build its own subprocess.  The warm build must be at least 5x faster;
results go to ``benchmarks/results/BENCH_store.json``.

``--chaos`` benchmarks the resilience layer instead: the parallel sweep
is run three ways — plain, with the chaos harness armed but injecting
nothing (the supervision-overhead gate, budget <10%), and under an
actual :class:`~repro.resilience.ChaosPlan` that crashes >=30% of the
work units and hangs one past its task timeout.  All runs (including
the perturbed one, which recovers via retries) must stay byte-identical
to the sequential reference; results go to
``benchmarks/results/BENCH_resilience.json``.

Run with ``PYTHONPATH=src python benchmarks/bench_perf_sweep.py``.
Deliberately a standalone script, not a pytest bench: it measures
wall-clock ratios and must control its own repetition and output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

from repro.obs.observer import Observability
from repro.obs.timeline import attach_recorder
from repro.resilience import ChaosAction, ChaosPlan
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.sweep import PolicySweep, paper_policy_grid

try:
    from benchmarks.runmeta import WallClock, write_stamped_json
except ImportError:  # invoked as a script: sibling import
    from runmeta import WallClock, write_stamped_json

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "results", "BENCH_sweep.json")
STORE_OUTPUT = os.path.join(os.path.dirname(__file__), "results", "BENCH_store.json")
RESILIENCE_OUTPUT = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_resilience.json"
)

#: Acceptable tracing overhead (fraction of untraced wall time).
OVERHEAD_BUDGET = 0.10

#: Acceptable supervision overhead: chaos harness armed (timeouts,
#: per-attempt argument injection) but injecting nothing, vs the plain
#: parallel sweep.
SUPERVISION_BUDGET = 0.10

#: Fraction of chaos-bench work units killed on their first attempt.
CHAOS_CRASH_FRACTION = 0.34

#: Minimum warm-store speedup over a cold (training) build; the artifact
#: store's contract is "rehydration is much cheaper than retraining".
STORE_SPEEDUP_FLOOR = 5.0

#: Timed inside a *fresh interpreter* so a warm build pays the honest
#: process-start price: imports, dataset synthesis, checkpoint reads.
_COLD_START_SNIPPET = """\
import json, sys, time
from repro.obs.observer import Observability
from repro.sim.experiment import HARExperiment

obs = Observability()
start = time.perf_counter()
HARExperiment.standard_mhealth(seed=7, obs=obs)
elapsed = time.perf_counter() - start
counters = obs.metrics.to_dict()["counters"]
json.dump(
    {
        "seconds": elapsed,
        "hits": counters.get("store.hit", 0),
        "misses": counters.get("store.miss", 0),
    },
    sys.stdout,
)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short horizon; verify identity + overhead budget, skip the JSON",
    )
    parser.add_argument("--seeds", type=int, default=4, help="seeds per sweep")
    parser.add_argument("--workers", type=int, default=4, help="parallel pool size")
    parser.add_argument(
        "--n-windows", type=int, default=300, help="slots per run (one window each)"
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"JSON destination (default {DEFAULT_OUTPUT}; never written in --smoke "
        "mode unless given explicitly)",
    )
    parser.add_argument(
        "--cold-start",
        action="store_true",
        help="benchmark the artifact store instead: standard_mhealth in a fresh "
        f"process, empty vs warm store (JSON default {STORE_OUTPUT})",
    )
    parser.add_argument(
        "--warm-reps", type=int, default=3, help="warm-store builds to min over"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="benchmark the resilience layer instead: supervised sweep with "
        f">= {CHAOS_CRASH_FRACTION:.0%} of units chaos-crashed plus one hang "
        f"(JSON default {RESILIENCE_OUTPUT})",
    )
    return parser.parse_args(argv)


def _fresh_process_build(store_dir: str) -> dict:
    """Time ``standard_mhealth`` in a brand-new interpreter."""
    env = dict(os.environ)
    env["REPRO_STORE_DIR"] = store_dir
    env.pop("REPRO_STORE", None)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def run_cold_start(args) -> int:
    """Empty-store vs warm-store build time for ``standard_mhealth``."""
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as store_dir:
        with WallClock() as total_clock:
            print("cold build (empty store, trains + publishes) ...", flush=True)
            cold = _fresh_process_build(store_dir)
            print(f"cold  : {cold['seconds']:8.2f} s  (misses={cold['misses']:g})", flush=True)
            if cold["misses"] != 1 or cold["hits"] != 0:
                print("FAIL: cold build did not miss the empty store exactly once")
                return 1
            warm_runs = []
            for index in range(max(1, args.warm_reps)):
                warm = _fresh_process_build(store_dir)
                warm_runs.append(warm["seconds"])
                print(
                    f"warm {index}: {warm['seconds']:8.2f} s  (hits={warm['hits']:g})",
                    flush=True,
                )
                if warm["hits"] != 1 or warm["misses"] != 0:
                    print("FAIL: warm build did not hit the store exactly once")
                    return 1
        warm_best = min(warm_runs)
        speedup = cold["seconds"] / warm_best
        print(f"warm-store speedup: {speedup:.1f}x (floor {STORE_SPEEDUP_FLOOR:.0f}x)")
        if speedup < STORE_SPEEDUP_FLOOR:
            print("FAIL: warm store is not meaningfully faster than retraining")
            return 1

        report = {
            "bench": "trained_bundle_store_cold_start",
            "config": {
                "dataset": "mhealth-like",
                "experiment": "standard_mhealth(seed=7)",
                "warm_reps": len(warm_runs),
                "fresh_process_per_build": True,
                "cpu_count": os.cpu_count(),
                "smoke": args.smoke,
            },
            "timings_s": {
                "cold_empty_store": round(cold["seconds"], 3),
                "warm_store_best": round(warm_best, 3),
                "warm_store_all": [round(value, 3) for value in warm_runs],
            },
            "speedup": {
                "warm_vs_cold": round(speedup, 2),
                "floor": STORE_SPEEDUP_FLOOR,
            },
        }
        output = args.output
        if output is None and not args.smoke:
            output = STORE_OUTPUT
        if output:
            write_stamped_json(output, report, wall_time_s=total_clock.elapsed_s)
            print(f"wrote {output}")
    return 0


def results_identical(a, b):
    """Byte-identity of two SweepResults over the whole grid."""
    if set(a.policies) != set(b.policies):
        return False
    for name in a.policies:
        lhs, rhs = a.policy(name), b.policy(name)
        if lhs.records != rhs.records:
            return False
        if lhs.node_stats != rhs.node_stats:
            return False
        if lhs.comm_energy_j != rhs.comm_energy_j:
            return False
    return True


def timed_sweep(experiment, policies, *, n_seeds, seed, workers, obs=None, **run_kwargs):
    """One sweep run, wall-timed; returns (seconds, SweepResult)."""
    sweep = PolicySweep(experiment, n_seeds=n_seeds, include_baselines=False)
    with WallClock() as clock:
        result = sweep.run(policies, seed=seed, workers=workers, obs=obs, **run_kwargs)
    return clock.elapsed_s, result


def run_chaos(args) -> int:
    """Supervised sweep under injected crashes/hangs; see module doc."""
    policies = paper_policy_grid()
    if args.smoke:
        n_windows, n_seeds = 40, 2
        task_timeout_s, hang_s = 20.0, 45.0
    else:
        n_windows, n_seeds = args.n_windows, args.seeds
        task_timeout_s, hang_s = 120.0, 150.0
    print(
        f"building experiment (n_windows={n_windows}, grid={len(policies)} "
        f"policies, seeds={n_seeds}) ...",
        flush=True,
    )
    experiment = HARExperiment.standard_mhealth(
        seed=7, config=SimulationConfig(n_windows=n_windows)
    )
    sweep = PolicySweep(experiment, n_seeds=n_seeds, include_baselines=False)
    # Keep the pool smaller than the unit count so the hang victim (the
    # last unit) is still queued while the crash wave breaks the pool;
    # otherwise BrokenProcessPool converts the in-flight hang into a
    # crash charge and the timeout path goes unexercised.
    workers = max(2, args.workers)
    while True:
        n_units = len(sweep.units(policies, workers=workers))
        if workers < n_units or workers <= 2:
            break
        workers = n_units - 1
    n_crashed = min(
        max(1, math.ceil(CHAOS_CRASH_FRACTION * n_units)), n_units - 1
    )
    actions = {index: ChaosAction(kind="crash") for index in range(n_crashed)}
    actions[n_units - 1] = ChaosAction(kind="hang", hang_s=hang_s)
    plan = ChaosPlan(actions=actions)
    n_hung = 1

    print(
        f"workers={workers}, units={n_units}: "
        f"{n_crashed} crash + {n_hung} hang scheduled",
        flush=True,
    )
    run = lambda **kw: timed_sweep(  # noqa: E731
        experiment, policies, n_seeds=n_seeds, seed=11, **kw
    )
    with WallClock() as total_clock:
        t_seq, r_seq = run(workers=1)
        print(f"sequential reference   : {t_seq:8.2f} s", flush=True)
        t_par, r_par = run(workers=workers)
        print(f"parallel plain         : {t_par:8.2f} s", flush=True)
        # Harness armed — timeouts ticking, per-attempt argument
        # injection live — but injecting nothing: the supervision
        # machinery's own overhead.
        reps = 3 if args.smoke else 1
        t_armed, r_armed = None, None
        for _ in range(reps):
            t_par_i, _ = run(workers=workers)
            t_armed_i, r_armed = run(
                workers=workers, chaos=ChaosPlan(), task_timeout_s=task_timeout_s
            )
            t_par = min(t_par, t_par_i)
            t_armed = t_armed_i if t_armed is None else min(t_armed, t_armed_i)
        overhead = (t_armed - t_par) / t_par
        print(
            f"harness armed, no chaos: {t_armed:8.2f} s "
            f"({overhead:+.1%} vs plain parallel)",
            flush=True,
        )
        t_chaos, r_chaos = run(
            workers=workers, chaos=plan, task_timeout_s=task_timeout_s
        )
        degradation = r_chaos.degradation
        print(
            f"chaos-injected         : {t_chaos:8.2f} s "
            f"({degradation.summary().splitlines()[0] if degradation else 'no incidents?'})",
            flush=True,
        )

    identical = (
        results_identical(r_seq, r_par)
        and results_identical(r_seq, r_armed)
        and results_identical(r_seq, r_chaos)
    )
    if not identical:
        print("FAIL: supervised/chaos sweeps diverged from the sequential reference")
        return 1
    print("per-slot records byte-identical across all four modes")
    if degradation is None or degradation.crashes < n_crashed or not degradation.complete:
        print("FAIL: the chaos plan did not fire (or cells were lost)")
        return 1
    if degradation.timeouts < n_hung:
        print("FAIL: the scheduled hang was not reaped by the task timeout")
        return 1
    if args.smoke and overhead > SUPERVISION_BUDGET:
        print(
            f"FAIL: supervision overhead {overhead:.1%} exceeds the "
            f"{SUPERVISION_BUDGET:.0%} budget"
        )
        return 1

    report = {
        "bench": "sweep_resilience_chaos",
        "config": {
            "dataset": "mhealth-like",
            "n_windows": n_windows,
            "n_seeds": n_seeds,
            "n_policies": len(policies),
            "workers": workers,
            "n_units": n_units,
            "crash_fraction": CHAOS_CRASH_FRACTION,
            "crashed_units": n_crashed,
            "hung_units": n_hung,
            "task_timeout_s": task_timeout_s,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "timings_s": {
            "sequential_reference": round(t_seq, 3),
            "parallel_plain": round(t_par, 3),
            "parallel_harness_armed": round(t_armed, 3),
            "parallel_chaos_injected": round(t_chaos, 3),
        },
        "supervision": {
            "overhead_fraction": round(overhead, 4),
            "budget_fraction": SUPERVISION_BUDGET,
        },
        "chaos_recovery": {
            "crashes": degradation.crashes,
            "timeouts": degradation.timeouts,
            "retries": degradation.retries,
            "pool_restarts": degradation.pool_restarts,
            "failed_cells": degradation.failed_cells,
            "recovered": degradation.complete,
        },
        "records_identical": identical,
    }
    print(json.dumps({**report["supervision"], **report["chaos_recovery"]}, indent=2))
    output = args.output
    if output is None and not args.smoke:
        output = RESILIENCE_OUTPUT
    if output:
        write_stamped_json(output, report, wall_time_s=total_clock.elapsed_s)
        print(f"wrote {output}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cold_start:
        return run_cold_start(args)
    if args.chaos:
        return run_chaos(args)
    policies = paper_policy_grid()
    if args.smoke:
        n_windows, n_seeds = 40, 2
    else:
        n_windows, n_seeds = args.n_windows, args.seeds

    print(
        f"building experiment (n_windows={n_windows}, grid={len(policies)} policies, "
        f"seeds={n_seeds}, workers={args.workers}) ...",
        flush=True,
    )
    experiment = HARExperiment.standard_mhealth(
        seed=7, config=SimulationConfig(n_windows=n_windows)
    )

    run = lambda **kw: timed_sweep(  # noqa: E731
        experiment, policies, n_seeds=n_seeds, seed=11, **kw
    )
    with WallClock() as total_clock:
        t_seq, r_seq = run(workers=1)
        print(f"sequential          : {t_seq:8.2f} s", flush=True)
        t_parallel, r_parallel = run(workers=args.workers)
        print(f"parallel x{args.workers}          : {t_parallel:8.2f} s", flush=True)

        # Overhead pass: the sequential sweep under full observability
        # against the same sweep untraced — both step the same kernel
        # batches.  In smoke mode each leg takes a fraction of a second,
        # so take min-of-3 interleaved pairs to keep the budget gate
        # stable against machine noise.  The traced leg also streams a
        # TimeSeriesRecorder at a hot cadence, so the <10% budget gates
        # tracing AND live recording together — a watchable run must
        # not cost more than a traced one did.
        reps = 3 if args.smoke else 1
        t_base, t_traced = None, None
        ts_samples = 0
        with tempfile.TemporaryDirectory(prefix="bench-ts-") as ts_dir:
            for rep in range(reps):
                t_plain_i, r_untraced = run(workers=1)
                obs = Observability()
                recorder = attach_recorder(
                    obs,
                    os.path.join(ts_dir, f"timeseries-{rep}.jsonl"),
                    interval_s=0.05,
                )
                t_traced_i, r_traced = run(workers=1, obs=obs)
                recorder.close()
                ts_samples = recorder.samples_written
                t_base = t_plain_i if t_base is None else min(t_base, t_plain_i)
                t_traced = (
                    t_traced_i if t_traced is None else min(t_traced, t_traced_i)
                )
        overhead = (t_traced - t_base) / t_base
        print(
            f"traced              : {t_traced:8.2f} s "
            f"({overhead:+.1%} vs untraced sequential {t_base:.2f} s, "
            f"{len(obs.tracer.events)} events, "
            f"{ts_samples} timeseries sample(s))",
            flush=True,
        )

    identical = all(
        results_identical(r_seq, other) for other in (r_parallel, r_traced, r_untraced)
    )
    if not identical:
        print("FAIL: parallel/traced sweeps diverged from the sequential sweep")
        return 1
    print("per-slot records byte-identical: sequential, parallel, traced")
    if args.smoke and overhead > OVERHEAD_BUDGET:
        print(
            f"FAIL: tracing overhead {overhead:.1%} exceeds the "
            f"{OVERHEAD_BUDGET:.0%} budget"
        )
        return 1

    report = {
        "bench": "policy_sweep_performance",
        "config": {
            "dataset": "mhealth-like",
            "n_windows": n_windows,
            "n_seeds": n_seeds,
            "n_policies": len(policies),
            "workers": args.workers,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "timings_s": {
            "sequential": round(t_seq, 3),
            f"parallel_x{args.workers}": round(t_parallel, 3),
            "sequential_untraced": round(t_base, 3),
            "sequential_traced": round(t_traced, 3),
        },
        "tracing": {
            "overhead_fraction": round(overhead, 4),
            "budget_fraction": OVERHEAD_BUDGET,
            "trace_events": len(obs.tracer.events),
            "timeseries_samples": ts_samples,
        },
        "records_identical": identical,
    }
    print(json.dumps(report["tracing"], indent=2))

    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    if output:
        write_stamped_json(output, report, wall_time_s=total_clock.elapsed_s)
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
