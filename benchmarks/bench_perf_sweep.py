"""Gate the sweep layer: mode identity and the tracing budget.

Sweeps the paper policy grid (16 policies x 2 seeds from seed 11, 40
windows each) on the standard MHEALTH-like experiment:

1. sequential — one material per seed shared by every policy of the
   grid, each seed's policies batched through the slot kernel;
2. parallel — the same sweep fanned out over a 4-worker supervised
   process pool;
3. traced — the sequential sweep under a fully enabled
   :class:`repro.obs.Observability` (tracer + metrics + a streaming
   :class:`~repro.obs.timeline.TimeSeriesRecorder` at a 50 ms cadence).

All three must be equal result for result (``ExperimentResult`` value
equality: columns, node stats, energy, confidence updates and fault
stats), and tracing plus live recording must cost <10% of the untraced
sequential sweep's wall time, taken as the minimum of 3 interleaved
pairs.  A traced sweep steps the same kernel batches as an untraced
one, so the untraced sequential sweep is the honest denominator.

``--cold-start`` gates the trained-bundle artifact store instead:
``standard_mhealth`` built in a fresh interpreter against an empty
store (trains + publishes) must miss it exactly once, and a build
against the warmed store must hit it exactly once and be at least 5x
faster.

``--chaos`` gates the resilience layer instead: the parallel sweep is
run plain, with the chaos harness armed but injecting nothing (the
supervision-overhead gate, budget <10%, minimum of 3 pairs), and under
an actual :class:`~repro.resilience.ChaosPlan` that crashes 34% of the
work units (rounded up) and hangs one past its task timeout.  All four modes
(including the perturbed one, which recovers via retries) must equal
the sequential reference.

Each gate exits nonzero on the first failed check and names the cores
this process may run on in its first line, since both budgets are
timings.  Run with ``PYTHONPATH=src python benchmarks/bench_perf_sweep.py
[--cold-start | --chaos]``.  Deliberately a standalone script, not a
pytest bench: it gates wall-clock ratios and controls its own
repetition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time

from repro.obs.observer import Observability
from repro.obs.timeline import attach_recorder
from repro.resilience import ChaosAction, ChaosPlan
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.sweep import PolicySweep, paper_policy_grid

#: Every sweep gate runs the grid over this horizon, seed count and
#: first seed, on this pool size.
N_WINDOWS = 40
N_SEEDS = 2
SEED = 11
WORKERS = 4

#: Interleaved pairs a budget takes the minimum of: each leg lasts a
#: fraction of a second, so one pair is at the mercy of machine noise.
BUDGET_REPS = 3

#: Acceptable tracing overhead (fraction of untraced wall time).
OVERHEAD_BUDGET = 0.10

#: Cadence of the timeseries recorder the traced leg streams.
TIMESERIES_INTERVAL_S = 0.05

#: Acceptable supervision overhead: chaos harness armed (timeouts,
#: per-attempt argument injection) but injecting nothing, vs the plain
#: parallel sweep.
SUPERVISION_BUDGET = 0.10

#: Fraction of chaos-gate work units killed on their first attempt.
CHAOS_CRASH_FRACTION = 0.34

#: The chaos gate's task timeout, and how long its hung unit sleeps.
TASK_TIMEOUT_S = 20.0
HANG_S = 45.0

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
        "--cold-start",
        action="store_true",
        help="gate the artifact store instead: standard_mhealth in a fresh "
        "process, empty vs warm store",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="gate the resilience layer instead: supervised sweep with "
        f"{CHAOS_CRASH_FRACTION * 100:.0f}%% of units chaos-crashed plus one hang",
    )
    return parser.parse_args(argv)


def _cores() -> int:
    return len(os.sched_getaffinity(0))


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


def run_cold_start() -> int:
    """Empty-store vs warm-store build time for ``standard_mhealth``."""
    print(f"store gate: standard_mhealth(seed=7), fresh process per build, {_cores()} cores")
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as store_dir:
        print("cold build (empty store, trains + publishes) ...", flush=True)
        cold = _fresh_process_build(store_dir)
        print(f"cold  : {cold['seconds']:8.2f} s  (misses={cold['misses']:g})", flush=True)
        if cold["misses"] != 1 or cold["hits"] != 0:
            print("FAIL: cold build did not miss the empty store exactly once")
            return 1
        warm = _fresh_process_build(store_dir)
        print(f"warm  : {warm['seconds']:8.2f} s  (hits={warm['hits']:g})", flush=True)
        if warm["hits"] != 1 or warm["misses"] != 0:
            print("FAIL: warm build did not hit the store exactly once")
            return 1
    speedup = cold["seconds"] / warm["seconds"]
    print(f"warm-store speedup: {speedup:.1f}x (floor {STORE_SPEEDUP_FLOOR:.0f}x)")
    if speedup < STORE_SPEEDUP_FLOOR:
        print("FAIL: warm store is not meaningfully faster than retraining")
        return 1
    return 0


def _gate_experiment() -> HARExperiment:
    return HARExperiment.standard_mhealth(
        seed=7, config=SimulationConfig(n_windows=N_WINDOWS)
    )


def timed_sweep(experiment, policies, *, workers, obs=None, **run_kwargs):
    """One sweep run, wall-timed; returns (seconds, SweepResult)."""
    sweep = PolicySweep(experiment, n_seeds=N_SEEDS, include_baselines=False)
    start = time.perf_counter()
    result = sweep.run(policies, seed=SEED, workers=workers, obs=obs, **run_kwargs)
    return time.perf_counter() - start, result


def run_chaos() -> int:
    """Supervised sweep under injected crashes/hangs; see module doc."""
    policies = paper_policy_grid()
    print(
        f"chaos gate: {len(policies)} policies x {N_SEEDS} seeds, "
        f"{N_WINDOWS} windows, {_cores()} cores",
        flush=True,
    )
    experiment = _gate_experiment()
    sweep = PolicySweep(experiment, n_seeds=N_SEEDS, include_baselines=False)
    # Keep the pool smaller than the unit count so the hang victim (the
    # last unit) is still queued while the crash wave breaks the pool;
    # otherwise BrokenProcessPool converts the in-flight hang into a
    # crash charge and the timeout path goes unexercised.
    workers = WORKERS
    while True:
        n_units = len(sweep.units(policies, workers=workers))
        if workers < n_units or workers <= 2:
            break
        workers = n_units - 1
    n_crashed = min(
        max(1, math.ceil(CHAOS_CRASH_FRACTION * n_units)), n_units - 1
    )
    actions = {index: ChaosAction(kind="crash") for index in range(n_crashed)}
    actions[n_units - 1] = ChaosAction(kind="hang", hang_s=HANG_S)
    plan = ChaosPlan(actions=actions)
    n_hung = 1

    print(
        f"workers={workers}, units={n_units}: "
        f"{n_crashed} crash + {n_hung} hang scheduled",
        flush=True,
    )
    run = lambda **kw: timed_sweep(experiment, policies, **kw)  # noqa: E731
    t_seq, r_seq = run(workers=1)
    print(f"sequential reference   : {t_seq:8.2f} s", flush=True)
    t_par, r_par = run(workers=workers)
    print(f"parallel plain         : {t_par:8.2f} s", flush=True)
    # Harness armed — timeouts ticking, per-attempt argument injection
    # live — but injecting nothing: the supervision machinery's own
    # overhead.
    t_armed, r_armed = None, None
    for _ in range(BUDGET_REPS):
        t_par_i, _ = run(workers=workers)
        t_armed_i, r_armed = run(
            workers=workers, chaos=ChaosPlan(), task_timeout_s=TASK_TIMEOUT_S
        )
        t_par = min(t_par, t_par_i)
        t_armed = t_armed_i if t_armed is None else min(t_armed, t_armed_i)
    overhead = (t_armed - t_par) / t_par
    print(
        f"harness armed, no chaos: {t_armed:8.2f} s "
        f"({overhead:+.1%} vs plain parallel)",
        flush=True,
    )
    t_chaos, r_chaos = run(workers=workers, chaos=plan, task_timeout_s=TASK_TIMEOUT_S)
    degradation = r_chaos.degradation
    print(
        f"chaos-injected         : {t_chaos:8.2f} s "
        f"({degradation.summary().splitlines()[0] if degradation else 'no incidents?'})",
        flush=True,
    )

    if not all(r_seq.policies == other.policies for other in (r_par, r_armed, r_chaos)):
        print("FAIL: supervised/chaos sweeps diverged from the sequential reference")
        return 1
    print("results identical across all four modes")
    if degradation is None or degradation.crashes < n_crashed or not degradation.complete:
        print("FAIL: the chaos plan did not fire (or cells were lost)")
        return 1
    if degradation.timeouts < n_hung:
        print("FAIL: the scheduled hang was not reaped by the task timeout")
        return 1
    if overhead > SUPERVISION_BUDGET:
        print(
            f"FAIL: supervision overhead {overhead:.1%} exceeds the "
            f"{SUPERVISION_BUDGET:.0%} budget"
        )
        return 1
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cold_start:
        return run_cold_start()
    if args.chaos:
        return run_chaos()
    policies = paper_policy_grid()
    print(
        f"sweep gate: {len(policies)} policies x {N_SEEDS} seeds, {N_WINDOWS} "
        f"windows, workers={WORKERS}, {_cores()} cores",
        flush=True,
    )
    experiment = _gate_experiment()

    run = lambda **kw: timed_sweep(experiment, policies, **kw)  # noqa: E731
    t_seq, r_seq = run(workers=1)
    print(f"sequential          : {t_seq:8.2f} s", flush=True)
    t_parallel, r_parallel = run(workers=WORKERS)
    print(f"parallel x{WORKERS}          : {t_parallel:8.2f} s", flush=True)

    # Overhead pass: the sequential sweep under full observability
    # against the same sweep untraced — both step the same kernel
    # batches.  The traced leg also streams a TimeSeriesRecorder at a
    # hot cadence, so the budget gates tracing AND live recording
    # together: a watchable run must not cost more than a traced one did.
    t_base, t_traced = None, None
    ts_samples = 0
    with tempfile.TemporaryDirectory(prefix="bench-ts-") as ts_dir:
        for rep in range(BUDGET_REPS):
            t_plain_i, r_untraced = run(workers=1)
            obs = Observability()
            recorder = attach_recorder(
                obs,
                os.path.join(ts_dir, f"timeseries-{rep}.jsonl"),
                interval_s=TIMESERIES_INTERVAL_S,
            )
            t_traced_i, r_traced = run(workers=1, obs=obs)
            recorder.close()
            ts_samples = recorder.samples_written
            t_base = t_plain_i if t_base is None else min(t_base, t_plain_i)
            t_traced = t_traced_i if t_traced is None else min(t_traced, t_traced_i)
    overhead = (t_traced - t_base) / t_base
    print(
        f"traced              : {t_traced:8.2f} s "
        f"({overhead:+.1%} vs untraced sequential {t_base:.2f} s, "
        f"{len(obs.tracer.events)} events, "
        f"{ts_samples} timeseries sample(s))",
        flush=True,
    )

    if not all(
        r_seq.policies == other.policies for other in (r_parallel, r_traced, r_untraced)
    ):
        print("FAIL: parallel/traced sweeps diverged from the sequential sweep")
        return 1
    print("results identical: sequential, parallel, traced")
    if overhead > OVERHEAD_BUDGET:
        print(
            f"FAIL: tracing overhead {overhead:.1%} exceeds the "
            f"{OVERHEAD_BUDGET:.0%} budget"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
