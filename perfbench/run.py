"""The repository benchmark: one workload, one seed, one measured run.

::

    python3 perfbench/run.py --workload sweep_fresh --seed 3 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sweep_fresh``: ``PolicySweep.run`` over the paper grid plus both
  baselines on fresh seeds, sequential;
* ``sweep_parallel``: the same inputs with one worker per core;
* ``fleet_cohort``: heterogeneous ``origin_policy(12)`` cohorts through
  ``FleetRunner.run()``;
* ``serve_closed``: lockstep tape sessions through an in-process server;
* ``serve_open``: open-loop Poisson replay against a serving process
  (runnable, not listed in ``BENCHMARK.json``; see ``LAYERS.md``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same units untraced and then traced (wrappers around each layer's public
calls) and prints the per-layer ledger.  Every run checks the committed
golden digest, prints the digests of its own units, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402  (sets the environment before numpy loads)
import digests  # noqa: E402
import layers  # noqa: E402
import serving  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_self_times  # noqa: E402

WORKLOADS = ("sweep_fresh", "sweep_parallel", "fleet_cohort", "serve_closed", "serve_open")

#: Extra fresh processes whose set-up is timed, besides the run's own.
SETUP_PROBES = 2

#: End-to-end metrics and their units, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("users_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rate_wps", "1/s"),
    ("peak_rss_mb", "MB"),
)


def make_workload(name: str, trace: bool) -> Any:
    if name == "sweep_fresh":
        return workloads.SweepWorkload(workers=1)
    if name == "sweep_parallel":
        return workloads.SweepWorkload(workers=common.nproc())
    if name == "fleet_cohort":
        return workloads.FleetWorkload()
    if name == "serve_closed":
        return serving.ClosedServeWorkload()
    return serving.ServeWorkload(trace=trace)


def store_entry_stamp(store: Dict[str, Any]) -> Any:
    """The store entry's manifest mtime: a rebuild during timing changes it."""
    path = os.path.join(common.STORE_DIR, "objects", str(store["key"]), "manifest.json")
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> int:
    """Set the workload up in this fresh process, report the time, tear down."""
    workload = make_workload(name, trace=False)
    workload.setup(seed)
    elapsed = common.process_age_s()
    factor = common.speed([common.calibrate()])
    workload.teardown()
    print(json.dumps({"setup_s": elapsed, "speed": factor}))
    return 0


def probe_setups(name: str, seed: int, count: int) -> List[Dict[str, float]]:
    """Set-up time (and host speed right after it) of ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", "0",
                "--trace", "0",
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------


def run_batch(name: str, workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if name == "serve_closed":
        rerun = workload.golden_unit
    else:
        rerun = lambda: workload.run_unit(digests.GOLDEN_SEED, 0)  # noqa: E731
    if not trace:
        units = workloads.run_units(workload, seed, seconds)
        golden = workloads.check_golden(name, seed, units, rerun)
        return {"units": units, "golden": golden, "metrics": workloads.batch_metrics(units)}

    untraced = workloads.run_units(workload, seed, seconds / 2.0)
    tracer = Tracer()
    useful = layers.UsefulRows()
    if name == "serve_closed":
        tracer.install(layers.serve_probes(tracer))
    else:
        tracer.install(layers.batch_probes(tracer, useful))
    try:
        start, cpu = time.perf_counter(), time.process_time()
        traced = workloads.run_units(
            workload, seed, 0.0, count=len(untraced), calibrated=False
        )
        end, cpu = time.perf_counter(), time.process_time() - cpu
        ledger = layers.ledger(tracer, start, end, useful)
        if name == "serve_closed":
            ledger.update(layers.serve_totals(tracer, cpu))
        tracer.spans.clear()
        golden = workloads.check_golden(name, seed, traced, rerun)
    finally:
        tracer.uninstall()
    ledger["trace.overhead"] = (
        sum(u.wall_s for u in traced) / sum(u.wall_s for u in untraced) - 1.0
    )
    consistent = [u.digest for u in traced] == [u.digest for u in untraced]
    return {
        "units": untraced + traced,
        "golden": golden,
        "ledger": ledger,
        "consistent": consistent,
        "metrics": workloads.batch_metrics(untraced),
    }


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


def run_serve(workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    lanes = common.nproc()
    plain = workload.servers[0]
    steps = serving.run_ladder(plain, workload.tapes, seed, seconds / (2.0 if trace else 1.0), lanes)
    out: Dict[str, Any] = {"steps": steps, "summary": serving.summarize(steps)}
    reference = next(step for step in steps if step.rate == serving.REFERENCE_RATE)
    run_digest = serving.served_digest(reference, len(workload.tapes))
    out["digests"] = [run_digest]
    golden_server = plain
    if trace:
        traced_server = workload.servers[1]
        traced_steps = serving.run_ladder(
            traced_server, workload.tapes, seed, seconds / 2.0, lanes
        )
        traced_ref = next(s for s in traced_steps if s.rate == serving.REFERENCE_RATE)
        out["consistent"] = serving.served_digest(traced_ref, len(workload.tapes)) == run_digest
        out["steps"] = steps + traced_steps
        out["ledger"] = serve_ledger(steps, traced_steps, reference)
        golden_server = traced_server
    expected = digests.golden().get("serve_open")
    got = workload.golden_digest(seed, golden_server)
    out["golden"] = {"expected": expected, "got": got, "ok": got == expected}
    return out


def serve_ledger(plain: List[Any], traced: List[Any], reference: Any) -> Dict[str, float]:
    """Server-side layer totals of the traced ladder, plus generator health."""
    metrics = {name: 0.0 for name, _, _ in layers.METRICS}
    totals: Dict[str, float] = {}
    for step in traced:
        report = step.server
        for key, value in report.items():
            if key.startswith(("serve.", "engine.")):
                totals[key] = totals.get(key, 0.0) + value
        totals["wall"] = totals.get("wall", 0.0) + report["wall_s"]
        totals["unattributed"] = totals.get("unattributed", 0.0) + report["unattributed_s"]
    metrics.update(totals)
    metrics["gen.late_p99_ms"] = reference.late_p99_ms()
    metrics["gen.backlog_max"] = float(reference.backlog_max)
    metrics["trace.wall_s"] = totals["wall"]
    metrics["trace.unattributed_s"] = totals["unattributed"]

    def cpu_per_window(steps: List[Any]) -> float:
        return sum(s.server["cpu_s"] for s in steps) / sum(len(s.latencies) for s in steps)

    metrics["trace.overhead"] = cpu_per_window(traced) / cpu_per_window(plain) - 1.0
    return metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    trace = bool(args.trace)
    name = args.workload
    workload = make_workload(name, trace)
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install(layers.store_probes())
    try:
        store = workload.setup(args.seed)
    finally:
        setup_tracer.uninstall()
    setup_own = {"setup_s": common.process_age_s(), "speed": common.speed([common.calibrate()])}
    stamp = store_entry_stamp(store)

    try:
        if name == "serve_open":
            out = run_serve(workload, args.seed, args.seconds, trace)
        else:
            out = run_batch(name, workload, args.seed, args.seconds, trace)
    finally:
        workload.teardown()
    store_rebuilt = store_entry_stamp(store) != stamp
    peak_rss = common.peak_rss_mb()
    if name == "serve_open":
        peak_rss = max(
            [peak_rss] + [step.server.get("peak_rss_mb", 0.0) for step in out["steps"]]
        )
        attempted = sum(step.windows for step in out["steps"])
        failed = sum(step.failed for step in out["steps"])
        run_digests = out["digests"]
        e2e = dict(out["summary"])
    else:
        attempted = sum(unit.cells for unit in out["units"])
        failed = sum(unit.failed for unit in out["units"])
        run_digests = [unit.digest for unit in out["units"]]
        e2e = dict(out["metrics"])

    correct = (
        out["golden"]["ok"]
        and out.get("consistent", True)
        and failed == 0
        and not store_rebuilt
    )
    meta = common.run_metadata(args.seed, store)
    meta.update({"workload": name, "trace": trace, "store_rebuilt_in_run": store_rebuilt})
    print("perfbench meta " + json.dumps(meta))
    print(
        "perfbench digests "
        + json.dumps(
            {
                "seed": args.seed,
                "run": digests.combine(run_digests),
                "units": run_digests,
                "golden": out["golden"],
            }
        )
    )

    if trace:
        ledger = out["ledger"]
        counters = setup_tracer.counters
        loads = counters.get("store.loads", 0.0)
        ledger["store.load_s"] = layer_self_times(setup_tracer.spans).get("store", 0.0)
        ledger["store.hits"] = loads - counters.get("store.misses", 0.0)
        ledger["store.misses"] = counters.get("store.misses", 0.0)
        print("perfbench ledger " + json.dumps(ledger))
        metrics = {
            metric: {"value": float(ledger.get(metric, 0.0)), "unit": unit}
            for metric, unit, _ in layers.METRICS
        }
    else:
        if store["warm"]:
            setup_samples = [setup_own] + probe_setups(name, args.seed, SETUP_PROBES)
        else:  # this process trained the bundle: only fresh processes count
            setup_samples = probe_setups(name, args.seed, SETUP_PROBES + 1)
        e2e["setup_s"] = stats.median([s["setup_s"] * s["speed"] for s in setup_samples])
        e2e["peak_rss_mb"] = peak_rss
        print("perfbench detail " + json.dumps(e2e, default=str))
        print("perfbench setup " + json.dumps(setup_samples))
        metrics = {
            metric: {"value": float(e2e[metric]) if e2e[metric] is not None else 0.0, "unit": unit}
            for metric, unit in END_TO_END
        }
    print(
        json.dumps(
            {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
             "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
