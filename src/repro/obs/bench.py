"""Benchmark trajectory: a longitudinal ledger + regression gate.

The repo commits one ``BENCH_<name>.json`` per benchmark family
(``benchmarks/results/``), each stamped with run metadata — but until
now every refresh *overwrote* the previous numbers, so nothing noticed
a headline metric quietly sliding.  This module gives the numbers a
history:

``python -m repro.obs.bench update``
    Extracts each BENCH file's **headline metrics** (the table below)
    and appends one record per benchmark to the committed
    ``benchmarks/results/TRAJECTORY.jsonl`` — deduplicated, so re-running
    against unchanged BENCH files appends nothing.

``python -m repro.obs.bench check``
    Read-only regression gate (run by CI): compares every BENCH file
    against its *previous* trajectory entry and fails when a headline
    regresses beyond tolerance — a higher-is-better metric dropping more
    than ``--tolerance`` (relative, default 15%), or a lower-is-better
    one (overhead fractions) climbing more than the tolerance in
    absolute terms (they sit near zero, so relative slack is
    meaningless).  A benchmark with no history passes: the gate tightens
    as the ledger grows.

The ledger is append-only JSONL so its git history *is* the trajectory:
every refresh lands as one added line per benchmark.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

__all__ = ["HEADLINES", "extract_headlines", "update", "check", "main"]

#: Version of a trajectory record's layout.
TRAJECTORY_SCHEMA_VERSION = 1

#: Default ledger location, relative to the results dir.
TRAJECTORY_NAME = "TRAJECTORY.jsonl"

#: Relative drop a higher-is-better headline may take before the gate
#: fails (and the absolute climb allowed for lower-is-better ones).
DEFAULT_TOLERANCE = 0.15

#: ``{bench name: ((dotted value path, direction), ...)}`` — the
#: headline metrics the gate watches.  ``direction`` is ``"higher"``
#: (speedups, throughput) or ``"lower"`` (overhead fractions).  A ratio
#: whose denominator exists only to be slow is no headline, which
#: leaves the sweep benchmark with none.
HEADLINES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "policy_sweep_performance": (),
    "trained_bundle_store_cold_start": (("speedup.warm_vs_cold", "higher"),),
    "sweep_resilience_chaos": (("supervision.overhead_fraction", "lower"),),
    "fleet": (("users_per_second", "higher"),),
    "serve": (("sessions_per_core", "higher"),),
}


def _bench_name(document: Dict[str, Any], path: str) -> str:
    # Historical quirk: BENCH_fleet.json says "benchmark", the rest "bench".
    name = document.get("bench") or document.get("benchmark")
    if not name:
        raise ObservabilityError(f"{path} has neither a 'bench' nor 'benchmark' key")
    return str(name)


def _dig(document: Dict[str, Any], dotted: str) -> Optional[float]:
    node: Any = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def extract_headlines(path: str) -> Dict[str, Any]:
    """One BENCH file → its trajectory record (not yet appended)."""
    with open(path) as handle:
        document = json.load(handle)
    name = _bench_name(document, path)
    watched = HEADLINES.get(name)
    if watched is None:
        raise ObservabilityError(
            f"{path}: benchmark {name!r} has no HEADLINES entry; add one in "
            f"repro.obs.bench so the trajectory gate covers it"
        )
    headlines: Dict[str, float] = {}
    for dotted, _direction in watched:
        value = _dig(document, dotted)
        if value is None:
            raise ObservabilityError(
                f"{path}: headline metric {dotted!r} is missing"
            )
        headlines[dotted] = value
    meta = document.get("meta") or {}  # the oldest BENCH file predates meta
    return {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "bench": name,
        "source": os.path.basename(path),
        "git_sha": meta.get("git_sha"),
        "timestamp_utc": meta.get("timestamp_utc"),
        "headlines": headlines,
    }


def _identity(record: Dict[str, Any]) -> Tuple[Any, Any, str]:
    """What makes two trajectory records "the same measurement"."""
    return (
        record.get("git_sha"),
        record.get("timestamp_utc"),
        json.dumps(record.get("headlines", {}), sort_keys=True),
    )


def _read_trajectory(path: str) -> List[Dict[str, Any]]:
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(json.loads(stripped))
            except json.JSONDecodeError as error:
                raise ObservabilityError(
                    f"{path}:{line_no} is not valid JSON ({error}); the "
                    f"trajectory is committed — fix or regenerate it"
                ) from error
    return records


def _bench_files(results_dir: str) -> List[str]:
    return sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))


# ----------------------------------------------------------------------
# update / check
# ----------------------------------------------------------------------


def update(results_dir: str, trajectory_path: str) -> List[Dict[str, Any]]:
    """Append each BENCH file's headlines unless already recorded.

    Returns the records actually appended (empty = ledger already
    current).
    """
    history = _read_trajectory(trajectory_path)
    latest_by_bench: Dict[str, Dict[str, Any]] = {}
    for record in history:
        latest_by_bench[record["bench"]] = record
    appended = []
    for path in _bench_files(results_dir):
        record = extract_headlines(path)
        previous = latest_by_bench.get(record["bench"])
        if previous is not None and _identity(previous) == _identity(record):
            continue
        appended.append(record)
        latest_by_bench[record["bench"]] = record
    if appended:
        with open(trajectory_path, "a") as handle:
            for record in appended:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return appended


def check(
    results_dir: str,
    trajectory_path: str,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Compare BENCH files against their previous trajectory entries.

    Returns regression descriptions (empty = gate passes).  Never
    writes.  For each benchmark the baseline is the most recent
    trajectory entry that is *not* the current measurement itself — so
    a freshly-updated ledger still gates against real history, and a
    benchmark with no prior history passes.
    """
    history = _read_trajectory(trajectory_path)
    by_bench: Dict[str, List[Dict[str, Any]]] = {}
    for record in history:
        by_bench.setdefault(record["bench"], []).append(record)

    regressions = []
    for path in _bench_files(results_dir):
        current = extract_headlines(path)
        name = current["bench"]
        previous = None
        for record in reversed(by_bench.get(name, [])):
            if _identity(record) != _identity(current):
                previous = record
                break
        if previous is None:
            continue
        for dotted, direction in HEADLINES[name]:
            now = current["headlines"].get(dotted)
            then = previous["headlines"].get(dotted)
            if now is None or then is None:
                continue
            if direction == "higher":
                floor = then * (1.0 - tolerance)
                if now < floor:
                    regressions.append(
                        f"{name}: {dotted} regressed {then:g} -> {now:g} "
                        f"(floor {floor:g} at {tolerance:.0%} tolerance)"
                    )
            else:
                ceiling = then + tolerance
                if now > ceiling:
                    regressions.append(
                        f"{name}: {dotted} regressed {then:g} -> {now:g} "
                        f"(ceiling {ceiling:g} at +{tolerance:g} absolute)"
                    )
    return regressions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Benchmark trajectory ledger and regression gate.",
    )
    parser.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory holding BENCH_*.json",
    )
    parser.add_argument(
        "--trajectory",
        default=None,
        help=f"ledger path (default: <results-dir>/{TRAJECTORY_NAME})",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("update", help="append new measurements to the ledger")
    gate = commands.add_parser("check", help="fail on headline regressions")
    gate.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drop (higher-is-better) or absolute climb "
        "(lower-is-better)",
    )
    args = parser.parse_args(argv)
    trajectory_path = args.trajectory or os.path.join(
        args.results_dir, TRAJECTORY_NAME
    )

    try:
        if args.command == "update":
            appended = update(args.results_dir, trajectory_path)
            if appended:
                for record in appended:
                    print(f"appended {record['bench']}: {record['headlines']}")
            else:
                print(f"{trajectory_path} already current")
            return 0
        regressions = check(
            args.results_dir, trajectory_path, tolerance=args.tolerance
        )
    except ObservabilityError as error:
        print(f"error: {error}")
        return 1
    if regressions:
        for line in regressions:
            print(f"REGRESSION {line}")
        return 1
    count = len(_bench_files(args.results_dir))
    print(f"trajectory gate: {count} benchmark(s), no headline regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
