"""The batch workloads: the paper sweep (sequential and pooled) and a cohort.

Each workload is a sequence of *units*.  Unit ``k`` of a run is a pure
function of the workload seed and ``k``: every unit draws fresh seeds, so
nothing a unit computes is reused by the next (the prediction cache and
the fleet's material memo still work inside a unit).  A run measures
whole units until its time is up and reports medians over them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import common
import digests
import stats


@dataclass
class UnitResult:
    """What one unit produced and how long it took."""

    wall_s: float
    cells: int
    users: int
    windows: int
    failed: int
    digest: str
    #: Host speed factor around this unit (see ``common.calibrate``).
    speed: float = 1.0
    #: Per-result latencies (ms), for workloads that time each result.
    latencies: List[float] = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        """The unit's wall at the nominal host speed."""
        return self.wall_s * self.speed


class SweepWorkload:
    """``PolicySweep.run`` over ``paper_policy_grid()`` plus both baselines.

    One unit is one fresh seed of the Table 1 / Fig. 5 regeneration path;
    ``workers`` > 1 runs the same inputs through the supervised pool.
    """

    #: Windows per simulated run (the paper runs 600; a unit stays short
    #: so a run holds several units).
    N_WINDOWS = 300
    N_SEEDS = 1

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.exp: Any = None

    def setup(self, seed: int) -> Dict[str, Any]:
        self.exp, store = common.experiment(self.N_WINDOWS)
        return store

    def unit_seed(self, seed: int, index: int) -> int:
        return 1_000_003 * (seed + 1) + self.N_SEEDS * index

    def run_unit(self, seed: int, index: int) -> UnitResult:
        from repro.sim.sweep import PolicySweep, paper_policy_grid

        sweep = PolicySweep(self.exp, n_seeds=self.N_SEEDS)
        start = time.perf_counter()
        result = sweep.run(
            paper_policy_grid(),
            seed=self.unit_seed(seed, index),
            workers=self.workers,
            on_failure="salvage",
        )
        wall = time.perf_counter() - start
        grid = len(paper_policy_grid())
        cells = self.N_SEEDS * (grid + 2)
        lost = len(result.degradation.failed) if result.degradation is not None else 0
        return UnitResult(
            wall_s=wall,
            cells=cells,
            users=self.N_SEEDS * grid,
            windows=cells * self.N_WINDOWS,
            failed=lost,
            digest=digests.sweep_digest(result),
        )

    def teardown(self) -> None:
        pass


class FleetWorkload:
    """A heterogeneous ``CohortSpec`` of ``origin_policy(12)`` users.

    One unit is one ``FleetRunner.run()`` of a fresh cohort: one kernel
    mega-batch of every user, materials memoized per (timeline, dwell).
    """

    N_WINDOWS = 120
    USERS = 256
    N_TIMELINES = 2

    def __init__(self) -> None:
        self.exp: Any = None

    def setup(self, seed: int) -> Dict[str, Any]:
        self.exp, store = common.experiment(self.N_WINDOWS)
        return store

    def run_unit(self, seed: int, index: int) -> UnitResult:
        from repro.fleet import CohortSpec, FleetRunner

        spec = CohortSpec(
            size=self.USERS,
            seed=1_000_003 * (seed + 1) + index,
            base=self.exp.config,
            n_timelines=self.N_TIMELINES,
        )
        start = time.perf_counter()
        result = FleetRunner(self.exp, spec, shard_size=self.USERS).run(on_failure="salvage")
        wall = time.perf_counter() - start
        return UnitResult(
            wall_s=wall,
            cells=result.users_simulated,
            users=result.users_simulated,
            windows=result.users_simulated * self.N_WINDOWS,
            failed=result.lost_users,
            digest=digests.fleet_digest(result),
        )

    def teardown(self) -> None:
        pass


def run_units(
    workload: Any,
    seed: int,
    seconds: float,
    count: Optional[int] = None,
    calibrated: bool = True,
) -> List[UnitResult]:
    """Units ``0, 1, ...`` until ``seconds`` have passed (or ``count`` units).

    With ``calibrated`` a calibration pass runs before the first unit and
    after every unit; a unit's speed factor averages the two passes
    around it.
    """
    units: List[UnitResult] = []
    start = time.perf_counter()
    before = common.calibrate() if calibrated else 0.0
    while True:
        unit = workload.run_unit(seed, len(units))
        if calibrated:
            after = common.calibrate()
            unit.speed = common.speed([before, after])
            before = after
        units.append(unit)
        if count is not None:
            if len(units) >= count:
                return units
        elif time.perf_counter() - start >= seconds:
            return units


def unit_p99_ms(unit: UnitResult) -> float:
    """A unit's p99 latency at nominal speed; it must have ten samples beyond."""
    if stats.beyond(len(unit.latencies), 99.0) < stats.MIN_BEYOND:
        raise ValueError(f"{len(unit.latencies)} latencies cannot report a p99")
    return stats.percentile(unit.latencies, 99.0) * unit.speed


def batch_metrics(units: List[UnitResult]) -> Dict[str, Any]:
    """End-to-end figures of a run: medians over its units, at nominal speed.

    Where a workload times each result (serving), ``p50_ms`` is the median
    of the run's pooled latencies and ``p99_ms`` the median over units of
    each unit's p99.  The host's brief slowdowns land in the slowest
    percent of windows: over sixteen runs of one build they spread the
    pooled p99 1.6 times as widely as the median unit's.

    Otherwise a unit's cells all arrive when it returns, so units are the
    independent latency samples, and the tail is the highest percentile
    with ten units beyond it: with fewer than twenty units there is none,
    and ``p99_ms`` reports the median unit.
    """
    scaled = [unit.scaled_s * 1e3 for unit in units]
    pooled = [latency * unit.speed for unit in units for latency in unit.latencies]
    samples = pooled or scaled
    tail = stats.tail(samples)
    if pooled:
        p99 = stats.median([unit_p99_ms(unit) for unit in units])
    else:
        p99 = tail["tail"] if tail["tail_pct"] is not None else tail["p50"]
    return {
        "cells_per_s": stats.median([u.cells / u.scaled_s for u in units]),
        "users_per_s": stats.median([u.users / u.scaled_s for u in units]),
        "p50_ms": tail["p50"],
        "p99_ms": p99,
        "latency_samples": len(samples),
        "tail_pct": tail["tail_pct"] if not pooled else 99.0,
        "max_rate_wps": stats.median([u.windows / u.scaled_s for u in units]),
        "units": len(units),
        "raw": {
            "cells_per_s": stats.median([u.cells / u.wall_s for u in units]),
            "unit_s": [round(u.wall_s, 4) for u in units],
            "speed": [round(u.speed, 4) for u in units],
        },
    }


def check_golden(
    name: str, seed: int, units: List[UnitResult], rerun: Callable[[], UnitResult]
) -> Dict[str, Any]:
    """Compare the golden unit's digest with the committed one.

    On the golden seed the run's own first unit is the golden unit;
    otherwise it is run once more, untimed, after the measurement.
    """
    expected = digests.golden().get(name)
    if seed == digests.GOLDEN_SEED:
        got = units[0].digest
    else:
        got = rerun().digest
    return {"expected": expected, "got": got, "ok": got == expected}
