"""Small statistics helpers of the benchmark: percentiles and schedules."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

#: Percentiles a latency tail may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def rank(n: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` sorted samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - rank(n, percentile)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (not interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[rank(len(ordered), pct) - 1])


def highest_percentile(
    n: int, ladder: Sequence[float] = PERCENTILE_LADDER, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The highest ladder percentile with at least ``min_beyond`` samples beyond it."""
    for pct in ladder:
        if beyond(n, pct) >= min_beyond:
            return pct
    return None


def tail(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median plus the highest reportable percentile, with the sample count."""
    n = len(values)
    pct = highest_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0) if n else None,
        "tail_pct": pct,
        "tail": percentile(values, pct) if pct is not None else None,
        "beyond": beyond(n, pct) if pct is not None else 0,
    }


def poisson_schedule(seed: int, step: int, lane: int, rate: float, count: int) -> np.ndarray:
    """``count`` Poisson due times (seconds from the step start) at ``rate``/s.

    A pure function of ``(seed, step, lane)``: the same seed gives the
    same schedule on every run and every machine.
    """
    if rate <= 0 or count < 1:
        raise ValueError(f"need rate > 0 and count >= 1, got {rate}, {count}")
    rng = np.random.default_rng([int(seed), int(step), int(lane)])
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0
