"""Environment, warm-store access and run metadata shared by every workload.

Import this module before numpy: it pins the BLAS thread count and puts
the checkout's ``src`` on ``sys.path``.  Everything the benchmark writes
(the trained-bundle store) lives under ``.bench_state/`` in the checkout.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench_state")
STORE_DIR = os.path.join(STATE, "store")

#: One BLAS thread per process: the sweep pool and the serving process
#: each own a core, so threaded BLAS would only oversubscribe them.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["REPRO_STORE_DIR"] = STORE_DIR
os.environ.pop("REPRO_STORE", None)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Trained bundle every workload serves: ``standard_mhealth(seed=7)``.
BUNDLE_SEED = 7


def process_age_s() -> float:
    """Seconds since this process was created (kernel start time)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


#: Nominal duration of one :func:`calibrate` pass.  Timings are reported
#: at this host speed: a time is scaled by ``CALIBRATION_REF_S / pass``.
CALIBRATION_REF_S = 0.015


def calibrate() -> float:
    """Seconds one pass of a fixed kernel takes on this host right now (median of 3).

    The host's speed drifts by a third within a minute (shared cores), and
    a unit of the program slows with it.  The kernel mixes interpreted
    loops and small numpy calls like the program does; timing it next to
    each measurement lets the benchmark report times at one fixed speed.
    """
    import numpy as np

    passes = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(40000):
            total += index * index % 7
        # Object churn over a few MB, like the engine epilogue's per-slot dicts.
        records = [{"slot": index, "energy": index * 0.5} for index in range(20000)]
        total += sum(record["slot"] for record in records if record["energy"] > 10.0)
        block = np.linspace(-1.0, 1.0, 32 * 128).reshape(32, 128)
        for _ in range(100):
            block = np.sin(block) * 1.0001
        passes.append(time.perf_counter() - start)
    return sorted(passes)[1]


def speed(passes: "list[float]") -> float:
    """Scale factor from measured calibration passes to the nominal speed."""
    return CALIBRATION_REF_S / (sum(passes) / len(passes))


def nproc() -> int:
    """Cores this process may run on (the load's worker/connection cap)."""
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest reaped child."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def experiment(n_windows: int) -> Tuple[Any, Dict[str, Any]]:
    """The standard MHEALTH experiment, plus the store state it was loaded from.

    A cold store trains and publishes the bundle here, before any timed
    work; the state reports ``warm: False`` so the caller can drop that
    set-up sample.
    """
    from repro.obs import Observability
    from repro.sim.experiment import HARExperiment, SimulationConfig

    obs = Observability()
    exp = HARExperiment.standard_mhealth(
        seed=BUNDLE_SEED, config=SimulationConfig(n_windows=n_windows), obs=obs
    )
    counters = obs.metrics.to_dict()["counters"]
    state = {
        "key": exp.bundle.store_key,
        "warm": counters.get("store.hit", 0) > 0,
        "dir": os.path.relpath(STORE_DIR, ROOT),
    }
    return exp, state


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_metadata(seed: int, store: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "seed": seed,
        "store": store,
    }
