"""Gate the online serving path: served == offline, exact shed accounting.

Exercises ``repro.serve`` end to end against the standard MHEALTH-like
experiment (seed 7, 40 windows):

1. **Identity** — one lockstep :func:`live_session` per policy in the
   ladder (RR3, AAS6, AAS-R6, Origin6, device seed 9); the served
   decision stream *and* active-set stream must equal the offline
   ``HARExperiment.run`` columns.
2. **Replay identity** — a prerecorded :class:`ReplayTape` pipelined
   through the server under the ``block`` overload policy must
   reproduce its expected labels/actives with zero mismatches.
3. **Load** — :func:`run_load` drives 20 concurrent replay sessions
   over 2 tapes (device seeds 9 and 10) through one in-process server:
   zero mismatches and, under ``block``, zero shed windows.
4. **Shed accounting** — a deliberately slow ``shed``-mode server must
   shed at least one window and satisfy ``decisions + shed == windows``.

Exits nonzero on the first failed check.  Run with
``PYTHONPATH=src python benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import asyncio
import os
import sys

from repro.core.policies import aas_policy, aasr_policy, origin_policy, rr_policy
from repro.serve.client import live_session, record_tape, replay_session, run_load
from repro.serve.server import ServeServer
from repro.serve.session import EngineCatalog, ServeProfile
from repro.sim.experiment import HARExperiment, SimulationConfig

SESSIONS = 20
TAPES = 2
N_WINDOWS = 40
EXPERIMENT_SEED = 7
#: Device seed of the identity sessions and of the first tape.
SESSION_SEED = 9


async def identity_leg(server, experiment, policies):
    """Lockstep sessions vs offline runs: identical or die."""
    for policy in policies:
        served = await live_session(
            "127.0.0.1", server.port, experiment, policy, seed=SESSION_SEED
        )
        offline = experiment.run(policy, seed=SESSION_SEED)
        labels = [None if label < 0 else label for label in offline.final_label.tolist()]
        if served.labels != labels:
            raise SystemExit(
                f"FAIL: served decisions diverge from offline run for {policy.name}"
            )
        if served.actives != [list(ids) for ids in offline.active_nodes]:
            raise SystemExit(
                f"FAIL: served schedules diverge from offline run for {policy.name}"
            )
        print(f"identity: {policy.name} byte-identical over {len(labels)} windows")


async def load_leg(server, tapes):
    """Concurrent replay sessions through one server."""
    result = await replay_session("127.0.0.1", server.port, tapes[0])
    if result.mismatches:
        raise SystemExit(
            f"FAIL: replay tape produced {result.mismatches} mismatches"
        )
    print("replay: tape byte-identical under block policy")

    stats = await run_load("127.0.0.1", server.port, tapes, SESSIONS)
    if stats.mismatches:
        raise SystemExit(
            f"FAIL: {stats.mismatches} mismatches across {SESSIONS} sessions"
        )
    if stats.shed:
        raise SystemExit(
            f"FAIL: block-policy server shed {stats.shed} windows"
        )
    print(
        f"load: {stats.sessions} sessions, {stats.windows} windows, "
        f"{stats.windows_per_s:.0f} windows/s, 0 mismatches, 0 shed"
    )


async def shed_leg(catalog, tape):
    """A slow worker under ``shed`` must account for every window."""
    server = ServeServer(
        catalog,
        overload="shed",
        queue_size=4,
        shed_watermark=1,
        worker_pause_s=0.002,
    )
    await server.start()
    try:
        result = await replay_session(
            "127.0.0.1", server.port, tape, check=False
        )
    finally:
        await server.stop()
    shed = sum(result.shed)
    if shed == 0:
        raise SystemExit("FAIL: slow shed-mode server shed nothing")
    if result.stats["decisions"] + result.stats["shed"] != result.stats["windows"]:
        raise SystemExit(
            f"FAIL: shed accounting leaks windows ({result.stats})"
        )
    print(
        f"shed: {shed}/{len(result.shed)} windows shed, accounting exact"
    )


async def run_gates(experiment, policies):
    catalog = EngineCatalog([ServeProfile.from_experiment("default", experiment)])
    server = ServeServer(catalog)
    await server.start()
    try:
        await identity_leg(server, experiment, policies)
        tapes = [
            record_tape(experiment, origin_policy(6), seed=SESSION_SEED + index)
            for index in range(TAPES)
        ]
        await load_leg(server, tapes)
    finally:
        await server.stop()
    await shed_leg(catalog, tapes[0])


def main() -> int:
    print(
        f"serve gate: {SESSIONS} sessions, {N_WINDOWS} windows, {TAPES} tapes, "
        f"{len(os.sched_getaffinity(0))} cores"
    )
    config = SimulationConfig(n_windows=N_WINDOWS)
    experiment = HARExperiment.standard_mhealth(seed=EXPERIMENT_SEED, config=config)
    policies = [rr_policy(3), aas_policy(6), aasr_policy(6), origin_policy(6)]
    asyncio.run(run_gates(experiment, policies))
    return 0


if __name__ == "__main__":
    sys.exit(main())
