#!/usr/bin/env python
"""Serve live device sessions and verify them against the offline run.

Starts an in-process asyncio serving server (`repro.serve`) on the
standard MHEALTH deployment, then:

1. runs one lockstep device session per policy rung and checks the
   served decision stream is byte-identical to `HARExperiment.run`;
2. replays 25 concurrent prerecorded sessions through the same server
   and reports the sessions/core headline;
3. overloads a deliberately slow `shed`-mode server and shows the
   shed accounting (`decisions + shed == windows`).

Run:  python examples/serve_demo.py
"""

import asyncio

from repro.core import aas_policy, aasr_policy, origin_policy, rr_policy
from repro.serve import (
    EngineCatalog,
    ServeProfile,
    ServeServer,
    live_session,
    record_tape,
    replay_session,
    run_load,
)
from repro.sim import HARExperiment, SimulationConfig


async def demo(experiment) -> None:
    catalog = EngineCatalog([ServeProfile.from_experiment("default", experiment)])
    server = ServeServer(catalog)
    await server.start()
    print(f"serving profile 'default' on 127.0.0.1:{server.port}\n")
    try:
        print("Lockstep sessions vs offline runs (the identity anchor):")
        for policy in (rr_policy(3), aas_policy(6), aasr_policy(6), origin_policy(6)):
            served = await live_session(
                "127.0.0.1", server.port, experiment, policy, seed=9
            )
            offline = experiment.run(policy, seed=9)
            same = served.labels == [
                None if label < 0 else label for label in offline.final_label.tolist()
            ] and served.actives == [list(ids) for ids in offline.active_nodes]
            decided = sum(1 for label in served.labels if label is not None)
            print(
                f"  {policy.name:<12} {'byte-identical' if same else 'DIVERGED'}"
                f" ({decided} decisions over {len(served.labels)} windows)"
            )

        print("\nConcurrent load (replay tapes, block backpressure):")
        tapes = [
            record_tape(experiment, origin_policy(6), seed=9 + index)
            for index in range(2)
        ]
        stats = await run_load("127.0.0.1", server.port, tapes, 25)
        print(
            f"  {stats.sessions} sessions · {stats.windows} windows · "
            f"{stats.windows_per_s:.0f} windows/s -> "
            f"{stats.sessions_per_core:.0f} sessions/core "
            f"({stats.mismatches} mismatches)"
        )
    finally:
        await server.stop()

    print("\nOverload shedding (slow worker, shed watermark 1):")
    shed_server = ServeServer(
        catalog, overload="shed", queue_size=4, shed_watermark=1, worker_pause_s=0.002
    )
    await shed_server.start()
    try:
        result = await replay_session(
            "127.0.0.1", shed_server.port, tapes[0], check=False
        )
    finally:
        await shed_server.stop()
    stats = result.stats
    print(
        f"  {stats['windows']} windows -> {stats['decisions']} decided + "
        f"{stats['shed']} shed (accounting exact: "
        f"{stats['decisions'] + stats['shed'] == stats['windows']})"
    )


def main() -> None:
    experiment = HARExperiment.standard_mhealth(
        seed=7, config=SimulationConfig(n_windows=80)
    )
    asyncio.run(demo(experiment))


if __name__ == "__main__":
    main()
