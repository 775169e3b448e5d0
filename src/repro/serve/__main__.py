"""CLI for the online serving path.

::

    python -m repro.serve run   --run-dir runs/serve-a          # a server
    python -m repro.serve load  --sessions 100 --policy origin6 # self-test load
    python -m repro.serve replay --port 9000 --policy origin6   # identity check

``run`` trains/loads the profile's bundle (store-backed, like every
experiment entry point), binds a server and serves until interrupted —
watch it live with ``python -m repro.obs.watch RUN_DIR``.  ``load``
spawns an in-process server, replays N concurrent prerecorded sessions
through it and prints throughput and sessions/core (``perfbench/run.py
--workload serve_closed`` is where serving is measured).  ``replay``
runs one lockstep device against an already running server and
verifies the served decision and active-set streams byte-for-byte
against the offline ``HARExperiment.run`` on the same timeline.
"""

from __future__ import annotations

import argparse
import asyncio
import re
import sys
from typing import List, Optional

from repro.core.policies import (
    PolicySpec,
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.errors import ReproError
from repro.serve.client import live_session, record_tape, run_load
from repro.serve.server import ServeServer
from repro.serve.session import EngineCatalog, ServeProfile
from repro.sim.experiment import HARExperiment, SimulationConfig

_POLICY = re.compile(r"^(rr|aas|aasr|origin)(\d+)$")
_MAKERS = {
    "rr": rr_policy,
    "aas": aas_policy,
    "aasr": aasr_policy,
    "origin": origin_policy,
}


def parse_policy(text: str) -> PolicySpec:
    """``rr3`` / ``aas6`` / ``aasr6`` / ``origin12`` / ``naive``."""
    if text == "naive":
        return naive_policy()
    match = _POLICY.match(text)
    if match is None:
        raise SystemExit(
            f"unknown policy {text!r} (want rrN, aasN, aasrN, originN or naive)"
        )
    return _MAKERS[match.group(1)](int(match.group(2)))


def _build_experiment(args: argparse.Namespace) -> HARExperiment:
    config = SimulationConfig(n_windows=args.windows)
    if args.dataset == "mhealth":
        return HARExperiment.standard_mhealth(seed=args.seed, config=config)
    return HARExperiment.standard_pamap2(seed=args.seed, config=config)


def _make_server(
    args: argparse.Namespace, experiment: HARExperiment, **overrides
) -> ServeServer:
    registry = None
    if getattr(args, "register", False):
        from repro.obs.runs import RunRegistry

        registry = RunRegistry()
    catalog = EngineCatalog([ServeProfile.from_experiment(args.profile, experiment)])
    return ServeServer(
        catalog,
        host=args.host,
        port=args.port,
        overload=args.overload,
        queue_size=args.queue_size,
        run_dir=args.run_dir,
        session_traces=getattr(args, "session_traces", False),
        registry=registry,
        **overrides,
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


async def _cmd_run(args: argparse.Namespace) -> int:
    experiment = _build_experiment(args)
    server = _make_server(args, experiment)
    await server.start()
    print(
        f"serving profile {args.profile!r} ({args.dataset}) on "
        f"{server.host}:{server.port}  overload={args.overload}"
        + (f"  run-dir={args.run_dir}" if args.run_dir else "")
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        if server.run_id is not None:
            print(f"registered run {server.run_id}")
    return 0


async def _cmd_load(args: argparse.Namespace) -> int:
    experiment = _build_experiment(args)
    server = _make_server(args, experiment, worker_pause_s=args.worker_pause)
    await server.start()
    try:
        policy = parse_policy(args.policy)
        tapes = [
            record_tape(
                experiment,
                policy,
                profile=args.profile,
                seed=experiment.seed + index,
            )
            for index in range(args.tapes)
        ]
        print(
            f"replaying {args.sessions} concurrent sessions "
            f"({args.tapes} tape(s) x {args.windows} windows, {args.policy}) "
            f"over :{server.port} ..."
        )
        stats = await run_load(server.host, server.port, tapes, args.sessions)
    finally:
        await server.stop()
    print(
        f"sessions={stats.sessions} windows={stats.windows} "
        f"decisions={stats.decisions} shed={stats.shed} "
        f"wall={stats.wall_s:.2f}s"
    )
    print(
        f"throughput: {stats.windows_per_s:.0f} windows/s = "
        f"{stats.sessions_per_core:.0f} live sessions/core"
    )
    if server.run_id is not None:
        print(f"registered run {server.run_id}")
    if args.overload == "block" and stats.mismatches:
        print(f"DETERMINISM FAILURE: {stats.mismatches} mismatches vs tape")
        return 1
    return 0


async def _cmd_replay(args: argparse.Namespace) -> int:
    experiment = _build_experiment(args)
    policy = parse_policy(args.policy)
    served = await live_session(
        args.host,
        args.port,
        experiment,
        policy,
        profile=args.profile,
        seed=args.seed,
    )
    offline = experiment.run(policy, seed=args.seed)
    expected = [None if label < 0 else label for label in offline.final_label.tolist()]
    schedules = [list(ids) for ids in offline.active_nodes]
    matches = sum(1 for a, b in zip(served.labels, expected) if a == b)
    same_schedules = served.actives == schedules
    print(
        f"served {len(served.labels)} decisions ({args.policy}); "
        f"{matches}/{len(expected)} match offline; active sets "
        + ("match" if same_schedules else "DIFFER")
    )
    if served.labels == expected and same_schedules and not any(served.shed):
        print("byte-identical to HARExperiment.run: OK")
        return 0
    print("MISMATCH against the offline decision and schedule streams")
    return 1


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Online serving: session server, load generator, replay check.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", choices=("mhealth", "pamap2"), default="mhealth")
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--windows", type=int, default=120)
        sub.add_argument("--profile", default="default")
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--port", type=int, default=0)

    def serverish(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--overload", choices=("block", "shed"), default="block")
        sub.add_argument("--queue-size", type=int, default=8)
        sub.add_argument("--run-dir", default=None)
        sub.add_argument(
            "--session-traces",
            action="store_true",
            help="write per-session decision traces under RUN_DIR/sessions/",
        )
        sub.add_argument(
            "--register",
            action="store_true",
            help="record the run in the RunRegistry ($REPRO_RUNS_DIR)",
        )

    run_p = commands.add_parser("run", help="serve until interrupted")
    common(run_p)
    serverish(run_p)

    load_p = commands.add_parser("load", help="spawn a server, load-test it")
    common(load_p)
    serverish(load_p)
    load_p.add_argument("--sessions", type=int, default=50)
    load_p.add_argument("--tapes", type=int, default=2)
    load_p.add_argument("--policy", default="origin6")
    load_p.add_argument(
        "--worker-pause",
        type=float,
        default=0.0,
        help="artificial per-frame decision delay (exercises the shed policy)",
    )

    replay_p = commands.add_parser(
        "replay", help="lockstep device vs offline run, byte-for-byte"
    )
    common(replay_p)
    replay_p.add_argument("--policy", default="origin6")
    replay_p.set_defaults(port=9000)

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "load": _cmd_load, "replay": _cmd_replay}
    try:
        return asyncio.run(handlers[args.command](args))
    except KeyboardInterrupt:
        print()
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
