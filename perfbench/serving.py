"""The serving workloads: replay tapes against a ``ServeServer``.

Set-up records replay tapes: a device session's frames plus the decision
stream the offline engine produces for them.  Every served decision is
checked against its tape.

* ``serve_closed`` (gated): the server runs in this process, on one core,
  and each of ``nproc`` lanes is a lockstep device, so a window's latency
  runs from its send to the arrival of its decision.
* ``serve_open`` (not gated, see ``LAYERS.md``): ``server_main.py`` runs
  in its own process and the load generator runs a ladder of fixed
  offered rates.  In each step every connection lane carries tape
  sessions back to back; each window is due at a seeded Poisson time and
  is sent when due, whether or not earlier decisions have arrived, and
  its latency runs from its due time to the arrival of its decision.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common  # sets the environment before numpy loads
import digests
import numpy as np
import stats

HERE = os.path.dirname(os.path.abspath(__file__))

#: Windows per tape session (one device's stream).
TAPE_WINDOWS = 120
#: Distinct tapes recorded in set-up; sessions cycle through them.
N_TAPES = 8
#: Offered rates (windows/s, all lanes together), lowest first.
RATES = (1000.0, 2000.0, 4000.0, 5000.0)
#: The rate ``p50_ms`` and ``p99_ms`` are reported at.
REFERENCE_RATE = 4000.0
#: The p99 a rate step must meet to count toward ``max_rate_wps``.
LATENCY_LIMIT_MS = 50.0
#: Shares of a run's seconds: the reference step, the other rates, and
#: the saturation step (its window count sized as if at ``SATURATION_WPS``).
REFERENCE_SHARE = 0.5
LADDER_SHARE = 0.3
SATURATION_SHARE = 0.2
SATURATION_WPS = 8000.0
#: The reference step's p99 is the median over up to this many blocks ...
REFERENCE_BLOCKS = 10
#: ... of at least this many windows each (ten beyond each block's p99).
BLOCK_MIN = 1000

_LENGTH = struct.Struct(">I")


@dataclass
class Tape:
    """One replayable session, pre-encoded."""

    hello: bytes
    windows: List[bytes]
    bye: bytes
    labels: List[Optional[int]]
    actives: List[List[int]]


def record_tapes(exp: Any, seed: int, count: int = N_TAPES) -> List[Tape]:
    """``count`` sessions over the policy ladder on seeded timelines."""
    from repro.core.policies import aas_policy, aasr_policy, origin_policy
    from repro.serve.client import record_tape
    from repro.serve.protocol import encode_frame

    ladder = (origin_policy(12), origin_policy(6), aasr_policy(12), aas_policy(9))
    tapes = []
    for index in range(count):
        raw = record_tape(
            exp, ladder[index % len(ladder)], seed=1000 * seed + index, n_windows=TAPE_WINDOWS
        )
        tapes.append(
            Tape(
                hello=encode_frame(raw.hello),
                windows=[encode_frame(frame) for frame in raw.windows],
                bye=encode_frame({"type": "bye"}),
                labels=list(raw.expected_labels),
                actives=[list(active) for active in raw.expected_active],
            )
        )
    return tapes


# ---------------------------------------------------------------------------
# the serving process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``server_main.py`` in its own process, driven over stdin/stdout."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "server_main.py"),
                "--windows",
                str(TAPE_WINDOWS),
                "--trace",
                "1" if trace else "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> int:
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        return self.port

    def command(self, text: str) -> Dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text != "end":
            return {}
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    """What one offered rate did."""

    rate: float
    windows: int = 0
    #: ``(due time, latency ms)`` per decided window.
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failed: int = 0
    backlog: List[Tuple[float, int]] = field(default_factory=list)
    #: ``(tape index, served [label, next active set] stream)`` per session.
    streams: List[Tuple[int, List[Any]]] = field(default_factory=list)
    wall_s: float = 0.0
    server: Dict[str, Any] = field(default_factory=dict)
    #: Host speed factor of this process around the step.
    speed: float = 1.0

    @property
    def latency_speed(self) -> float:
        """Speed factor for latencies: both processes carry a window."""
        return math.sqrt(self.speed * self.server.get("speed", self.speed))

    @property
    def backlog_max(self) -> int:
        return max((depth for _, depth in self.backlog), default=0)

    def backlog_growing(self) -> bool:
        """Whether the outstanding-window count climbs through the step.

        Medians of the first and last quarters, so one stall that
        briefly queues windows does not read as a growing backlog.
        """
        if len(self.backlog) < 8:
            return False
        quarter = len(self.backlog) // 4
        first = stats.median([depth for _, depth in self.backlog[:quarter]])
        last = stats.median([depth for _, depth in self.backlog[-quarter:]])
        return last > 2 * first + 4

    def late_p99_ms(self) -> float:
        return stats.percentile(self.late_ms, 99.0) if self.late_ms else 0.0

    def late_growing(self) -> bool:
        """Whether the generator falls further behind its schedule."""
        if len(self.late_ms) < 8:
            return False
        quarter = len(self.late_ms) // 4
        return stats.median(self.late_ms[-quarter:]) > 2 * stats.median(
            self.late_ms[:quarter]
        ) + 1.0

    def valid(self) -> bool:
        """A step whose backlog or generator lateness grows measures nothing."""
        return not self.backlog_growing() and not self.late_growing()

    def latencies_ms(self) -> List[float]:
        """Latencies in due-time order."""
        return [latency for _, latency in sorted(self.latencies)]

    def p99_ms(self) -> Optional[float]:
        """The step's p99, when at least ten samples lie beyond it."""
        values = self.latencies_ms()
        if stats.beyond(len(values), 99.0) < stats.MIN_BEYOND:
            return None
        return stats.percentile(values, 99.0)

    def block_p99_ms(self) -> Optional[float]:
        """Median p99 over consecutive blocks that each report a p99.

        One stall of the shared host then moves one block, not the figure.
        """
        values = self.latencies_ms()
        blocks = min(REFERENCE_BLOCKS, len(values) // BLOCK_MIN)
        if blocks < 1:
            return None
        size = len(values) // blocks
        return stats.median(
            [stats.percentile(values[i * size : (i + 1) * size], 99.0) for i in range(blocks)]
        )

    def achieved_rate(self) -> float:
        """Decided windows per second, first due time to last decision."""
        if not self.latencies:
            return 0.0
        first = min(due for due, _ in self.latencies)
        last = max(due + latency / 1e3 for due, latency in self.latencies)
        return len(self.latencies) / (last - first)

    def meets_limit(self) -> bool:
        p99 = self.p99_ms()
        return self.valid() and self.failed == 0 and p99 is not None and p99 <= LATENCY_LIMIT_MS


async def _read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    # The devices parse frames themselves, so a change to the program's
    # codec moves only the server side of a measurement.
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError:
        return None
    (length,) = _LENGTH.unpack(prefix)
    return json.loads(await reader.readexactly(length))


class _Counter:
    def __init__(self) -> None:
        self.sent = 0
        self.decided = 0


async def _session(
    port: int,
    tapes: Sequence[Tape],
    index: int,
    due: Sequence[float],
    step: StepResult,
    outstanding: _Counter,
) -> None:
    """Send one tape's windows at their due times; time every decision."""
    tape = tapes[index]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    n = len(due)

    async def consume() -> None:
        # A window without a timed, matching decision counts as failed;
        # windows never answered are counted by the caller as missing.
        ack = await _read_frame(reader)
        if ack is None or ack.get("type") != "hello_ack" or ack["active"] != tape.actives[0]:
            step.failed += 1
            return
        got: List[Any] = []
        for slot in range(n):
            frame = await _read_frame(reader)
            arrived = time.perf_counter()
            if frame is None or frame.get("type") != "decision" or frame["slot"] != slot:
                return
            outstanding.decided += 1
            step.latencies.append((due[slot], (arrived - due[slot]) * 1e3))
            expected_next = tape.actives[slot + 1] if slot + 1 < n else None
            if (
                frame["shed"]
                or frame["label"] != tape.labels[slot]
                or frame["active_next"] != expected_next
            ):
                step.failed += 1
            got.append([frame["label"], frame["active_next"]])
        final = await _read_frame(reader)
        if final is None or final.get("type") != "bye_ack":
            step.failed += 1
        step.streams.append((index, got))

    consumer = asyncio.ensure_future(consume())
    try:
        writer.write(tape.hello)
        for slot in range(n):
            delay = due[slot] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            writer.write(tape.windows[slot])
            step.late_ms.append((now - due[slot]) * 1e3)
            outstanding.sent += 1
            step.backlog.append((now, outstanding.sent - outstanding.decided))
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        writer.write(tape.bye)
        await writer.drain()
        await consumer
    finally:
        if not consumer.done():
            consumer.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _lane(
    port: int,
    tapes: Sequence[Tape],
    lane: int,
    lanes: int,
    due: Sequence[float],
    step: StepResult,
    outstanding: _Counter,
) -> None:
    """One connection lane: tape sessions back to back along one schedule.

    A session connects once the previous one has been answered in full,
    so a lane holds one connection at a time; windows that fall due while
    the lane waits are sent late and their latency shows it.
    """
    for session, position in enumerate(range(0, len(due), TAPE_WINDOWS)):
        index = (lane + session * lanes) % len(tapes)
        await _session(port, tapes, index, due[position : position + TAPE_WINDOWS], step, outstanding)


async def _run_step(
    port: int, tapes: Sequence[Tape], seed: int, index: int, rate: float, per_lane: int, lanes: int
) -> StepResult:
    step = StepResult(rate=rate)
    outstanding = _Counter()
    start = time.perf_counter() + 0.05
    schedules = [
        start
        + (
            np.zeros(per_lane)
            if math.isinf(rate)
            else stats.poisson_schedule(seed, index, lane, rate / lanes, per_lane)
        )
        for lane in range(lanes)
    ]
    await asyncio.gather(
        *(
            _lane(port, tapes, lane, lanes, schedules[lane].tolist(), step, outstanding)
            for lane in range(lanes)
        )
    )
    step.wall_s = time.perf_counter() - start
    step.windows = per_lane * lanes
    step.failed += step.windows - len(step.latencies)
    return step


def run_ladder(
    server: ServerProcess, tapes: Sequence[Tape], seed: int, seconds: float, lanes: int
) -> List[StepResult]:
    """Every rate step; the reference step gets half of ``seconds``.

    A step's window count depends only on its rate and ``seconds``, so
    the reportable percentile of each step is the same on every run.
    """
    results = []
    for index, rate in enumerate(RATES):
        share = REFERENCE_SHARE if rate == REFERENCE_RATE else LADDER_SHARE / (len(RATES) - 1)
        sessions = max(1, round(rate * seconds * share / lanes / TAPE_WINDOWS))
        results.append(_measured_step(server, tapes, seed, index, rate, sessions, lanes))
    # Saturation: every window due at once, so the server decides flat out.
    sessions = max(1, round(SATURATION_WPS * seconds * SATURATION_SHARE / lanes / TAPE_WINDOWS))
    results.append(
        _measured_step(server, tapes, seed, len(RATES), math.inf, sessions, lanes)
    )
    return results


def _measured_step(
    server: ServerProcess,
    tapes: Sequence[Tape],
    seed: int,
    index: int,
    rate: float,
    sessions: int,
    lanes: int,
) -> StepResult:
    # The generator's own collector pauses would read as server latency.
    before = common.calibrate()
    gc.collect()
    gc.disable()
    server.command("begin")
    try:
        step = asyncio.run(
            _run_step(server.port, tapes, seed, index, rate, sessions * TAPE_WINDOWS, lanes)
        )
    finally:
        gc.enable()
    step.server = server.command("end")
    step.speed = common.speed([before, common.calibrate()])
    return step


def replay_each(server: ServerProcess, tapes: Sequence[Tape], lanes: int) -> StepResult:
    """Every tape once, all windows due at once: the golden check's pass."""
    sessions = math.ceil(len(tapes) / lanes)
    return _measured_step(server, tapes, 0, len(RATES) + 1, math.inf, sessions, lanes)


def served_digest(step: StepResult, n_tapes: int) -> str:
    """Digest of the first served stream of every tape, in tape order."""
    first: Dict[int, List[Any]] = {}
    for index, stream in step.streams:
        first.setdefault(index, stream)
    return digests.serve_digest(first.get(index) for index in range(n_tapes))


def summarize(steps: Sequence[StepResult]) -> Dict[str, Any]:
    """End-to-end serve figures from a ladder."""
    reference = next(step for step in steps if step.rate == REFERENCE_RATE)
    saturated = next(step for step in steps if step.rate == math.inf)
    passing = [step for step in steps if step.rate != math.inf and step.meets_limit()]
    capacity = saturated.achieved_rate() / saturated.server["speed"]
    block_p99 = reference.block_p99_ms()
    return {
        "p50_ms": stats.percentile(reference.latencies_ms(), 50.0) * reference.latency_speed,
        "p99_ms": None if block_p99 is None else block_p99 * reference.latency_speed,
        "cells_per_s": capacity,
        "users_per_s": capacity / TAPE_WINDOWS,
        "max_rate_wps": max(passing, key=lambda step: step.rate).achieved_rate()
        if passing
        else 0.0,
        "samples": len(reference.latencies),
        "raw": {
            "p50_ms": stats.percentile(reference.latencies_ms(), 50.0),
            "p99_ms": block_p99,
            "cells_per_s": saturated.achieved_rate(),
        },
        "steps": [
            {
                "rate": step.rate if math.isfinite(step.rate) else "saturation",
                "windows": step.windows,
                "achieved_wps": step.achieved_rate(),
                "p50_ms": stats.percentile(step.latencies_ms(), 50.0)
                if step.latencies
                else None,
                "p99_ms": step.p99_ms(),
                "late_p99_ms": step.late_p99_ms(),
                "backlog_max": step.backlog_max,
                "valid": step.valid(),
                "meets_limit": step.meets_limit(),
                "failed": step.failed,
                "server_cpu_s": step.server.get("cpu_s"),
                "server_wall_s": step.server.get("wall_s"),
                "speed": step.speed,
                "server_speed": step.server.get("speed"),
            }
            for step in steps
        ],
    }


class ServeWorkload:
    """Set-up, ladder and golden check of ``serve_open``."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.servers: List[ServerProcess] = []
        self.exp: Any = None
        self.tapes: List[Tape] = []

    def setup(self, seed: int) -> Dict[str, Any]:
        # Servers load their bundle while this process records the tapes.
        self.servers = [ServerProcess(trace=False)]
        if self.trace:
            self.servers.append(ServerProcess(trace=True))
        try:
            self.exp, store = common.experiment(TAPE_WINDOWS)
            self.tapes = record_tapes(self.exp, seed)
            for server in self.servers:
                server.wait_ready()
        except BaseException:
            self.teardown()
            raise
        return store

    def golden_digest(self, seed: int, server: ServerProcess) -> str:
        tapes = self.tapes if seed == digests.GOLDEN_SEED else record_tapes(
            self.exp, digests.GOLDEN_SEED
        )
        step = replay_each(server, tapes, common.nproc())
        if step.failed:
            return f"failed:{step.failed}"
        return served_digest(step, len(tapes))

    def teardown(self) -> None:
        for server in self.servers:
            server.close()


# ---------------------------------------------------------------------------
# serve_closed: lockstep devices against an in-process server
# ---------------------------------------------------------------------------


async def _lockstep_session(
    port: int, tape: Tape, latencies: List[float]
) -> Tuple[int, List[Any]]:
    """One device in lockstep: each window waits for the previous decision.

    Returns ``(failed windows, served stream)``; a window's latency runs
    from its send to the arrival of its decision.
    """
    n = len(tape.windows)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(tape.hello)
        ack = await _read_frame(reader)
        if ack is None or ack.get("type") != "hello_ack" or ack["active"] != tape.actives[0]:
            return n, []
        failed = 0
        stream: List[Any] = []
        for slot, frame in enumerate(tape.windows):
            sent = time.perf_counter()
            writer.write(frame)
            decision = await _read_frame(reader)
            arrived = time.perf_counter()
            if decision is None or decision.get("type") != "decision":
                return failed + n - slot, stream
            latencies.append((arrived - sent) * 1e3)
            expected_next = tape.actives[slot + 1] if slot + 1 < n else None
            if (
                decision["shed"]
                or decision["label"] != tape.labels[slot]
                or decision["active_next"] != expected_next
            ):
                failed += 1
            stream.append([decision["label"], decision["active_next"]])
        writer.write(tape.bye)
        bye = await _read_frame(reader)
        if bye is None or bye.get("type") != "bye_ack":
            failed += 1
        return failed, stream
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ClosedServeWorkload:
    """``serve_closed``: tape sessions through a ``ServeServer`` in this process.

    Each of ``nproc`` lanes is one device in lockstep, running tape
    sessions back to back over localhost TCP; one event loop carries the
    server and the devices.  A unit replays every tape ``ROUNDS`` times.

    The process runs on one core from set-up to tear-down: one event loop
    needs no more, and over five seeds run both ways in turn, runs left
    free to move between cores spread their p50 and throughput four to
    six times as widely as pinned runs.
    """

    ROUNDS = 2

    def __init__(self) -> None:
        self.exp: Any = None
        self.tapes: List[Tape] = []
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Any = None
        self.affinity = os.sched_getaffinity(0)
        self.lanes = len(self.affinity)

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.serve.server import ServeServer
        from repro.serve.session import EngineCatalog, ServeProfile

        os.sched_setaffinity(0, {max(self.affinity)})
        self.exp, store = common.experiment(TAPE_WINDOWS)
        self.tapes = record_tapes(self.exp, seed)
        self.loop = asyncio.new_event_loop()
        self.server = ServeServer(
            EngineCatalog([ServeProfile.from_experiment("default", self.exp)]),
            overload="block",
        )
        self.loop.run_until_complete(self.server.start())
        return store

    def replay(self, tapes: Sequence[Tape], rounds: int) -> Tuple[int, List[Any], List[float]]:
        """Every tape ``rounds`` times; ``(failed, first stream per tape, latencies)``."""
        lanes = self.lanes
        latencies: List[float] = []
        first: Dict[int, List[Any]] = {}
        failed = [0]

        async def lane(offset: int) -> None:
            for index in range(offset, len(tapes) * rounds, lanes):
                lost, stream = await _lockstep_session(
                    self.server.port, tapes[index % len(tapes)], latencies
                )
                failed[0] += lost
                first.setdefault(index % len(tapes), stream)

        async def all_lanes() -> None:
            await asyncio.gather(*(lane(offset) for offset in range(lanes)))

        self.loop.run_until_complete(all_lanes())
        return failed[0], [first.get(index) for index in range(len(tapes))], latencies

    def run_unit(self, seed: int, index: int) -> Any:
        from workloads import UnitResult

        start = time.perf_counter()
        failed, streams, latencies = self.replay(self.tapes, self.ROUNDS)
        wall = time.perf_counter() - start
        sessions = len(self.tapes) * self.ROUNDS
        return UnitResult(
            wall_s=wall,
            cells=sessions * TAPE_WINDOWS,
            users=sessions,
            windows=sessions * TAPE_WINDOWS,
            failed=failed,
            digest=digests.serve_digest(streams),
            latencies=latencies,
        )

    def golden_unit(self) -> Any:
        """The golden tapes (recorded from the golden seed) replayed once."""
        from workloads import UnitResult

        tapes = record_tapes(self.exp, digests.GOLDEN_SEED)
        failed, streams, _ = self.replay(tapes, 1)
        return UnitResult(0.0, 0, 0, 0, failed, digests.serve_digest(streams))

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.server.stop())
            self.loop.close()
            self.loop = None
        os.sched_setaffinity(0, self.affinity)
