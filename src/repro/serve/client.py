"""Serving clients: simulated devices, replay tapes, load generation.

The client side of :mod:`repro.serve` plays the *device*: it owns the
node physics (harvesters, capacitors, NVPs — the node parameters an
offline experiment would build, stepped as a one-run
:class:`~repro.sim.kernel.SlotKernel`) and streams scheduler-visible
states plus per-slot reports to the server, which owns the decision
core.  Two modes:

* :func:`live_session` — lockstep: the device steps its physics against
  the active set the server's last decision piggybacked, one round-trip
  per slot.  This is the deployment shape, and the byte-identity anchor:
  no decision logic runs client-side, yet the served decision stream
  must equal the offline ``HARExperiment.run`` decisions on the same
  timeline.
* :func:`replay_session` — throughput: a prerecorded
  :class:`ReplayTape` (every frame precomputed by a local device +
  :class:`~repro.core.engine.SessionEngine` pair) is pipelined at full
  speed while a concurrent reader drains decisions, so the server's
  queue — not the network round-trip — is the limit.  :func:`run_load`
  fans N of these out concurrently and reduces them to a
  :class:`LoadStats`, whose ``sessions_per_core``
  is the serving headline ``python -m repro.serve load`` prints: a real
  device produces one window per 2.56 s, so a server deciding W
  windows/s can carry ``W x 2.56`` live sessions per core.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import NodeSlotState, SlotReports, WireReport, wire_reports
from repro.core.policies import PolicySpec
from repro.errors import ServeError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    policy_to_wire,
    read_frame,
    report_to_wire,
    states_to_wire,
    validate_frame,
    write_frame,
)
from repro.serve.session import ServeProfile
from repro.sim.kernel import SlotKernel
from repro.sim.predcache import build_run_material, default_subject

__all__ = [
    "DeviceSim",
    "ReplayTape",
    "SessionResult",
    "LoadStats",
    "record_tape",
    "live_session",
    "replay_session",
    "run_load",
]


class DeviceSim:
    """Client-side node physics for one device's timeline.

    Builds the same node parameters and run material (timeline, windows,
    softmax) an offline ``HARExperiment.run(policy, seed=...)`` would,
    and steps them as a one-run :class:`~repro.sim.kernel.SlotKernel`
    under an externally supplied active set.  As in a kernel batch, each
    slot reads only the material rows its completed lanes classify
    (:meth:`~repro.sim.predcache.RunMaterial.rows`) into a one-row
    :class:`~repro.core.engine.SlotReports`.  Because construction,
    physics and rows are shared, a device driven by a served decision
    stream traverses byte-identical physics to the offline run.
    """

    def __init__(
        self,
        experiment: Any,
        *,
        seed: Optional[int] = None,
        n_windows: Optional[int] = None,
        subject: Optional[Any] = None,
    ) -> None:
        config = experiment.config
        if n_windows is not None:
            config = replace(config, n_windows=n_windows)
        self.config = config
        self.seed = experiment.seed if seed is None else int(seed)
        self.subject = subject or default_subject(experiment.dataset)
        self.material = build_run_material(
            experiment.dataset,
            experiment.bundle,
            self.seed,
            n_windows=config.n_windows,
            dwell_scale=config.dwell_scale,
            use_pruned_models=config.use_pruned_models,
            subject=self.subject,
        )
        table = experiment.build_nodes([(self.seed, config)])
        self.node_ids = table.node_ids
        n_nodes = len(self.node_ids)
        self._position = {node_id: k for k, node_id in enumerate(self.node_ids)}
        self.kernel = SlotKernel.from_lanes(table, range(n_nodes))
        self._active = np.zeros(n_nodes, dtype=bool)
        # The row's lossless link and the label/confidence columns that
        # completed lanes fill each slot.
        shape = (1, n_nodes)
        self._delivered = np.ones(shape, dtype=bool)
        self._reported = np.full(shape, -1, dtype=np.int64)
        self._predicted = np.zeros(shape, dtype=np.int64)
        self._confidence = np.zeros(shape, dtype=np.float64)
        self.n_windows = config.n_windows

    def states(self) -> Dict[int, NodeSlotState]:
        """Scheduler-visible state of every node, construction order."""
        stored = self.kernel.stored.tolist()
        ready = self.kernel.ready_mask().tolist()
        return {
            node_id: NodeSlotState(energy_j=stored[k], ready=ready[k])
            for k, node_id in enumerate(self.node_ids)
        }

    def step(self, slot: int, active: Sequence[int]) -> List[WireReport]:
        """Run one slot's physics; returns the active nodes' reports, node order."""
        self._active[:] = False
        self._active[[self._position[node_id] for node_id in active]] = True
        events = self.kernel.advance(slot, self._active)
        for k in np.flatnonzero(events.completed).tolist():
            labels, confidences = self.material.rows(self.node_ids[k], events.started[k : k + 1])
            self._predicted[0, k] = labels[0]
            self._confidence[0, k] = confidences[0]
        reports = SlotReports(
            self._active[None],
            events.completed[None],
            self._delivered,
            self._predicted,
            self._reported,
            self._confidence,
            events.started[None],
        )
        return wire_reports(slot, reports, self.node_ids)


@dataclass
class ReplayTape:
    """A device session, prerecorded frame by frame.

    Produced by :func:`record_tape` running a local device +
    :class:`~repro.core.engine.SessionEngine` pair; replaying the tape
    through a server must reproduce ``expected_labels`` /
    ``expected_active`` exactly (under the ``block`` overload policy)."""

    profile: str
    policy: Dict[str, Any]
    seed: int
    n_windows: int
    window_duration_s: float
    hello: Dict[str, Any]
    windows: List[Dict[str, Any]]
    expected_labels: List[Optional[int]]
    expected_active: List[List[int]]


def record_tape(
    experiment: Any,
    policy: PolicySpec,
    *,
    profile: str = "default",
    seed: Optional[int] = None,
    n_windows: Optional[int] = None,
) -> ReplayTape:
    """Precompute one session's frames and expected decision stream."""
    sim = DeviceSim(experiment, seed=seed, n_windows=n_windows)
    engine = ServeProfile(
        name=profile,
        dataset=experiment.dataset,
        bundle=experiment.bundle,
        config=sim.config,
    ).build_engine(policy)
    n = sim.n_windows
    states = sim.states()
    hello = {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "profile": profile,
        "policy": policy_to_wire(policy),
        "seed": sim.seed,
        "n_windows": n,
        "states": states_to_wire(states),
    }

    def schedule(slot: int, states: Dict[int, NodeSlotState]) -> List[int]:
        # What a serving session does with the same wire records.
        return engine.begin_slot(
            slot,
            [state.ready for state in states.values()],
            online=[state.online for state in states.values()],
        )

    active = schedule(0, states)
    frames: List[Dict[str, Any]] = []
    labels: List[Optional[int]] = []
    actives: List[List[int]] = [list(active)]
    for slot in range(n):
        reports = sim.step(slot, active)
        frame: Dict[str, Any] = {
            "type": "window",
            "slot": slot,
            "reports": [report_to_wire(report) for report in reports],
        }
        labels.append(engine.finish_slot(slot, reports))
        if slot + 1 < n:
            states = sim.states()
            frame["states"] = states_to_wire(states)
            active = schedule(slot + 1, states)
            actives.append(list(active))
        frames.append(frame)
    return ReplayTape(
        profile=profile,
        policy=policy_to_wire(policy),
        seed=sim.seed,
        n_windows=n,
        window_duration_s=experiment.dataset.spec.window_duration_s,
        hello=hello,
        windows=frames,
        expected_labels=labels,
        expected_active=actives,
    )


@dataclass
class SessionResult:
    """One client session's observed decision stream."""

    labels: List[Optional[int]] = field(default_factory=list)
    actives: List[List[int]] = field(default_factory=list)
    shed: List[bool] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Non-shed decisions/actives differing from the tape's expectation
    #: (meaningful under the ``block`` policy, where it must be 0).
    mismatches: int = 0


def _expect(frame: Optional[Dict[str, Any]], kind: str) -> Dict[str, Any]:
    if frame is None:
        raise ServeError(f"server closed while awaiting {kind!r}")
    got = validate_frame(frame)
    if got == "error":
        raise ServeError(f"server error: {frame['message']}")
    if got != kind:
        raise ServeError(f"expected {kind!r} frame, got {got!r}")
    return frame


async def live_session(
    host: str,
    port: int,
    experiment: Any,
    policy: PolicySpec,
    *,
    profile: str = "default",
    seed: Optional[int] = None,
    n_windows: Optional[int] = None,
) -> SessionResult:
    """Lockstep device session: physics here, decisions on the server."""
    sim = DeviceSim(experiment, seed=seed, n_windows=n_windows)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(
            writer,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "profile": profile,
                "policy": policy_to_wire(policy),
                "seed": sim.seed,
                "n_windows": sim.n_windows,
                "states": states_to_wire(sim.states()),
            },
        )
        ack = _expect(await read_frame(reader), "hello_ack")
        active: Sequence[int] = ack["active"]
        result = SessionResult(actives=[list(active)])
        for slot in range(sim.n_windows):
            reports = sim.step(slot, active)
            frame: Dict[str, Any] = {
                "type": "window",
                "slot": slot,
                "reports": [report_to_wire(report) for report in reports],
            }
            if slot + 1 < sim.n_windows:
                frame["states"] = states_to_wire(sim.states())
            await write_frame(writer, frame)
            decision = _expect(await read_frame(reader), "decision")
            result.labels.append(decision["label"])
            result.shed.append(bool(decision["shed"]))
            if decision["active_next"] is not None:
                active = decision["active_next"]
                result.actives.append(list(active))
        await write_frame(writer, {"type": "bye"})
        result.stats = _expect(await read_frame(reader), "bye_ack")["stats"]
        return result
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def replay_session(
    host: str, port: int, tape: ReplayTape, *, check: bool = True
) -> SessionResult:
    """Pipelined tape replay: frames stream while a reader drains.

    The writer never waits for decisions, so the server's queue (and
    its overload policy) is what paces the exchange — the shape that
    measures server throughput rather than round-trip latency.
    """
    reader, writer = await asyncio.open_connection(host, port)

    async def consume() -> SessionResult:
        ack = _expect(await read_frame(reader), "hello_ack")
        result = SessionResult(actives=[list(ack["active"])])
        while True:
            frame = await read_frame(reader)
            if frame is None:
                raise ServeError("server closed mid-replay")
            kind = validate_frame(frame)
            if kind == "decision":
                result.labels.append(frame["label"])
                result.shed.append(bool(frame["shed"]))
                if frame["active_next"] is not None:
                    result.actives.append(list(frame["active_next"]))
            elif kind == "bye_ack":
                result.stats = frame["stats"]
                return result
            elif kind == "error":
                raise ServeError(f"server error: {frame['message']}")
            else:
                raise ServeError(f"unexpected {kind!r} frame mid-replay")

    consumer = asyncio.ensure_future(consume())
    try:
        await write_frame(writer, tape.hello)
        for frame in tape.windows:
            await write_frame(writer, frame)
        await write_frame(writer, {"type": "bye"})
        result = await consumer
    except BaseException:
        consumer.cancel()
        try:
            await consumer
        except (asyncio.CancelledError, Exception):
            pass
        raise
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if check:
        for index, label in enumerate(result.labels):
            if result.shed[index]:
                continue
            if label != tape.expected_labels[index]:
                result.mismatches += 1
        for expected, got in zip(tape.expected_active, result.actives):
            if expected != got:
                result.mismatches += 1
    return result


@dataclass
class LoadStats:
    """Aggregate of one load-generation round."""

    sessions: int
    windows: int
    decisions: int
    shed: int
    mismatches: int
    wall_s: float
    windows_per_s: float
    #: Live sessions one server core can carry in real time: a device
    #: emits one window per ``window_duration_s``, so throughput times
    #: window duration is the sustainable concurrent-session count.
    sessions_per_core: float


async def run_load(
    host: str,
    port: int,
    tapes: Sequence[ReplayTape],
    n_sessions: int,
    *,
    check: bool = True,
) -> LoadStats:
    """Replay ``n_sessions`` concurrent sessions round-robin over tapes."""
    if not tapes:
        raise ServeError("run_load needs at least one tape")
    start = time.perf_counter()
    results = await asyncio.gather(
        *(
            replay_session(host, port, tapes[index % len(tapes)], check=check)
            for index in range(n_sessions)
        )
    )
    wall_s = time.perf_counter() - start
    windows = sum(int(result.stats.get("windows", 0)) for result in results)
    decisions = sum(int(result.stats.get("decisions", 0)) for result in results)
    shed = sum(int(result.stats.get("shed", 0)) for result in results)
    mismatches = sum(result.mismatches for result in results)
    windows_per_s = windows / wall_s if wall_s > 0 else 0.0
    return LoadStats(
        sessions=n_sessions,
        windows=windows,
        decisions=decisions,
        shed=shed,
        mismatches=mismatches,
        wall_s=wall_s,
        windows_per_s=windows_per_s,
        sessions_per_core=windows_per_s * tapes[0].window_duration_s,
    )
