"""Per-connection serving session: the decision core behind a socket.

A :class:`Session` is the server-side state machine for one connected
device.  It owns a :class:`~repro.core.engine.SessionEngine` built from
a named :class:`ServeProfile` (dataset + trained bundle + deployment
config — the experiment's assets, minus the simulation loop) and
advances it one wire exchange at a time:

* ``hello`` → build the engine, schedule slot 0, reply ``hello_ack``;
* ``window`` → ingest the slot's reports, vote, schedule the next slot,
  reply ``decision`` (with the next active set piggybacked);
* ``bye`` → reply ``bye_ack`` with the session's counters.

The engine is the scalar one — one scheduler, one recall memory, one
vote: a session is a single run, where a one-row columnar step costs
about 5x the scalar one (DESIGN §16).  A session hands it only the
ready/online flags it reads off the wire in deployment order, reports
and ``decide``.

The session is transport-free (it maps frames to reply frames,
synchronously), so the protocol state machine is testable without a
socket; the server answers each frame with one :meth:`Session.handle`
call inside the protocol callback that completed the frame.  Fed the
same per-slot states and reports as an offline :class:`HARExperiment`
run, the engine inside produces the byte-identical decision stream —
the correctness anchor ``benchmarks/bench_serve.py``, ``python -m
repro.serve replay`` and the test suite assert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.engine import SessionEngine, WireReport
from repro.core.policies import PolicySpec
from repro.datasets.base import HARDataset
from repro.errors import ConfigurationError, SchedulingError, ServeError
from repro.obs.observer import NULL_OBS, Observability
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    flags_from_wire,
    integer_from_wire,
    policy_from_wire,
    report_from_wire,
    validate_frame,
)
from repro.sim.experiment import SimulationConfig
from repro.sim.training import TrainedSensorBundle

__all__ = ["ServeProfile", "EngineCatalog", "Session", "SessionState"]


@dataclass(frozen=True)
class ServeProfile:
    """One servable deployment: dataset + trained bundle + config.

    The serving analogue of a :class:`~repro.sim.experiment.HARExperiment`
    without the simulation machinery — exactly the assets a session
    needs to build a :class:`~repro.core.engine.SessionEngine`.
    """

    name: str
    dataset: HARDataset
    bundle: TrainedSensorBundle
    config: SimulationConfig = SimulationConfig()

    @classmethod
    def from_experiment(cls, name: str, experiment: Any) -> "ServeProfile":
        """Wrap an existing experiment's assets as a servable profile."""
        return cls(
            name=name,
            dataset=experiment.dataset,
            bundle=experiment.bundle,
            config=experiment.config,
        )

    @property
    def node_ids(self) -> List[int]:
        """Deployment node ids in construction order."""
        return [
            self.bundle.node_id_of(location)
            for location in self.dataset.spec.locations
        ]

    def build_engine(
        self, policy: PolicySpec, *, obs: Observability = NULL_OBS
    ) -> SessionEngine:
        """A fresh decision engine for one session of ``policy``.

        Mirrors ``HARExperiment.run``'s setup: the confidence matrix is
        a per-session copy of the bundle's, adapted only under adaptive
        policies — so every session starts from the validation-seeded
        priors and personalizes independently.  A policy this
        deployment cannot schedule raises
        :class:`~repro.errors.ServeError`.
        """
        try:
            return SessionEngine(
                policy,
                self.node_ids,
                self.bundle.rank_table,
                self.bundle.confidence_matrix.copy(),
                obs=obs,
            )
        except (ConfigurationError, SchedulingError) as error:
            raise ServeError(
                f"profile {self.name!r} cannot run policy {policy.name!r}: {error}"
            ) from None


class EngineCatalog:
    """The profiles a server is willing to serve, by name."""

    def __init__(self, profiles: Any = ()) -> None:
        self._profiles: Dict[str, ServeProfile] = {}
        for profile in profiles:
            self.add(profile)

    def add(self, profile: ServeProfile) -> None:
        self._profiles[profile.name] = profile

    def get(self, name: str) -> ServeProfile:
        profile = self._profiles.get(name)
        if profile is None:
            raise ServeError(
                f"unknown profile {name!r}; serving {sorted(self._profiles)}"
            )
        return profile

    def names(self) -> List[str]:
        return sorted(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)


class SessionState(enum.Enum):
    AWAIT_HELLO = "await_hello"
    STREAMING = "streaming"
    CLOSED = "closed"


class Session:
    """Protocol state machine for one device connection.

    Parameters
    ----------
    catalog:
        The servable profiles.
    session_id:
        Server-assigned id, echoed in ``hello_ack``.
    metrics:
        The *server's* registry for the serving counters
        (``serve.windows`` / ``serve.decisions`` / ``serve.windows.shed``);
        sessions share it.  ``None`` counts locally only.
    obs:
        Per-session observability for the engine's decision trace
        (``slot.scheduled`` / ``vote.cast`` / ``confidence.updated`` —
        the same v2 event kinds an offline run emits).  Default: the
        zero-overhead ``NULL_OBS``.
    """

    def __init__(
        self,
        catalog: EngineCatalog,
        *,
        session_id: str = "sess-0",
        metrics: Optional[Any] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.catalog = catalog
        self.session_id = session_id
        self.metrics = metrics
        self.obs = obs
        self.state = SessionState.AWAIT_HELLO
        self.engine: Optional[SessionEngine] = None
        self.profile: Optional[ServeProfile] = None
        self.policy: Optional[PolicySpec] = None
        self.n_windows = 0
        self.expected_slot = 0
        self.windows = 0
        self.decisions = 0
        self.shed_windows = 0
        self.completions = 0
        self._finished_emitted = False

    @property
    def closed(self) -> bool:
        return self.state is SessionState.CLOSED

    # ------------------------------------------------------------------

    def handle(
        self, frame: Dict[str, Any], *, shed: bool = False
    ) -> List[Dict[str, Any]]:
        """Advance the state machine by one frame; returns the replies.

        ``shed=True`` marks this frame as arriving over an overloaded
        session (the server's shed policy decided, not the session):
        a window frame is then ingested without voting and answered
        with the last served decision flagged ``shed``.  Raises
        :class:`~repro.errors.ServeError` on any protocol violation —
        the server answers with an ``error`` frame and drops the
        connection.
        """
        kind = validate_frame(frame)
        if kind == "hello":
            return self._handle_hello(frame)
        if kind == "window":
            return self._handle_window(frame, shed=shed)
        if kind == "bye":
            return self._handle_bye()
        raise ServeError(f"client may not send {kind!r} frames")

    # ------------------------------------------------------------------

    def _handle_hello(self, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        if self.state is not SessionState.AWAIT_HELLO:
            raise ServeError("duplicate hello")
        version = frame["version"]
        if version != PROTOCOL_VERSION:
            raise ServeError(
                f"protocol version {version!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        self.profile = self.catalog.get(str(frame["profile"]))
        self.policy = policy_from_wire(frame["policy"])
        n_windows = integer_from_wire(frame, "n_windows")
        if n_windows < 1:
            raise ServeError(f"n_windows must be >= 1, got {n_windows}")
        seed = integer_from_wire(frame, "seed")
        self.n_windows = n_windows
        self.engine = self.profile.build_engine(self.policy, obs=self.obs)
        ready, online = flags_from_wire(frame["states"], self.engine.node_ids)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.emit(
                "run.started",
                policy=self.policy.name,
                seed=seed,
                n_windows=n_windows,
                n_nodes=len(self.profile.node_ids),
            )
        active = self.engine.begin_slot(0, ready, online=online)
        self.state = SessionState.STREAMING
        self.expected_slot = 0
        return [
            {
                "type": "hello_ack",
                "version": PROTOCOL_VERSION,
                "session": self.session_id,
                "active": list(active),
            }
        ]

    def _check_reports(self, reports: List[WireReport], slot: int) -> List[WireReport]:
        # The engine trusts its inputs: a stranger's node id or a label
        # outside the deployment's classes would be voted on (or fail
        # deep inside the confidence matrix), and a node reporting twice
        # would be ingested and counted twice, so reject them here.  A
        # device reports each node at most once per window, for that
        # window's slot, on a window sensed no later than it, and only
        # what reached the host: a dropped message never arrives.
        node_ids = self.engine.node_ids
        n_classes = self.engine.confidence.n_classes
        seen = set()
        for report in reports:
            node_id = report.node_id
            if node_id not in node_ids:
                raise ServeError(f"report from node {node_id}, not one of {node_ids}")
            for label in (report.predicted_label, report.reported_label):
                if label is not None and not 0 <= label < n_classes:
                    raise ServeError(
                        f"report label {label} outside [0, {n_classes})"
                    )
            if not report.delivered:
                raise ServeError(f"undelivered report from node {node_id}")
            if node_id in seen:
                raise ServeError(f"second report from node {node_id} in the window of slot {slot}")
            seen.add(node_id)
            if report.slot_index != slot:
                raise ServeError(
                    f"report for slot {report.slot_index} in the window of slot {slot}"
                )
            started = report.started_slot
            if started is not None and not 0 <= started <= slot:
                raise ServeError(f"report started slot {started} outside [0, {slot}]")
        return reports

    def _handle_window(
        self, frame: Dict[str, Any], *, shed: bool
    ) -> List[Dict[str, Any]]:
        if self.state is not SessionState.STREAMING:
            raise ServeError("window before hello (or after close)")
        slot = integer_from_wire(frame, "slot")
        if slot != self.expected_slot:
            raise ServeError(
                f"out-of-order window: expected slot {self.expected_slot}, "
                f"got {slot}"
            )
        if slot >= self.n_windows:
            raise ServeError(
                f"slot {slot} beyond the announced n_windows={self.n_windows}"
            )
        raw_reports = frame["reports"]
        if not isinstance(raw_reports, (list, tuple)):
            raise ServeError(f"reports must be a list, got {type(raw_reports).__name__}")
        reports = self._check_reports([report_from_wire(raw) for raw in raw_reports], slot)
        # The next slot's states are checked too before anything moves.
        next_states = frame.get("states")
        if next_states is not None:
            if slot + 1 >= self.n_windows:
                raise ServeError(
                    f"states supplied with the final window (slot {slot} of "
                    f"{self.n_windows})"
                )
            ready, online = flags_from_wire(next_states, self.engine.node_ids)
        self.windows += 1
        self.completions += sum(1 for report in reports if report.completed)
        if self.metrics is not None:
            self.metrics.inc("serve.windows")
        if shed:
            # Overload: ingest the reports (recall memory and scheduler
            # feedback stay consistent) but skip the vote; the device
            # keeps the previous decision for this window.
            self.engine.finish_slot(slot, reports, decide=False)
            label = self.engine.last_final
            self.shed_windows += 1
            if self.metrics is not None:
                self.metrics.inc("serve.windows.shed")
        else:
            label = self.engine.finish_slot(slot, reports)
            self.decisions += 1
            if self.metrics is not None:
                self.metrics.inc("serve.decisions")
        if next_states is not None:
            active_next: Optional[List[int]] = list(
                self.engine.begin_slot(slot + 1, ready, online=online)
            )
        else:
            active_next = None
            self._emit_finished()
        self.expected_slot = slot + 1
        return [
            {
                "type": "decision",
                "slot": slot,
                "label": label,
                "shed": shed,
                "active_next": active_next,
            }
        ]

    def _handle_bye(self) -> List[Dict[str, Any]]:
        if self.state is SessionState.CLOSED:
            raise ServeError("bye after close")
        self._emit_finished()
        self.state = SessionState.CLOSED
        return [
            {
                "type": "bye_ack",
                "stats": {
                    "session": self.session_id,
                    "windows": self.windows,
                    "decisions": self.decisions,
                    "shed": self.shed_windows,
                    "completions": self.completions,
                },
            }
        ]

    def _emit_finished(self) -> None:
        tracer = self.obs.tracer
        if tracer.enabled and not self._finished_emitted and self.policy is not None:
            self._finished_emitted = True
            tracer.emit(
                "run.finished",
                policy=self.policy.name,
                completions=self.completions,
                decisions=self.decisions,
            )
