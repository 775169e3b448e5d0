"""Asyncio session server for the online serving path.

One :class:`ServeServer` accepts device connections on a TCP port and
runs each as an independent :class:`~repro.serve.session.Session`
behind one :class:`asyncio.Protocol`.  The protocol parses
length-prefixed frames out of its receive buffer and answers each in
the callback that completed it: ``protocol.decode_frame`` →
``Session.handle`` → one ``transport.write`` of the
``protocol.encode_frame`` bytes.  No reader task or queue sits between
the socket and the decision.

A connection's *backlog* is the number of complete frames buffered
behind the one being answered, counted up to ``queue_size``.  The
overload policy lives there:

* ``overload="block"`` (default) — reading pauses once ``queue_size``
  frames are buffered, and while the transport's write side is paused
  (a device that does not read its decisions), which propagates TCP
  backpressure to the device.  Every window is decided; an overloaded
  server slows devices down instead of degrading, and determinism is
  preserved.
* ``overload="shed"`` — a window frame is shed when the backlog behind
  it exceeds ``shed_watermark``: the reports are still ingested (recall
  memory and scheduler feedback stay consistent) but no vote runs, and
  the device is told to keep its previous decision
  (``decision{shed: true}``).  Latency stays bounded at the cost of
  skipped votes, every one of them accounted in ``serve.windows.shed``.

One callback answers at most ``queue_size`` frames, then yields to the
event loop, so a device that pipelines its windows cannot starve the
other connections.

With ``run_dir`` set the server becomes watchable: it streams cadenced
metric samples (sessions, windows/s, decisions, sheds) into
``run_dir/timeseries.jsonl`` via the standard
:class:`~repro.obs.timeline.TimeSeriesRecorder`, so
``python -m repro.obs.watch RUN_DIR`` renders a live serving dashboard,
and it registers the finished run in the :class:`~repro.obs.runs.RunRegistry`.
With observability on, every window's time from the arrival of its
frame to the write of its decision lands in the ``serve.latency_ms``
histogram; with it off, nothing is timed.

Shutdown is a graceful drain: :meth:`stop` closes the listener, gives
open connections ``drain_timeout_s`` to finish their exchanges, then
aborts the ones still open — leaving no open transport and no task
behind (asserted by the test suite).
"""

from __future__ import annotations

import asyncio
import logging
import os
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError, ServeError
from repro.obs.observer import NULL_OBS, Observability
from repro.obs.trace import Tracer
from repro.serve import protocol
from repro.serve.session import EngineCatalog, Session

__all__ = ["ServeServer"]

logger = logging.getLogger(__name__)

#: Default seconds in-flight sessions get to finish during :meth:`stop`.
DEFAULT_DRAIN_TIMEOUT_S = 5.0

#: Default per-session backlog bound, in frames.
DEFAULT_QUEUE_SIZE = 8

#: Bucket bounds of ``serve.latency_ms``: a served window takes a
#: fraction of a millisecond, an overloaded one up to seconds.
LATENCY_BOUNDS_MS = (0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Longest error message sent back: a message may quote a hostile frame,
#: whose repr can outgrow ``MAX_FRAME_BYTES`` once JSON-escaped.
MAX_ERROR_CHARS = 2000

_PREFIX = protocol.PREFIX_BYTES


class ServeServer:
    """Serve decision engines to streaming devices over TCP.

    Parameters
    ----------
    catalog:
        The :class:`~repro.serve.session.EngineCatalog` of servable
        profiles.
    host / port:
        Bind address; port 0 (default) picks a free port, readable from
        :attr:`port` after :meth:`start`.
    queue_size:
        Per-session backlog bound in frames: reading pauses once this
        many are buffered, and one callback answers at most this many.
    overload:
        ``"block"`` or ``"shed"`` (see module docstring).
    shed_watermark:
        Backlog depth above which the shed policy drops votes; defaults
        to half the queue.
    run_dir:
        Arm live observability: stream ``timeseries.jsonl`` here, write
        per-session decision traces under ``run_dir/sessions/`` when
        ``session_traces`` is set, and register the run on :meth:`stop`.
    session_traces:
        Write each session's engine trace (``slot.scheduled`` /
        ``vote.cast`` / ...) as a standard v2 trace file under
        ``run_dir/sessions/``.
    registry:
        A :class:`~repro.obs.runs.RunRegistry` to record the finished
        run into (``kind="serve"``).  ``None`` skips registration.
    obs:
        Externally owned observability bundle; defaults to a live one
        when ``run_dir`` is set, else ``NULL_OBS``.
    worker_pause_s:
        Artificial per-frame decision delay — a deterministic way to
        make a fast local client outrun the server in tests and demos
        of the overload policies.
    drain_timeout_s / sample_interval_s:
        Shutdown grace period and timeseries cadence.
    """

    def __init__(
        self,
        catalog: EngineCatalog,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        overload: str = "block",
        shed_watermark: Optional[int] = None,
        run_dir: Optional[str] = None,
        session_traces: bool = False,
        registry: Optional[Any] = None,
        obs: Optional[Observability] = None,
        worker_pause_s: float = 0.0,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        sample_interval_s: float = 0.5,
    ) -> None:
        if overload not in ("block", "shed"):
            raise ConfigurationError(
                f"overload must be 'block' or 'shed', got {overload!r}"
            )
        if queue_size < 1:
            raise ConfigurationError(f"queue_size must be >= 1, got {queue_size}")
        if shed_watermark is None:
            shed_watermark = max(1, queue_size // 2)
        if shed_watermark < 0:
            raise ConfigurationError(
                f"shed_watermark must be >= 0, got {shed_watermark}"
            )
        if worker_pause_s < 0:
            raise ConfigurationError(
                f"worker_pause_s must be >= 0, got {worker_pause_s}"
            )
        self.catalog = catalog
        self.host = host
        self._requested_port = port
        self.queue_size = int(queue_size)
        self.overload = overload
        self.shed_watermark = int(shed_watermark)
        self.run_dir = os.fspath(run_dir) if run_dir is not None else None
        self.session_traces = bool(session_traces)
        self.registry = registry
        self.worker_pause_s = float(worker_pause_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.sample_interval_s = float(sample_interval_s)
        if obs is not None:
            self.obs = obs
        elif self.run_dir is not None:
            self.obs = Observability()
        else:
            self.obs = NULL_OBS
        self._latency = (
            self.obs.metrics.histogram("serve.latency_ms", bounds=LATENCY_BOUNDS_MS)
            if self.obs.enabled
            else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["_Connection"] = set()
        self._sampler_task: Optional["asyncio.Task"] = None
        self._recorder = None
        self._session_seq = 0
        self.run_id: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener (and the timeseries stream, if armed)."""
        if self._server is not None:
            raise ServeError("server already started")
        if self.run_dir is not None and self.obs.enabled:
            from repro.obs.timeline import attach_recorder

            os.makedirs(self.run_dir, exist_ok=True)
            self._recorder = attach_recorder(
                self.obs,
                os.path.join(self.run_dir, "timeseries.jsonl"),
                interval_s=self.sample_interval_s,
                meta={
                    "job": "serve",
                    "profiles": ",".join(self.catalog.names()),
                    "overload": self.overload,
                },
            )
            self._recorder.mark("serve.run.started")
            self._sampler_task = asyncio.ensure_future(self._sampler())
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self._requested_port
        )
        logger.info("serving %s on %s:%d", self.catalog.names(), self.host, self.port)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI ``run`` mode)."""
        if self._server is None:
            raise ServeError("server is not started")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: close, wait, abort stragglers, finalize."""
        if self._server is not None:
            self._server.close()
        if self._connections:
            _, pending = await asyncio.wait(
                [connection.lost for connection in self._connections],
                timeout=self.drain_timeout_s,
            )
            if pending:
                logger.warning(
                    "drain timeout: aborting %d open session(s)", len(pending)
                )
                for connection in list(self._connections):
                    connection.transport.abort()
                await asyncio.wait(pending)
        if self._server is not None:
            # After the drain: from python 3.12 this waits for every
            # connection to be gone.
            await self._server.wait_closed()
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        if self._recorder is not None:
            self._recorder.mark("serve.run.finished")
            self._recorder.close()
            self._recorder = None
        if self.registry is not None and self.obs.enabled:
            self.run_id = self.registry.record(
                kind="serve",
                metrics=self.obs.metrics,
                meta={
                    "profiles": ",".join(self.catalog.names()),
                    "overload": self.overload,
                },
                timeseries=(
                    os.path.join(self.run_dir, "timeseries.jsonl")
                    if self.run_dir is not None
                    else None
                ),
                run_dir=self.run_dir,
            )

    async def _sampler(self) -> None:
        while True:
            await asyncio.sleep(self.sample_interval_s)
            if self._recorder is not None:
                self._recorder.sample()

    # ------------------------------------------------------------------
    # per-connection bookkeeping
    # ------------------------------------------------------------------

    def _open_session(self, connection: "_Connection") -> Session:
        self._connections.add(connection)
        metrics = self.obs.metrics
        self._session_seq += 1
        metrics.inc("serve.sessions.opened")
        metrics.set_gauge("serve.sessions.active", len(self._connections))
        session_obs = NULL_OBS
        if self.session_traces and self.run_dir is not None:
            session_obs = Observability(tracer=Tracer(), metrics=metrics)
        return Session(
            self.catalog,
            session_id=f"sess-{self._session_seq}",
            metrics=metrics if self.obs.enabled else None,
            obs=session_obs,
        )

    def _close_session(self, connection: "_Connection") -> None:
        self._connections.discard(connection)
        metrics = self.obs.metrics
        metrics.inc("serve.sessions.closed")
        metrics.set_gauge("serve.sessions.active", len(self._connections))
        session = connection.session
        if session.obs is not NULL_OBS and len(session.obs.tracer):
            self._export_session_trace(session, session.obs)

    def _export_session_trace(self, session: Session, obs: Observability) -> None:
        sessions_dir = os.path.join(self.run_dir, "sessions")
        os.makedirs(sessions_dir, exist_ok=True)
        obs.tracer.write_jsonl(
            os.path.join(sessions_dir, f"{session.session_id}.jsonl"),
            meta={
                "session": session.session_id,
                "profile": session.profile.name if session.profile else None,
                "policy": session.policy.name if session.policy else None,
            },
        )

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Current serving counters (zeros when observability is off)."""
        if not self.obs.enabled:
            return {}
        exported = self.obs.metrics.to_dict()
        counters = exported.get("counters", {})
        return {
            name: counters.get(name, 0.0)
            for name in (
                "serve.sessions.opened",
                "serve.sessions.closed",
                "serve.windows",
                "serve.decisions",
                "serve.windows.shed",
            )
        }


class _Connection(asyncio.Protocol):
    """One device connection: frames in, replies out, no task.

    Complete frames wait in :attr:`frames` (their payloads, with the
    arrival time when latency is timed); :meth:`_answer` answers them
    in order.  A framing error, or an EOF that cuts a frame, is kept in
    :attr:`_error` and answered with an ``error`` frame once the frames
    before it are answered.
    """

    def __init__(self, server: ServeServer) -> None:
        self.server = server
        self.queue_size = server.queue_size
        self.transport: Optional[asyncio.Transport] = None
        self.session: Optional[Session] = None
        self._loop = asyncio.get_running_loop()
        #: Resolved once the connection is gone.
        self.lost: asyncio.Future = self._loop.create_future()
        self.frames: Deque[Tuple[bytes, Optional[float]]] = deque()
        self._buffer = bytearray()
        self._error: Optional[ServeError] = None
        self._eof = False
        self._done = False
        self._write_paused = False
        #: The pending ``call_soon``/``call_later`` that answers next.
        self._next: Optional[asyncio.Handle] = None

    # -- transport callbacks ---------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.session = self.server._open_session(self)

    def data_received(self, data: bytes) -> None:
        if self._done or self._error is not None:
            return
        arrived = perf_counter() if self.server._latency is not None else None
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        size = len(data)
        start = 0
        frames = self.frames
        while size - start >= _PREFIX:
            try:
                length = protocol.frame_length(data, start)
            except ServeError as error:
                # Answered once the frames before it are; its payload is
                # never buffered.
                self._error = error
                start = size
                break
            end = start + _PREFIX + length
            if end > size:
                break
            frames.append((data[start + _PREFIX : end], arrived))
            start = end
        if data is buffer:
            del buffer[:start]
        elif start < size:
            buffer += memoryview(data)[start:]
        if self._next is None:
            self._answer()
        else:
            self._sync_reading()

    def eof_received(self) -> bool:
        if self._error is None and self._buffer:
            where = "mid-prefix" if len(self._buffer) < _PREFIX else "mid-frame"
            self._error = ServeError(f"connection dropped {where}")
        self._eof = True
        if self._next is None and not self._done:
            self._answer()
        # Keep the write side open for the replies still owed.
        return True

    def pause_writing(self) -> None:
        self._write_paused = True
        self._sync_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._next is None and not self._done:
            self._next = self._loop.call_soon(self._answer)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._done = True
        if self._next is not None:
            self._next.cancel()
            self._next = None
        self.frames.clear()
        self.server._close_session(self)
        self.lost.set_result(None)

    # -- answering ---------------------------------------------------------

    def _answer(self) -> None:
        """Answer buffered frames in order.

        Stops when none is left, while the write side is paused, after
        ``queue_size`` frames (the rest go on in a ``call_soon``), or
        when ``worker_pause_s`` defers the next one.
        """
        self._next = None
        frames = self.frames
        budget = self.queue_size
        while frames and not self._write_paused:
            if not budget:
                # Let the other connections run before the rest.
                self._next = self._loop.call_soon(self._answer)
                break
            budget -= 1
            payload, arrived = frames.popleft()
            backlog = min(len(frames), self.queue_size)
            if not self._answer_one(payload, arrived, backlog):
                break
        else:
            # Every buffered frame is answered: a cut or bad stream is
            # answered now, and a finished one closes.
            if not self._write_paused and self._error is not None:
                self._fail(self._error)
                return
            if not self._write_paused and self._eof:
                self._finish()
                return
        self._sync_reading()

    def _answer_one(self, payload: bytes, arrived: Optional[float], backlog: int) -> bool:
        """Decode one frame and answer it now, or after ``worker_pause_s``;
        whether the next frame may be answered right away."""
        server = self.server
        try:
            frame = protocol.decode_frame(payload)
        except ServeError as error:
            self._fail(error)
            return False
        shed = (
            server.overload == "shed"
            and backlog > server.shed_watermark
            and frame.get("type") == "window"
        )
        if server.worker_pause_s:
            self._next = self._loop.call_later(
                server.worker_pause_s, self._answer_later, frame, shed, arrived
            )
            return False
        return self._reply(frame, shed, arrived)

    def _answer_later(self, frame: Dict[str, Any], shed: bool, arrived: Optional[float]) -> None:
        self._next = None
        if self._reply(frame, shed, arrived):
            self._answer()

    def _reply(self, frame: Dict[str, Any], shed: bool, arrived: Optional[float]) -> bool:
        """Handle one frame and write its replies; whether the session goes on."""
        try:
            replies = self.session.handle(frame, shed=shed)
        except ServeError as error:
            self._fail(error)
            return False
        except Exception:
            logger.exception("session %s failed", self.session.session_id)
            self._done = True
            self.transport.abort()
            return False
        write = self.transport.write
        for reply in replies:
            write(protocol.encode_frame(reply))
        if arrived is not None and frame["type"] == "window":
            self.server._latency.observe((perf_counter() - arrived) * 1e3)
        if self.session.closed:
            self._finish()
            return False
        return True

    def _fail(self, error: ServeError) -> None:
        """Answer with an ``error`` frame and close."""
        if not self._done:
            message = str(error)
            if len(message) > MAX_ERROR_CHARS:
                message = message[:MAX_ERROR_CHARS] + "..."
            self.transport.write(
                protocol.encode_frame({"type": "error", "message": message})
            )
            self._finish()

    def _finish(self) -> None:
        """Close after the replies already written are flushed."""
        self._done = True
        self.frames.clear()
        self.transport.close()

    def _sync_reading(self) -> None:
        """Read while fewer than ``queue_size`` frames wait and the
        device reads its replies; never again after an error or EOF."""
        reading = (
            len(self.frames) < self.queue_size
            and not self._write_paused
            and self._error is None
            and not self._eof
            and not self._done
        )
        if reading != self.transport.is_reading():
            if reading:
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()
