"""Online serving: the decision core behind an asyncio session server.

The experiment/serving split: :mod:`repro.core.engine` holds the
per-slot decision logic (scheduling, recall, voting, confidence
adaptation) with no simulation loop around it, and this package serves
it to streaming devices —

* :mod:`repro.serve.protocol` — length-prefixed JSON frames;
* :mod:`repro.serve.session` — per-connection state machine over a
  :class:`~repro.serve.session.ServeProfile` catalog;
* :mod:`repro.serve.server` — asyncio TCP server, one protocol
  callback per served frame, with a bounded per-session backlog,
  block/shed overload policies, graceful drain and live
  ``repro.obs.watch`` dashboards;
* :mod:`repro.serve.client` — simulated devices, replay tapes and the
  concurrent load generator behind ``benchmarks/bench_serve.py``'s
  gates and ``python -m repro.serve load``.

Correctness anchor: a served session fed an offline run's timeline
produces the byte-identical decision and active-set streams (``python
-m repro.serve replay`` checks both end to end).
"""

from repro.serve.client import (
    DeviceSim,
    LoadStats,
    ReplayTape,
    SessionResult,
    live_session,
    record_tape,
    replay_session,
    run_load,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WireReport,
    decode_frame,
    encode_frame,
    read_frame,
    validate_frame,
    write_frame,
)
from repro.serve.server import ServeServer
from repro.serve.session import EngineCatalog, ServeProfile, Session, SessionState

__all__ = [
    "DeviceSim",
    "LoadStats",
    "ReplayTape",
    "SessionResult",
    "live_session",
    "record_tape",
    "replay_session",
    "run_load",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "WireReport",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "validate_frame",
    "write_frame",
    "ServeServer",
    "EngineCatalog",
    "ServeProfile",
    "Session",
    "SessionState",
]
