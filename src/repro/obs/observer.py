"""The observability bundle threaded through the simulation stack.

An :class:`Observability` pairs a :class:`~repro.obs.trace.Tracer` with
a :class:`~repro.obs.metrics.MetricsRegistry` and provides the scoped
wall-time profiling hook::

    obs = Observability()
    with obs.timed("sweep.run"):
        ...hot path...
    obs.metrics.timer("sweep.run").total_s

Every observable component takes (or is assigned) an ``obs`` and
defaults to :data:`NULL_OBS`, whose ``enabled`` flag is ``False``,
whose ``timed`` hands out a shared no-op scope and whose tracer/metrics
swallow everything — so the untraced path costs one attribute load and
a predictable branch, keeping default runs bit-identical and fast.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, NullMetrics, TimerStat
from repro.obs.trace import NULL_TRACER, Tracer


class _TimedScope:
    """Context manager accumulating wall time into one TimerStat."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: TimerStat) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimedScope":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._timer.record(time.perf_counter() - self._start)


class _NullScope:
    """Reusable no-op scope (no clock reads, no allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SCOPE = _NullScope()


class Observability:
    """Tracer + metrics + profiling scopes, as one threadable handle."""

    enabled = True

    def __init__(
        self,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional :class:`~repro.obs.timeline.TimeSeriesRecorder`
        #: (installed by ``repro.obs.timeline.attach_recorder``).  When
        #: set, long-running paths stream cadenced metric snapshots a
        #: live watcher can tail; when ``None`` those sites skip with
        #: one attribute load.
        self.timeseries: Optional[Any] = None
        self._scopes: Dict[str, _TimedScope] = {}

    def timed(self, name: str) -> _TimedScope:
        """Scoped wall-time profiler: ``with obs.timed("sweep.run"): ...``.

        Scopes are cached per name (one allocation ever per timer), so
        the hot path pays two clock reads and a dict hit.  Consequence:
        a scope must not be nested inside itself (``timed("x")`` within
        ``timed("x")``) — the inner enter would clobber the outer start.
        No instrumentation site in the simulator self-nests.
        """
        scope = self._scopes.get(name)
        if scope is None:
            scope = self._scopes[name] = _TimedScope(self.metrics.timer(name))
        return scope

    def export(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        *,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the trace (JSONL) and/or metrics snapshot (JSON)."""
        if trace_path is not None:
            self.tracer.write_jsonl(trace_path, meta=meta)
        if metrics_path is not None:
            import json

            with open(metrics_path, "w") as handle:
                json.dump(self.metrics.to_dict(), handle, indent=2)
                handle.write("\n")


class NullObservability(Observability):
    """The zero-overhead default: disabled, swallows everything."""

    enabled = False

    def __init__(self) -> None:
        self.tracer = NULL_TRACER
        self.metrics = NullMetrics()
        self.timeseries = None

    def timed(self, name: str) -> _NullScope:  # noqa: ARG002
        return _NULL_SCOPE


#: Shared disabled bundle; the default ``obs`` everywhere.
NULL_OBS = NullObservability()
