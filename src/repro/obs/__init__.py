"""Observability: structured tracing, metrics, and profiling hooks.

The package is the cross-cutting instrumentation seam of the simulation
stack:

``repro.obs.schema``
    Typed event registry and the versioned trace schema (with the
    changelog CI enforces).
``repro.obs.trace``
    :class:`Tracer` / :class:`NullTracer` span-and-event recording with
    JSONL export.
``repro.obs.metrics``
    :class:`MetricsRegistry` of counters/gauges/histograms/timers with
    deterministic field-wise merge (the parallel sweep's aggregation
    substrate).
``repro.obs.observer``
    :class:`Observability` — the handle threaded through
    ``HARExperiment.run(obs=...)``, ``PolicySweep.run(obs=...)`` and the
    WSN/energy/fault layers; :data:`NULL_OBS` is the zero-overhead
    default.
``repro.obs.timeline``
    :class:`TimeSeriesRecorder` — streams cadenced metric snapshots to
    ``timeseries.jsonl`` so in-flight runs can be watched live.
``repro.obs.runs``
    Run registry: ``python -m repro.obs.runs ls|info|diff`` over
    finished runs' metadata + final metrics.
``repro.obs.watch``
    ``python -m repro.obs.watch <run-dir>`` — live terminal dashboard
    tailing an in-flight run's journal + timeseries (read-only).
``repro.obs.summarize``
    ``python -m repro.obs.summarize trace.jsonl`` — per-run report with
    per-node timelines, top timers and the fault ledger.
``repro.obs.smoke``
    ``python -m repro.obs.smoke`` — generates a small traced run's
    artifacts (used by CI).

Quickstart::

    from repro.obs import Observability

    obs = Observability()
    result = experiment.run(origin_policy(3), obs=obs)
    obs.export("trace.jsonl", "metrics.json", meta={"policy": "Origin-RR3"})
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimerStat,
)
from repro.obs.observer import NULL_OBS, NullObservability, Observability
from repro.obs.schema import (
    EVENT_KINDS,
    SCHEMA_CHANGELOG,
    TRACE_SCHEMA_VERSION,
    check_schema_changelog,
)
from repro.obs.timeline import (
    TimeSeriesRecorder,
    attach_recorder,
    read_timeseries,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    read_trace,
    write_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimerStat",
    "NULL_OBS",
    "NullObservability",
    "Observability",
    "EVENT_KINDS",
    "SCHEMA_CHANGELOG",
    "TRACE_SCHEMA_VERSION",
    "check_schema_changelog",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "read_trace",
    "write_trace",
    "TimeSeriesRecorder",
    "attach_recorder",
    "read_timeseries",
]
