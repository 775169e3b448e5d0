"""The per-layer ledger: which public calls are wrapped, and what they report.

Every wrapped call becomes a span of one layer.  The per-layer metrics
are self times (a span's time minus its children's) summed by layer, so
the ledger's self times plus the unattributed time equal the traced wall.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Set, Tuple

from tracer import (
    Probe,
    Span,
    Tracer,
    layer_inclusive_times,
    layer_self_times,
    unattributed,
)

#: Every per-layer metric, in ``BENCHMARK.json`` order.  Metrics of a
#: layer a workload does not reach read 0.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("datasets.windows", "count", "lower"),
    ("datasets.synth_s", "s", "lower"),
    ("nn.rows", "count", "lower"),
    ("nn.predict_s", "s", "lower"),
    ("predcache.materials", "count", "lower"),
    ("predcache.build_s", "s", "lower"),
    ("predcache.self_s", "s", "lower"),
    ("predcache.useful_ratio", "ratio", "higher"),
    ("baselines.cells", "count", "lower"),
    ("baselines.eval_s", "s", "lower"),
    ("baselines.self_s", "s", "lower"),
    ("energy.traces", "count", "lower"),
    ("energy.traces_s", "s", "lower"),
    ("kernel.lane_slots", "count", "lower"),
    ("kernel.advance_s", "s", "lower"),
    ("kernel.batch_s", "s", "lower"),
    ("kernel.glue_s", "s", "lower"),
    ("engine.slots", "count", "lower"),
    ("engine.begin_s", "s", "lower"),
    ("engine.finish_s", "s", "lower"),
    ("sweep.cells", "count", "higher"),
    ("sweep.self_s", "s", "lower"),
    ("fleet.users", "count", "higher"),
    ("fleet.aggregate_s", "s", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("pool.tasks", "count", "lower"),
    ("pool.run_s", "s", "lower"),
    ("pool.first_outcome_s", "s", "lower"),
    ("pool.retries", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("serve.frames", "count", "lower"),
    ("serve.bytes", "bytes", "lower"),
    ("serve.decode_s", "s", "lower"),
    ("serve.encode_s", "s", "lower"),
    ("serve.handle_s", "s", "lower"),
    ("serve.engine_s", "s", "lower"),
    ("serve.cpu_s", "s", "lower"),
    ("serve.loop_s", "s", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("gen.backlog_max", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _one(args: Any, kwargs: Any, result: Any) -> float:
    return 1.0


class UsefulRows:
    """``predcache.useful_ratio``: softmax rows some run made active / rows computed.

    Rows are ``(material, slot, node)``.  A material's rows are computed
    once when it is built; a row is useful when any run fed from that
    material activates the node in that slot.
    """

    def __init__(self) -> None:
        self.computed = 0
        self.materials: Dict[int, Any] = {}
        self.used: Dict[int, Set[Tuple[int, int]]] = {}

    def built(self, args: Any, kwargs: Any, material: Any, span: Span) -> None:
        if material.probabilities is None:
            return
        self.materials[id(material)] = material
        self.computed += material.n_windows * len(material.probabilities)

    def ran(self, args: Any, kwargs: Any, results: Any, span: Span) -> None:
        for group, runs in zip(args[1], results):
            material = group.material
            if material is None or id(material) not in self.materials:
                continue
            used = self.used.setdefault(id(material), set())
            for run in runs:
                for record in run.records:
                    for node in record.active_nodes:
                        used.add((record.slot_index, node))

    def ratio(self) -> float:
        if not self.computed:
            return 0.0
        return sum(len(rows) for rows in self.used.values()) / self.computed


def batch_probes(tracer: Tracer, useful: UsefulRows) -> List[Probe]:
    """Wrappers for the layers a sweep or a cohort passes through."""
    from repro.core.engine import DecisionEngine
    from repro.datasets.synthesis import SignalSynthesizer
    from repro.energy.traces import PowerTraceGenerator
    from repro.fleet import aggregate as fleet_aggregate
    from repro.fleet import runner as fleet_runner
    from repro.nn.model import Sequential
    from repro.resilience.pool import SupervisedPool
    from repro.sim import baselines, kernel, predcache
    from repro.sim.sweep import PolicySweep

    def batch_count(args: Any, kwargs: Any, result: Any) -> float:
        return float(kwargs.get("count", args[3] if len(args) > 3 else 1))

    def rows(args: Any, kwargs: Any, result: Any) -> float:
        return float(len(args[1]))

    def lanes(args: Any, kwargs: Any, result: Any) -> float:
        return float(args[0].n_lanes)

    def sweep_cells(args: Any, kwargs: Any, result: Any) -> float:
        return float(args[0].n_seeds * (len(result.policies) + len(result.baselines)))

    first_outcome: List[float] = []

    def pool_before(args: Any, kwargs: Any) -> Tuple[tuple, dict]:
        # The pool's first outcome reaches the parent through on_outcome.
        on_outcome = kwargs.get("on_outcome")
        first_outcome.clear()

        def timed(outcome: Any) -> None:
            if not first_outcome:
                first_outcome.append(time.perf_counter())
            if on_outcome is not None:
                on_outcome(outcome)

        return args, dict(kwargs, on_outcome=timed)

    def pool_after(args: Any, kwargs: Any, result: Any, span: Span) -> None:
        tracer.add("pool.retries", float(args[0].stats.get("retries", 0)))
        if first_outcome:
            tracer.add("pool.first_outcome_s", first_outcome[0] - span.start)

    return [
        Probe(SignalSynthesizer, "window", "datasets"),
        Probe(SignalSynthesizer, "batch", "datasets", "datasets.windows", batch_count),
        Probe(Sequential, "predict_logits", "nn", "nn.rows", rows),
        Probe(predcache, "build_run_material", "predcache", "predcache.materials", _one,
              after=useful.built),
        Probe(predcache.PredictionCache, "material", "predcache"),
        Probe(baselines, "evaluate_baseline", "baselines", "baselines.cells", _one),
        Probe(PowerTraceGenerator, "generate_correlated", "energy", "energy.traces", _one),
        Probe(kernel.SlotKernel, "advance", "kernel.physics", "kernel.lane_slots", lanes),
        Probe(kernel, "run_group_batch", "kernel.glue", after=useful.ran),
        Probe(kernel, "run_policy_batch", "kernel.glue"),
        Probe(DecisionEngine, "begin_slot", "engine.begin", "engine.slots", _one),
        Probe(DecisionEngine, "finish_slot", "engine.finish"),
        Probe(PolicySweep, "run", "sweep", "sweep.cells", sweep_cells),
        Probe(fleet_runner.FleetRunner, "run", "fleet"),
        Probe(fleet_runner, "shard_aggregate", "fleet"),
        Probe(fleet_runner, "simulate_users", "fleet"),
        Probe(fleet_runner, "user_metrics", "fleet.aggregate"),
        Probe(fleet_aggregate.FleetAggregate, "add_user", "fleet.aggregate", "fleet.users", _one),
        Probe(fleet_aggregate.FleetAggregate, "merge", "fleet.aggregate"),
        Probe(SupervisedPool, "run", "pool", "pool.tasks", rows,
              before=pool_before, after=pool_after),
    ]


def store_probes() -> List[Probe]:
    """Wrappers for the bundle store, which only set-up reaches."""
    from repro.sim.training import TrainedSensorBundle

    return [
        Probe(TrainedSensorBundle, "train_or_load", "store", "store.loads", _one),
        Probe(TrainedSensorBundle, "train", "store", "store.misses", _one),
    ]


def serve_probes(tracer: Tracer) -> List[Probe]:
    """Wrappers for the server-side layers; a window's spans share ``(session, slot)``."""
    from repro.core.engine import DecisionEngine
    from repro.serve import protocol
    from repro.serve.session import Session

    decoded: Dict[int, Span] = {}
    replies: Dict[int, Any] = {}

    def after_decode(args: Any, kwargs: Any, frame: Any, span: Span) -> None:
        tracer.add("serve.bytes", len(args[0]))
        decoded[id(frame)] = span

    def after_handle(args: Any, kwargs: Any, result: Any, span: Span) -> None:
        session, frame = args[0], args[1]
        span.key = (session.session_id, frame.get("slot"))
        decode_span = decoded.pop(id(frame), None)
        if decode_span is not None:
            decode_span.key = span.key
        for reply in result:
            replies[id(reply)] = span.key

    def after_encode(args: Any, kwargs: Any, payload: Any, span: Span) -> None:
        tracer.add("serve.bytes", len(payload))
        span.key = replies.pop(id(args[0]), None)

    return [
        Probe(protocol, "decode_frame", "serve.decode", "serve.frames", _one, after=after_decode),
        Probe(protocol, "encode_frame", "serve.encode", "serve.frames", _one, after=after_encode),
        Probe(Session, "handle", "serve.handle", after=after_handle),
        Probe(DecisionEngine, "begin_slot", "serve.engine", "engine.slots", _one),
        Probe(DecisionEngine, "finish_slot", "serve.engine"),
    ]


def serve_totals(tracer: Tracer, cpu_s: float) -> Dict[str, float]:
    """Serving-layer totals; the loop is the CPU no codec or handler span covers."""
    layers = layer_self_times(tracer.spans)
    decode = layers.get("serve.decode", 0.0)
    encode = layers.get("serve.encode", 0.0)
    handle = layer_inclusive_times(tracer.spans, "Session.handle")
    return {
        "serve.frames": tracer.counters.get("serve.frames", 0.0),
        "serve.bytes": tracer.counters.get("serve.bytes", 0.0),
        "serve.decode_s": decode,
        "serve.encode_s": encode,
        "serve.handle_s": handle,
        "serve.engine_s": layers.get("serve.engine", 0.0),
        "serve.cpu_s": cpu_s,
        "serve.loop_s": cpu_s - decode - encode - handle,
        "keyed_spans": float(sum(1 for span in tracer.spans if span.key is not None)),
    }


def ledger(tracer: Tracer, start: float, end: float, useful: UsefulRows) -> Dict[str, float]:
    """Per-layer metrics of the spans recorded in ``[start, end]``."""
    spans = tracer.spans
    layers = layer_self_times(spans)
    counters = tracer.counters
    metrics = {
        "datasets.windows": counters.get("datasets.windows", 0.0),
        "datasets.synth_s": layers.get("datasets", 0.0),
        "nn.rows": counters.get("nn.rows", 0.0),
        "nn.predict_s": layers.get("nn", 0.0),
        "predcache.materials": counters.get("predcache.materials", 0.0),
        "predcache.build_s": layer_inclusive_times(
            spans, "repro.sim.predcache.build_run_material"
        ),
        "predcache.self_s": layers.get("predcache", 0.0),
        "predcache.useful_ratio": useful.ratio(),
        "baselines.cells": counters.get("baselines.cells", 0.0),
        "baselines.eval_s": layer_inclusive_times(
            spans, "repro.sim.baselines.evaluate_baseline"
        ),
        "baselines.self_s": layers.get("baselines", 0.0),
        "energy.traces": counters.get("energy.traces", 0.0),
        "energy.traces_s": layers.get("energy", 0.0),
        "kernel.lane_slots": counters.get("kernel.lane_slots", 0.0),
        "kernel.advance_s": layers.get("kernel.physics", 0.0),
        "kernel.batch_s": layer_inclusive_times(spans, "repro.sim.kernel.run_group_batch"),
        "kernel.glue_s": layers.get("kernel.glue", 0.0),
        "engine.slots": counters.get("engine.slots", 0.0),
        "engine.begin_s": layers.get("engine.begin", 0.0),
        "engine.finish_s": layers.get("engine.finish", 0.0),
        "sweep.cells": counters.get("sweep.cells", 0.0),
        "sweep.self_s": layers.get("sweep", 0.0),
        "fleet.users": counters.get("fleet.users", 0.0),
        "fleet.aggregate_s": layers.get("fleet.aggregate", 0.0),
        "fleet.self_s": layers.get("fleet", 0.0),
        "pool.tasks": counters.get("pool.tasks", 0.0),
        "pool.run_s": layers.get("pool", 0.0),
        "pool.first_outcome_s": counters.get("pool.first_outcome_s", 0.0),
        "pool.retries": counters.get("pool.retries", 0.0),
        "trace.wall_s": end - start,
        "trace.unattributed_s": unattributed(spans, start, end),
        "layers": layers,
    }
    # The ledger identity: self times plus unattributed time equal the wall.
    metrics["trace.residual_s"] = (
        sum(layers.values()) + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]
    )
    return metrics
