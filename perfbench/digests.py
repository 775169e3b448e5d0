"""Output digests and the committed golden values they are checked against.

A digest is SHA-256 over a canonical JSON rendering of what a workload
produced.  Python's float ``repr`` round-trips exactly, so equal digests
mean byte-identical floats.  ``golden.json`` holds the digest of each
workload's golden unit (the first unit of :data:`GOLDEN_SEED`); every run
recomputes it and fails on a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Any, Dict, Iterable

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The workload seed whose first unit the golden digests pin.
GOLDEN_SEED = 0


def _sha(document: Any) -> str:
    text = json.dumps(document, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_digest(result: Any) -> str:
    """Each policy's records, node stats and comm energy, plus baseline labels."""
    policies = []
    for name, run in result.policies.items():
        records = [
            [
                int(r.slot_index),
                int(r.true_label),
                None if r.predicted_label is None else int(r.predicted_label),
                [int(node) for node in r.active_nodes],
                int(r.completions),
                int(r.attempts),
                int(r.dropped_messages),
            ]
            for r in run.records
        ]
        stats = {str(node): asdict(s) for node, s in sorted(run.node_stats.items())}
        policies.append([name, records, stats, float(run.comm_energy_j)])
    baselines = [
        [name, base.true_labels.tolist(), base.predicted_labels.tolist()]
        for name, base in result.baselines.items()
    ]
    return _sha([policies, baselines])


def fleet_digest(result: Any) -> str:
    """The cohort's exact aggregate statistics."""
    return hashlib.sha256(result.aggregate.stats_json().encode("utf-8")).hexdigest()


def serve_digest(streams: Iterable[Any]) -> str:
    """Served ``[label, next active set]`` streams, one per tape, in tape order."""
    return _sha(list(streams))


def combine(digests: Iterable[str]) -> str:
    """One digest over a run's unit digests, in unit order."""
    return _sha(list(digests))


def golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)
