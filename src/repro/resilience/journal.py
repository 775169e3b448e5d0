"""Sweep journal: durable JSONL checkpoints of completed sweep cells.

A journal makes a long sweep resumable: every completed ``(policy,
seed)`` cell (and every baseline run) is appended to a JSONL file the
moment it finishes, and ``PolicySweep.run(journal=..., resume=True)``
skips cells already on disk — after a crash, an OOM kill or a Ctrl-C
only the unfinished remainder is recomputed, and the resumed sweep is
byte-identical to a clean one (gated by tests).

File layout — one JSON document per line::

    {"kind": "sweep-journal", "schema_version": 1, "fingerprint": "..."}
    {"kind": "cell", "cell": "policy:RR3:<digest>:seed=11", "payload": {...}}
    {"kind": "cell", "cell": "baseline:Baseline-1:seed=11", "payload": {...}}

The header **fingerprint** keys the journal to the sweep that wrote it:
a SHA-256 over the trained bundle's content-addressed store digest (or
an equivalent recipe-derived key), the dataset name and the full
simulation config.  Opening a journal whose fingerprint disagrees with
the current sweep raises :class:`~repro.errors.ResilienceError` instead
of silently serving another experiment's results.

Cell payloads are exact: every numeric field round-trips bit-for-bit
(Python floats serialize via ``repr`` shortest-round-trip), so a decoded
:class:`~repro.sim.results.ExperimentResult` compares equal to the run
that produced it.  A torn final line (the writer died mid-append) is
detected on open and truncated away — the journal loses at most the
cell being written at the instant of the crash.  :func:`read_journal`
is the one reader of the file, for resumes and read-only inspectors
alike.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.policies import PolicySpec
from repro.datasets.activities import Activity
from repro.errors import ResilienceError
from repro.faults.stats import FaultStats, LinkStats, RecoveryEvent
from repro.wsn.node import NodeStats

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.sim.baselines import BaselineResult
    from repro.sim.results import ExperimentResult

# NOTE: repro.sim.* and repro.store.keys are imported lazily inside the
# functions below — repro.sim.sweep imports this module, so importing
# them here would make ``import repro.resilience`` circular.

logger = logging.getLogger(__name__)

#: Bump on any incompatible change to the fingerprint derivation, the
#: cell key scheme or the payload encoding.  Old journals stop matching
#: and are rejected (resume) or rewritten (fresh start).
JOURNAL_SCHEMA_VERSION = 1

_HEADER_KIND = "sweep-journal"
_CELL_KIND = "cell"


def _digest(document: Any) -> str:
    from repro.store.keys import _canonical

    payload = json.dumps(
        _canonical(document), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def sweep_fingerprint(experiment: Any) -> str:
    """The digest keying a journal to one sweep's inputs.

    Folds in the trained bundle's content-addressed store key (computed
    from its recorded training recipe when the store never saw it — the
    same derivation as :func:`repro.store.keys.trained_bundle_key`, so
    it covers the dataset array digests), the dataset name and the full
    :class:`~repro.sim.experiment.SimulationConfig`.  Per-cell seeds are
    deliberately excluded: they key individual cells, not the journal.
    """
    from repro.store.keys import trained_bundle_key

    bundle = experiment.bundle
    bundle_key = getattr(bundle, "store_key", None)
    if (
        bundle_key is None
        and getattr(bundle, "train_seed", None) is not None
        and getattr(bundle, "train_config", None) is not None
    ):
        bundle_key = trained_bundle_key(
            experiment.dataset,
            bundle.budget_j,
            seed=bundle.train_seed,
            config=bundle.train_config,
            cost_model=bundle.cost_model,
        )
    return _digest(
        {
            "kind": _HEADER_KIND,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "dataset": experiment.dataset.spec.name,
            "bundle": bundle_key if bundle_key is not None else "unkeyed",
            "config": asdict(experiment.config),
        }
    )


def policy_cell(spec: PolicySpec, seed: int) -> str:
    """The journal key of one ``(policy, seed)`` cell.

    The display name is included for readability, but the digest over
    every :class:`~repro.core.policies.PolicySpec` field is what makes
    the key exact — two specs sharing a name never collide.
    """
    return f"policy:{spec.name}:{_digest(asdict(spec))[:12]}:seed={int(seed)}"


def baseline_cell(name: str, seed: int) -> str:
    """The journal key of one fully-powered baseline run."""
    return f"baseline:{name}:seed={int(seed)}"


# ---------------------------------------------------------------------------
# exact result encoding
# ---------------------------------------------------------------------------


def encode_experiment_result(result: ExperimentResult) -> Dict[str, Any]:
    """A JSON-safe document that decodes back to an equal result."""
    return {
        "type": "experiment",
        "policy_name": result.policy_name,
        "activities": [activity.value for activity in result.activities],
        "records": [
            [slot, true, None if final < 0 else final, [int(node_id) for node_id in ids], *counts]
            for slot, true, final, ids, *counts in zip(
                result.slot_index.tolist(),
                result.true_label.tolist(),
                result.final_label.tolist(),
                result.active_nodes,
                result.completions.tolist(),
                result.attempts.tolist(),
                result.dropped_messages.tolist(),
            )
        ],
        "node_stats": {
            str(node_id): {
                "slots": int(stats.slots),
                "active_slots": int(stats.active_slots),
                "attempts_started": int(stats.attempts_started),
                "completions": int(stats.completions),
                "failed_active_slots": int(stats.failed_active_slots),
                "harvested_j": float(stats.harvested_j),
                "consumed_j": float(stats.consumed_j),
                "comm_j": float(stats.comm_j),
                "leaked_j": float(stats.leaked_j),
            }
            for node_id, stats in result.node_stats.items()
        },
        "comm_energy_j": float(result.comm_energy_j),
        "confidence_updates": int(result.confidence_updates),
        "fault_stats": (
            None
            if result.fault_stats is None
            else _encode_fault_stats(result.fault_stats)
        ),
    }


def _encode_fault_stats(stats: FaultStats) -> Dict[str, Any]:
    return {
        "per_link": {
            str(node_id): [
                int(link.messages_sent),
                int(link.messages_delivered),
                int(link.messages_dropped),
                int(link.messages_corrupted),
            ]
            for node_id, link in stats.per_link.items()
        },
        "offline_slots": {
            str(node_id): int(slots) for node_id, slots in stats.offline_slots.items()
        },
        "recoveries": [
            [
                int(event.node_id),
                int(event.start_slot),
                int(event.end_slot),
                None if event.recovered_slot is None else int(event.recovered_slot),
            ]
            for event in stats.recoveries
        ],
        "host_restarts": int(stats.host_restarts),
    }


def decode_experiment_result(data: Dict[str, Any]) -> "ExperimentResult":
    """Rebuild the exact :class:`ExperimentResult` a cell recorded."""
    from repro.sim.results import ExperimentResult

    records = data["records"]
    fault_stats = None
    if data.get("fault_stats") is not None:
        fault = data["fault_stats"]
        fault_stats = FaultStats(
            per_link={
                int(node_id): LinkStats(*counts)
                for node_id, counts in fault["per_link"].items()
            },
            offline_slots={
                int(node_id): slots
                for node_id, slots in fault["offline_slots"].items()
            },
            recoveries=tuple(
                RecoveryEvent(
                    node_id=node_id,
                    start_slot=start,
                    end_slot=end,
                    recovered_slot=recovered,
                )
                for node_id, start, end, recovered in fault["recoveries"]
            ),
            host_restarts=fault["host_restarts"],
        )
    return ExperimentResult(
        policy_name=data["policy_name"],
        activities=[Activity(value) for value in data["activities"]],
        slot_index=[record[0] for record in records],
        true_label=[record[1] for record in records],
        final_label=[-1 if record[2] is None else record[2] for record in records],
        completions=[record[4] for record in records],
        attempts=[record[5] for record in records],
        dropped_messages=[record[6] for record in records],
        active_nodes=tuple(tuple(record[3]) for record in records),
        node_stats={
            int(node_id): NodeStats(**stats)
            for node_id, stats in data["node_stats"].items()
        },
        comm_energy_j=float(data["comm_energy_j"]),
        confidence_updates=int(data["confidence_updates"]),
        fault_stats=fault_stats,
    )


def encode_baseline_result(result: BaselineResult) -> Dict[str, Any]:
    """JSON-safe document for one fully-powered baseline run."""
    return {
        "type": "baseline",
        "baseline_name": result.baseline_name,
        "activities": [activity.value for activity in result.activities],
        "true_labels": [int(value) for value in result.true_labels],
        "predicted_labels": [int(value) for value in result.predicted_labels],
    }


def decode_baseline_result(data: Dict[str, Any]) -> "BaselineResult":
    """Rebuild the exact :class:`BaselineResult` a cell recorded."""
    from repro.sim.baselines import BaselineResult

    return BaselineResult(
        baseline_name=data["baseline_name"],
        activities=[Activity(value) for value in data["activities"]],
        true_labels=np.asarray(data["true_labels"], dtype=np.int64),
        predicted_labels=np.asarray(data["predicted_labels"], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# the journal file
# ---------------------------------------------------------------------------


def read_journal(
    path: str,
) -> Tuple[Optional[Dict[str, Any]], Dict[str, Dict[str, Any]], int]:
    """Read a journal file without changing it.

    Returns the first document (the header, unchecked; ``None`` when no
    line is complete), the cells after it in file order, and the byte
    length of the readable prefix.  Reading stops at the first line
    that lacks its newline (the writer died, or is still, mid-append)
    or does not parse as a JSON object: nothing after it is trusted,
    and a resumed run truncates the file there.
    """
    header: Optional[Dict[str, Any]] = None
    cells: Dict[str, Dict[str, Any]] = {}
    readable = 0
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            try:
                document = json.loads(line)
            except ValueError:
                break
            if not isinstance(document, dict):
                break
            if header is None:
                header = document
            elif document.get("kind") == _CELL_KIND:
                cells[document["cell"]] = document["payload"]
            readable += len(line)
    return header, cells, readable


class SweepJournal:
    """Append-only JSONL checkpoint store for one sweep (see module doc).

    Use :meth:`open` — it validates or writes the header, recovers from
    a torn tail, and leaves the file positioned for appends.  Close (or
    use as a context manager) to release the handle; the data itself is
    durable after every :meth:`record` (line-buffered ``flush``, plus
    ``os.fsync`` when opened with ``sync=True``).
    """

    def __init__(self, path: str, fingerprint: str, *, sync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fingerprint = fingerprint
        self.sync = bool(sync)
        self._payloads: Dict[str, Dict[str, Any]] = {}
        self._handle: Optional[Any] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        fingerprint: str,
        *,
        resume: bool = True,
        sync: bool = False,
    ) -> "SweepJournal":
        """Open (creating if missing) the journal for one sweep.

        ``resume=True`` loads previously completed cells and refuses a
        fingerprint mismatch (the file belongs to a different sweep);
        ``resume=False`` discards any existing content and starts a
        fresh journal under the current fingerprint.
        """
        journal = cls(path, fingerprint, sync=sync)
        if not resume or not os.path.exists(journal.path):
            journal._start_fresh()
            return journal
        journal._load_existing()
        return journal

    def _start_fresh(self) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(self.path, "w")
        self._write_line(
            {
                "kind": _HEADER_KIND,
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "fingerprint": self.fingerprint,
            }
        )

    def _load_existing(self) -> None:
        header, cells, readable = read_journal(self.path)
        if header is None:
            # Empty or headerless file: nothing salvageable, rewrite.
            self._start_fresh()
            return
        if (
            header.get("kind") != _HEADER_KIND
            or header.get("schema_version") != JOURNAL_SCHEMA_VERSION
        ):
            raise ResilienceError(
                f"{self.path} is not a schema-v{JOURNAL_SCHEMA_VERSION} sweep journal"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ResilienceError(
                f"journal {self.path} belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); pass resume=False to replace it"
            )
        size = os.path.getsize(self.path)
        if readable < size:
            logger.warning(
                "journal %s has a torn tail (%d trailing byte(s)); truncating",
                self.path, size - readable,
            )
            with open(self.path, "r+") as handle:
                handle.truncate(readable)
        self._payloads = cells
        self._handle = open(self.path, "a")

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, cell: str) -> bool:
        return cell in self._payloads

    @property
    def cells(self) -> List[str]:
        """Keys of every completed cell (sorted)."""
        return sorted(self._payloads)

    def get(self, cell: str) -> Optional[Dict[str, Any]]:
        """The raw payload of one completed cell, or ``None``."""
        return self._payloads.get(cell)

    # -- writes ---------------------------------------------------------

    def record(self, cell: str, payload: Dict[str, Any]) -> None:
        """Append one completed cell, durably, before returning.

        Re-recording a cell already present is a no-op (a resumed
        worker may race the journal it was restored from); the first
        payload wins, matching at-most-once cell execution.
        """
        if cell in self._payloads:
            return
        if self._handle is None:
            raise ResilienceError(f"journal {self.path} is closed")
        self._payloads[cell] = payload
        self._write_line({"kind": _CELL_KIND, "cell": cell, "payload": payload})

    def _write_line(self, document: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(document, sort_keys=True) + "\n")
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush and release the file handle (reads keep working)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
