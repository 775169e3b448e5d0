"""Supervised, checkpointed, crash-tolerant execution (``repro.resilience``).

The paper's Discussion claims Origin "poses minimum risk if one of the
sensors fails"; this package extends the same graceful-degradation bar
from the simulated WSN to the execution substrate that runs it.  Three
layers compose:

* :class:`SupervisedPool` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  wrapper with per-task timeouts, bounded deterministic-backoff retries
  and ``BrokenProcessPool`` recovery, so a segfaulting / OOM-killed /
  hung worker costs one retry instead of the whole sweep;
* :class:`SweepJournal` — an append-only JSONL checkpoint of completed
  ``(policy, seed)`` cells keyed by the sweep's run-material/bundle
  digest, making long sweeps resumable after a crash or Ctrl-C with
  byte-identical results;
* :class:`DegradationReport` — partial-result salvage accounting for
  sweeps run with ``on_failure="salvage"``: which cells failed, why and
  after how many attempts.

:func:`run_units` (:mod:`repro.resilience.executor`) composes them into
the one journaled unit executor behind ``PolicySweep.run`` and
``FleetRunner.run``: it serves journaled cells, runs the rest in-process
or on the pool, journals each unit as it finishes and folds results,
metrics and traces back in unit order.

:mod:`repro.resilience.chaos` is the matching test harness: it injects
scheduled worker crashes and hangs so the recovery paths above are
exercised by tests and by ``bench_perf_sweep --chaos``, not just trusted.
"""

from repro.resilience.chaos import ChaosAction, ChaosPlan, apply_chaos
from repro.resilience.executor import Unit, run_units
from repro.resilience.journal import (
    JOURNAL_SCHEMA_VERSION,
    SweepJournal,
    baseline_cell,
    decode_baseline_result,
    decode_experiment_result,
    encode_baseline_result,
    encode_experiment_result,
    policy_cell,
    sweep_fingerprint,
)
from repro.resilience.pool import SupervisedPool, SupervisedTask, TaskOutcome
from repro.resilience.report import DegradationReport, FailedCell

__all__ = [
    "ChaosAction",
    "ChaosPlan",
    "DegradationReport",
    "FailedCell",
    "JOURNAL_SCHEMA_VERSION",
    "SupervisedPool",
    "SupervisedTask",
    "SweepJournal",
    "TaskOutcome",
    "Unit",
    "apply_chaos",
    "baseline_cell",
    "decode_baseline_result",
    "decode_experiment_result",
    "encode_baseline_result",
    "encode_experiment_result",
    "policy_cell",
    "run_units",
    "sweep_fingerprint",
]
