"""One journaled unit executor for sweeps and cohorts.

:class:`~repro.sim.sweep.PolicySweep` and :class:`~repro.fleet.FleetRunner`
do the same job over different work: compute an ordered list of *units*
(a seed's chunk of policies, a ``[lo, hi)`` user shard), each producing a
fixed tuple of journal cells.  :func:`run_units` does that job for any
worker count:

* cells already in the :class:`~repro.resilience.SweepJournal` are served
  from it, and a unit runs only the cells it still lacks;
* ``workers=1`` runs the units in this process and ``workers > 1`` on a
  :class:`~repro.resilience.SupervisedPool`.  Both call the same
  module-level unit function against the worker state the caller
  built.  In-process units share that one state for the whole call, the
  way a pool worker keeps its caches across its units;
* each unit's cells are journaled the moment it finishes, and results,
  metrics and trace events fold back in unit order (pool units ship
  per-unit snapshots whose counters list every increment, folded one
  by one; in-process units record into the caller's observability
  directly), so the outcome is identical for every worker count.

Pool workers receive that same state as their initializer's one
argument: a forked worker inherits it and a spawned one unpickles it,
so no worker reads the artifact store or trains.  Results are pickled
only when they cross a process boundary, and journal-encoded only when
a journal is attached.

A unit function returns one entry per cell.  :func:`each_cell` turns a
cell that raises into a :class:`CellError`, so that cell is lost alone.
A unit that raises as a whole, or whose pool worker crashes or hangs
through its retries, loses every cell it was running.  Lost cells come
back as :class:`LostCell` records, carrying the original exception
in-process; the front end decides whether to raise or salvage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ResilienceError
from repro.obs.metrics import MetricsRegistry, SteppedMetrics
from repro.obs.observer import NULL_OBS, Observability
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.chaos import ChaosAction, ChaosPlan, apply_chaos
from repro.resilience.journal import SweepJournal
from repro.resilience.pool import SupervisedPool, SupervisedTask, TaskOutcome

logger = logging.getLogger(__name__)

#: ``on_failure`` modes of both front ends: fail the run, or keep what survived.
ON_FAILURE_MODES = ("raise", "salvage")


def check_on_failure(on_failure: str) -> None:
    """Reject an unknown ``on_failure`` mode."""
    if on_failure not in ON_FAILURE_MODES:
        raise ConfigurationError(
            f"on_failure must be one of {ON_FAILURE_MODES}, got {on_failure!r}"
        )


def open_journal(journal: Any, fingerprint: str, *, resume: bool = True) -> SweepJournal:
    """Open a journal path for ``fingerprint``, or validate an open journal.

    The caller closes the returned journal only when it is not the one
    it passed in.
    """
    if isinstance(journal, SweepJournal):
        if journal.fingerprint != fingerprint:
            raise ResilienceError(
                f"journal {journal.path} was opened for fingerprint "
                f"{journal.fingerprint!r}; this run is {fingerprint!r}"
            )
        return journal
    return SweepJournal.open(journal, fingerprint, resume=resume)


# ---------------------------------------------------------------------------
# units, cells and what became of them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """Work for one call of a unit function.

    ``items[i]`` produces journal cell ``cells[i]``; ``args`` follow the
    items in the call and are shared by the whole unit.
    """

    cells: Tuple[str, ...]
    items: Tuple[Any, ...]
    args: Tuple[Any, ...] = ()

    @property
    def label(self) -> str:
        more = f"+{len(self.cells) - 1}" if len(self.cells) > 1 else ""
        return f"{self.cells[0]}{more}"


class CellError:
    """A unit function's stand-in for a cell that raised.

    ``error`` is the original exception in-process; pickling (a pool
    worker's result crossing back to the parent) keeps only ``cause``.
    """

    def __init__(self, cause: str, error: Optional[BaseException] = None) -> None:
        self.cause = cause
        self.error = error

    def __reduce__(self) -> Tuple[Any, ...]:
        return (CellError, (self.cause,))


def _cause(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def each_cell(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
    """``[fn(item) for item in items]``, with a raising item's entry a :class:`CellError`."""
    results: List[Any] = []
    for item in items:
        try:
            results.append(fn(item))
        except Exception as error:
            results.append(CellError(_cause(error), error))
    return results


@dataclass(frozen=True)
class LostCell:
    """A cell that produced no result, and why."""

    cell: str
    attempts: int
    cause: str
    #: The original exception when the cell ran in this process.
    error: Optional[BaseException] = field(default=None, compare=False, repr=False)


@dataclass
class UnitRun:
    """What :func:`run_units` produced."""

    #: Every cell that has a result, served or computed.
    results: Dict[str, Any] = field(default_factory=dict)
    #: Cells served from the journal.
    served: List[str] = field(default_factory=list)
    #: Cells without a result, in unit order.
    lost: List[LostCell] = field(default_factory=list)
    #: ``SupervisedPool`` incident counters (empty in-process).
    incidents: Dict[str, int] = field(default_factory=dict)

    @property
    def first_error(self) -> Optional[BaseException]:
        """The first in-process exception behind a lost cell, if any."""
        return next((lost.error for lost in self.lost if lost.error is not None), None)


# ---------------------------------------------------------------------------
# pool workers
# ---------------------------------------------------------------------------


#: This pool worker's state, installed once by :func:`_init_pool_worker`.
_STATE: Any = None


def _init_pool_worker(state: Any) -> None:
    global _STATE
    _STATE = state


def _pool_unit(
    unit_fn: Callable[..., List[Any]],
    items: Tuple[Any, ...],
    args: Tuple[Any, ...],
    with_obs: bool,
    with_trace: bool,
    chaos: Optional[ChaosAction],
) -> Tuple[List[Any], Optional[Dict[str, Any]], Optional[list]]:
    """Pool task: one unit's results, plus its metrics snapshot and trace
    events when the parent observes.

    ``chaos`` fires before any work, so a crashed or hung attempt
    contributes nothing and the clean retry produces the unit.
    """
    apply_chaos(chaos)
    if _STATE is None:
        raise ConfigurationError("pool worker used before initialization")
    if not with_obs:
        return unit_fn(_STATE, items, *args, obs=NULL_OBS), None, None
    obs = Observability(
        tracer=Tracer() if with_trace else NULL_TRACER, metrics=SteppedMetrics()
    )
    results = unit_fn(_STATE, items, *args, obs=obs)
    return results, obs.metrics.to_dict(), obs.tracer.events if with_trace else None


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


def run_units(
    units: Sequence[Unit],
    unit_fn: Callable[..., List[Any]],
    state: Any,
    *,
    journal: Optional[SweepJournal] = None,
    encode: Callable[[Any], Dict[str, Any]] = lambda result: result,
    decode: Callable[[Dict[str, Any]], Any] = lambda payload: payload,
    obs: Optional[Observability] = None,
    progress: Optional[Callable[[List[Any]], None]] = None,
    workers: int = 1,
    task_timeout_s: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.05,
    chaos: Optional[ChaosPlan] = None,
) -> UnitRun:
    """Serve or compute every cell of ``units`` (see the module docstring).

    ``unit_fn(state, items, *args, obs=...)`` is module level (it
    pickles by name) and returns one result per item; ``state`` is the
    worker state every unit runs against, here or in a pool worker.
    ``encode``/``decode`` translate results to and from journal
    payloads.  With observability on, ``progress`` is called
    parent-side with each finished unit's completed items, before a
    timeseries sample.  ``chaos`` schedules faults by pending-unit index
    and needs ``workers > 1``.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chaos is not None and not chaos.empty and workers == 1:
        raise ConfigurationError(
            "chaos injection needs workers > 1 (there is no pool to "
            "perturb in-process)"
        )
    obs = obs if obs is not None else NULL_OBS
    run = UnitRun()
    pending: List[Unit] = []
    for unit in units:
        left = []
        for cell, item in zip(unit.cells, unit.items):
            payload = journal.get(cell) if journal is not None else None
            if payload is None:
                left.append((cell, item))
            else:
                run.results[cell] = decode(payload)
                run.served.append(cell)
        if left:
            cells, items = zip(*left)
            pending.append(Unit(cells, items, unit.args))
    if run.served and obs.enabled:
        obs.metrics.inc("resilience.journal.hit", len(run.served))
    if not pending:
        return run

    with_obs = obs.enabled
    with_trace = with_obs and obs.tracer.enabled

    def lose(cell: str, attempts: int, cause: str, error: Any = None) -> None:
        logger.error(
            "cell %s lost after %d attempt(s): %s", cell, attempts, cause, exc_info=error
        )
        run.lost.append(LostCell(cell, attempts, cause, error))

    def finished(unit: Unit, results: List[Any]) -> None:
        # Completion order: journal each unit the moment it finishes,
        # so an interrupt loses at most in-flight work.
        done = []
        for cell, item, result in zip(unit.cells, unit.items, results):
            if isinstance(result, CellError):
                continue
            if journal is not None:
                journal.record(cell, encode(result))
            done.append(item)
        if with_obs and done:
            if progress is not None:
                progress(done)
            if obs.timeseries is not None:
                obs.timeseries.sample()

    def fold(unit: Unit, outcome: Tuple[Any, ...], attempts: int) -> None:
        # Unit order, whatever the completion order: the merged
        # registry and trace are identical for any worker count.
        results, metrics, events = outcome
        for cell, result in zip(unit.cells, results):
            if isinstance(result, CellError):
                lose(cell, attempts, result.cause, result.error)
            else:
                run.results[cell] = result
        if metrics is not None:
            obs.metrics.merge(MetricsRegistry.from_dict(metrics))
        if events is not None:
            obs.tracer.extend(events)

    if workers == 1:
        # In-process units record straight into ``obs``: in unit order
        # already, and with no process boundary to snapshot across.
        for unit in pending:
            try:
                results = unit_fn(state, unit.items, *unit.args, obs=obs)
            except Exception as error:
                results = [CellError(_cause(error), error)] * len(unit.cells)
            finished(unit, results)
            fold(unit, (results, None, None), attempts=1)
        return run

    logger.debug("%d unit(s) over %d worker(s)", len(pending), workers)

    def task(index: int, unit: Unit) -> SupervisedTask:
        def args_for(attempt: int) -> Tuple[Any, ...]:
            action = chaos.action_for(index, attempt) if chaos is not None else None
            return (unit_fn, unit.items, unit.args, with_obs, with_trace, action)

        return SupervisedTask(fn=_pool_unit, args_for_attempt=args_for, label=unit.label)

    def checkpoint(outcome: TaskOutcome) -> None:
        if outcome.ok:
            finished(pending[outcome.index], outcome.result[0])

    pool = SupervisedPool(
        workers,
        initializer=_init_pool_worker,
        initargs=(state,),
        task_timeout_s=task_timeout_s,
        max_retries=max_retries,
        backoff_s=retry_backoff_s,
        obs=obs,
    )
    outcomes = pool.run(
        [task(index, unit) for index, unit in enumerate(pending)], on_outcome=checkpoint
    )
    for unit, outcome in zip(pending, outcomes):
        if outcome.ok:
            fold(unit, outcome.result, outcome.attempts)
        else:
            for cell in unit.cells:
                lose(cell, outcome.attempts, outcome.cause or "unknown")
    run.incidents = dict(pool.stats)
    return run
