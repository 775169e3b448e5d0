"""Chaos harness: scheduled worker crashes and hangs.

PR 1 taught the *simulated* WSN to fail on purpose (``repro.faults``);
this module does the same for the execution substrate.  A
:class:`ChaosPlan` schedules deterministic faults against sweep work
units:

* ``crash`` — the worker dies via ``os._exit`` (indistinguishable from
  a segfault or an OOM kill: the parent sees ``BrokenProcessPool``);
* ``hang`` — the worker sleeps past its task timeout, exercising the
  timeout→kill→requeue path.

Actions fire on a specific attempt (default: the first), so a chaos-hit
task recovers on its retry and the perturbed sweep's results stay
byte-identical to an unperturbed run — which is exactly the property
the chaos tests and ``bench_perf_sweep --chaos`` assert.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

#: Exit status of a chaos-crashed worker (mirrors a SIGSEGV wait status
#: so the parent-side experience matches a real native crash).
CRASH_EXIT_CODE = 139

_KINDS = ("crash", "hang")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault against one work unit."""

    kind: str
    #: 0-based attempt the action fires on; retries run clean.
    on_attempt: int = 0
    #: Sleep length for ``hang`` — must exceed the task timeout for the
    #: hang to be observed as one.
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r}; want one of {_KINDS}"
            )
        if self.on_attempt < 0:
            raise ConfigurationError(
                f"on_attempt must be >= 0, got {self.on_attempt}"
            )


def apply_chaos(action: Optional[ChaosAction]) -> None:
    """Execute one action inside a worker (``None`` = no chaos).

    Module-level so chaos-carrying task arguments pickle cleanly.
    """
    if action is None:
        return
    if action.kind == "crash":
        logger.warning("chaos: worker %d crashing on schedule", os.getpid())
        os._exit(CRASH_EXIT_CODE)
    elif action.kind == "hang":
        logger.warning(
            "chaos: worker %d hanging for %.1fs on schedule",
            os.getpid(), action.hang_s,
        )
        time.sleep(action.hang_s)


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic schedule of faults over a sweep's work units.

    ``actions`` maps work-unit index (the sweep's deterministic unit
    construction order) to the action injected into that unit's task.
    """

    actions: Mapping[int, ChaosAction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", dict(self.actions))
        for index, action in self.actions.items():
            if index < 0 or not isinstance(action, ChaosAction):
                raise ConfigurationError(
                    f"bad chaos schedule entry {index!r}: {action!r}"
                )

    def action_for(self, unit_index: int, attempt: int) -> Optional[ChaosAction]:
        """The action (if any) firing for this unit on this attempt."""
        action = self.actions.get(unit_index)
        if action is not None and action.on_attempt == attempt:
            return action
        return None

    @property
    def empty(self) -> bool:
        """Whether this plan perturbs nothing."""
        return not self.actions

    @classmethod
    def for_units(
        cls,
        n_units: int,
        *,
        crash_fraction: float = 0.0,
        hang_units: int = 0,
        hang_s: float = 60.0,
        seed: int = 0,
    ) -> "ChaosPlan":
        """A reproducible crash/hang schedule over ``n_units`` units.

        ``crash_fraction`` of the units (rounded up, so any nonzero
        fraction kills at least one) crash on first attempt;
        ``hang_units`` additional units hang instead.  Victim selection
        is a seeded permutation — the same arguments always build the
        same plan.
        """
        if not 0.0 <= crash_fraction <= 1.0:
            raise ConfigurationError(
                f"crash_fraction must be in [0, 1], got {crash_fraction}"
            )
        if hang_units < 0:
            raise ConfigurationError(f"hang_units must be >= 0, got {hang_units}")
        n_crash = int(np.ceil(crash_fraction * n_units)) if crash_fraction else 0
        n_hang = min(hang_units, max(0, n_units - n_crash))
        order = np.random.default_rng(seed).permutation(n_units)
        actions: Dict[int, ChaosAction] = {}
        for index in order[:n_crash]:
            actions[int(index)] = ChaosAction(kind="crash")
        for index in order[n_crash:n_crash + n_hang]:
            actions[int(index)] = ChaosAction(kind="hang", hang_s=hang_s)
        return cls(actions=actions)
