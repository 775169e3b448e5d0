"""Non-volatile processor (NVP) intermittent compute model.

The paper's compute node (from ResIRCA, HPCA'20) checkpoints
architectural state to non-volatile memory, so an inference interrupted
by a power failure resumes instead of restarting.  The model tracks one
task's *work energy*: each execution burst converts available capacitor
energy into progress, minus a checkpoint overhead fraction; the task
completes when cumulative useful work reaches the task's total energy.

A volatile (non-NVP) node is the special case ``volatile=True``: an
interrupted task loses all progress — that is the hardware of the
paper's Fig. 1 motivation study before NVPs are brought in.

:class:`NonVolatileProcessor` holds these parameters; the slot kernel
(:meth:`repro.sim.kernel.SlotKernel.advance`) runs the bursts.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.utils.validation import check_fraction


class NonVolatileProcessor:
    """Intermittent execution parameters of one node's compute.

    Parameters
    ----------
    checkpoint_overhead:
        Fraction of consumed energy spent on NVM checkpointing rather
        than useful work (0 for an ideal NVP).
    volatile:
        If true, progress is lost whenever a burst ends without
        completing the task (classic volatile MCU).
    """

    def __init__(self, checkpoint_overhead: float = 0.05, volatile: bool = False) -> None:
        check_fraction("checkpoint_overhead", checkpoint_overhead)
        if checkpoint_overhead >= 1.0:
            raise SimulationError("checkpoint_overhead must be < 1")
        self.checkpoint_overhead = float(checkpoint_overhead)
        self.volatile = bool(volatile)

    @property
    def useful_fraction(self) -> float:
        """Fraction of each consumed joule that becomes progress."""
        return 1.0 - self.checkpoint_overhead
