"""Per-layer inference energy estimation.

The paper builds its Baseline-2 by pruning DNNs "to fit the average
harvested power budget" using energy-aware pruning (Yang et al.,
CVPR'17).  That requires an energy model: this module counts MACs,
memory accesses and simple ops per layer and converts them to joules
with MCU-class cost constants (nanojoule scale, matching the
ultra-low-power compute node of ResIRCA rather than an ASIC), plus a
fixed per-inference overhead for sensor readout, wake-up and NVP
checkpointing.

The resulting inference energies (hundreds of microjoules) sit in the
same regime as WiFi RF harvesting (tens of microwatts), which is what
makes the paper's scheduling problem non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import EnergyModelError
from repro.nn.layers import (
    BatchNorm1D,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1D,
    Layer,
    MaxPool1D,
    ReLU,
)
from repro.nn.model import Sequential


@dataclass(frozen=True)
class EnergyCostModel:
    """Energy cost constants of the compute node.

    Attributes
    ----------
    mac_j:
        Energy of one multiply-accumulate (joules).
    mem_access_j:
        Energy of one word read/written from/to on-chip memory.
    simple_op_j:
        Energy of one comparison/add/scale (pooling, ReLU, batch norm).
    fixed_overhead_j:
        Per-inference constant: IMU readout, wake-up, control, and NVP
        checkpoint writes.
    """

    mac_j: float = 1.2e-9
    mem_access_j: float = 0.3e-9
    simple_op_j: float = 0.2e-9
    fixed_overhead_j: float = 15e-6

    def __post_init__(self) -> None:
        for name in ("mac_j", "mem_access_j", "simple_op_j", "fixed_overhead_j"):
            if getattr(self, name) < 0:
                raise EnergyModelError(f"{name} must be >= 0")


@dataclass(frozen=True)
class LayerEnergy:
    """Energy breakdown for one layer at one input shape."""

    layer_name: str
    macs: int
    mem_accesses: int
    simple_ops: int
    energy_j: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.layer_name}: {self.macs} MACs, {self.mem_accesses} mem, "
            f"{self.simple_ops} ops -> {self.energy_j * 1e6:.2f} uJ"
        )


def _layer_counts(layer: Layer) -> tuple:
    """``(macs, mem_accesses, simple_ops)`` for one built layer."""
    if not layer.built:
        raise EnergyModelError(f"layer {layer.name!r} must be built first")
    in_shape, out_shape = layer.input_shape, layer.output_shape
    in_size = int(np.prod(in_shape))
    out_size = int(np.prod(out_shape))

    if isinstance(layer, Conv1D):
        filters, l_out = out_shape
        channels = in_shape[0]
        macs = filters * channels * layer.kernel_size * l_out
        weights = filters * channels * layer.kernel_size + filters
        mem = weights + in_size + out_size
        return macs, mem, 0
    if isinstance(layer, Dense):
        macs = in_shape[0] * layer.units
        weights = in_shape[0] * layer.units + layer.units
        mem = weights + in_size + out_size
        return macs, mem, 0
    if isinstance(layer, (MaxPool1D, GlobalAvgPool1D)):
        return 0, in_size + out_size, in_size
    if isinstance(layer, ReLU):
        return 0, in_size + out_size, in_size
    if isinstance(layer, BatchNorm1D):
        # One scale and one shift per element at inference time.
        return 0, in_size + out_size + 4 * in_shape[0], 2 * in_size
    if isinstance(layer, (Flatten, Dropout)):
        # Identity at inference time (dropout disabled, flatten is a view).
        return 0, 0, 0
    raise EnergyModelError(f"no energy model for layer type {type(layer).__name__}")


def layer_energy(layer: Layer, cost: EnergyCostModel) -> LayerEnergy:
    """Energy of one built layer under ``cost``."""
    macs, mem, ops = _layer_counts(layer)
    energy = macs * cost.mac_j + mem * cost.mem_access_j + ops * cost.simple_op_j
    return LayerEnergy(layer.name, macs, mem, ops, energy)


def estimate_inference_energy(
    model: Sequential, cost: EnergyCostModel = EnergyCostModel()
) -> float:
    """Total joules for one inference through a built model."""
    breakdown = energy_breakdown(model, cost)
    return cost.fixed_overhead_j + sum(entry.energy_j for entry in breakdown)


def energy_breakdown(
    model: Sequential, cost: EnergyCostModel = EnergyCostModel()
) -> List[LayerEnergy]:
    """Per-layer energy entries (excluding the fixed overhead)."""
    if not model.built:
        raise EnergyModelError("model must be built before estimating energy")
    return [layer_energy(layer, cost) for layer in model.layers]


def format_energy_report(model: Sequential, cost: EnergyCostModel = EnergyCostModel()) -> str:
    """Human-readable per-layer energy table."""
    entries = energy_breakdown(model, cost)
    total = estimate_inference_energy(model, cost)
    lines = [f"Energy report for {model.name} (total {total * 1e6:.1f} uJ/inference)"]
    lines.append(f"  {'layer':<22}{'MACs':>10}{'mem':>10}{'ops':>10}{'uJ':>9}")
    for entry in entries:
        lines.append(
            f"  {entry.layer_name:<22}{entry.macs:>10}{entry.mem_accesses:>10}"
            f"{entry.simple_ops:>10}{entry.energy_j * 1e6:>9.2f}"
        )
    lines.append(f"  {'fixed overhead':<52}{cost.fixed_overhead_j * 1e6:>9.2f}")
    return "\n".join(lines)
