"""Weight initializers.

Small deterministic wrappers around the usual schemes; every layer takes
a generator so whole models are reproducible from one seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ModelError


def he_normal(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-normal initialization, suited to ReLU networks."""
    if fan_in <= 0:
        raise ModelError(f"fan_in must be positive, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float64)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases, batch-norm shifts)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialization (batch-norm scales)."""
    return np.ones(shape, dtype=np.float64)
