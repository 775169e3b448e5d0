"""Fully connected layer."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import he_normal, zeros
from repro.nn.layers.base import Layer, Shape
from repro.utils.rng import SeedLike, as_generator


class Dense(Layer):
    """Affine map ``y = x @ W + b`` on flat feature vectors.

    Parameters
    ----------
    units:
        Output width.
    seed:
        Initialization seed (He-normal weights, zero bias).
    """

    def __init__(self, units: int, seed: SeedLike = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if units < 1:
            raise ModelError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self._rng = as_generator(seed)
        self.W: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None
        self.dW: Optional[np.ndarray] = None
        self.db: Optional[np.ndarray] = None
        self._cached_input: Optional[np.ndarray] = None

    def _build(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 1:
            raise ModelError(
                f"Dense expects flat input (features,), got {input_shape}; "
                "insert a Flatten layer first"
            )
        fan_in = input_shape[0]
        self.W = he_normal(self._rng, (fan_in, self.units), fan_in=fan_in)
        self.b = zeros((self.units,))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        if training:
            self._cached_input = x
            return x @ self.W + self.b
        # One row-times-matrix product per window, independent of the batch.
        return np.matmul(x[:, None, :], self.W)[:, 0] + self.b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cached_input is None:
            raise ModelError(f"backward() before forward(training=True) in {self.name!r}")
        x = self._cached_input
        self.dW = x.T @ grad_output
        self.db = grad_output.sum(axis=0)
        return grad_output @ self.W.T

    @property
    def params(self) -> Dict[str, np.ndarray]:
        self._require_built()
        return {"W": self.W, "b": self.b}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        self._require_built()
        return {"W": self.dW, "b": self.db}
