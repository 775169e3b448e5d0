"""1-D convolution over (batch, channels, length) inputs.

Implemented with an im2col transform so the heavy lifting is matrix
multiplies; the backward pass reuses the cached columns.  Training
multiplies the whole batch at once; inference runs one GEMM per window,
so a window's output is the same in any batch.  Valid
padding, unit stride — sufficient for the paper's small HAR CNNs while
keeping the energy model exact (every MAC is accounted for).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import he_normal, zeros
from repro.nn.layers.base import Layer, Shape
from repro.utils.rng import SeedLike, as_generator


def im2col_1d(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """Unfold ``(B, C, L)`` into ``(B, C*K, L_out)`` sliding columns.

    Uses ``sliding_window_view`` so no data is copied until the caller
    reshapes; ``L_out = L - K + 1`` (valid padding).
    """
    if x.ndim != 3:
        raise ModelError(f"expected (B, C, L) input, got shape {x.shape}")
    batch, channels, length = x.shape
    if kernel_size > length:
        raise ModelError(f"kernel {kernel_size} longer than input length {length}")
    # (B, C, L_out, K) view, then fold C and K together.
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel_size, axis=2)
    cols = windows.transpose(0, 1, 3, 2).reshape(batch, channels * kernel_size, -1)
    return np.ascontiguousarray(cols)


class Conv1D(Layer):
    """Valid, stride-1 1-D convolution.

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        Temporal extent of each filter.
    seed:
        Initialization seed.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        seed: SeedLike = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if filters < 1 or kernel_size < 1:
            raise ModelError(
                f"filters and kernel_size must be >= 1, got {filters}/{kernel_size}"
            )
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self._rng = as_generator(seed)
        self.W: Optional[np.ndarray] = None  # (filters, in_channels, kernel)
        self.b: Optional[np.ndarray] = None  # (filters,)
        self.dW: Optional[np.ndarray] = None
        self.db: Optional[np.ndarray] = None
        self._cached_cols: Optional[np.ndarray] = None
        self._cached_input_shape: Optional[tuple] = None

    def _build(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 2:
            raise ModelError(f"Conv1D expects (channels, length) input, got {input_shape}")
        in_channels, length = input_shape
        if self.kernel_size > length:
            raise ModelError(
                f"kernel {self.kernel_size} longer than input length {length}"
            )
        fan_in = in_channels * self.kernel_size
        self.W = he_normal(self._rng, (self.filters, in_channels, self.kernel_size), fan_in)
        self.b = zeros((self.filters,))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        return (self.filters, length - self.kernel_size + 1)

    @property
    def in_channels(self) -> int:
        """Input channel count (after build)."""
        self._require_built()
        return self.input_shape[0]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_input(x)
        cols = im2col_1d(x.astype(np.float64, copy=False), self.kernel_size)
        w_flat = self.W.reshape(self.filters, -1)  # (F, C*K)
        if training:
            self._cached_cols = cols
            self._cached_input_shape = x.shape
            out = np.einsum("fk,bkl->bfl", w_flat, cols, optimize=True)
        else:
            # One (L_out x C*K) @ (C*K x F) GEMM per window: a window's
            # output does not depend on which windows share its batch.
            out = np.matmul(cols.transpose(0, 2, 1), w_flat.T).transpose(0, 2, 1)
        return out + self.b[None, :, None]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cached_cols is None:
            raise ModelError(f"backward() before forward(training=True) in {self.name!r}")
        cols = self._cached_cols  # (B, C*K, L_out)
        batch, channels, length = self._cached_input_shape

        # Parameter gradients.
        self.dW = np.einsum("bfl,bkl->fk", grad_output, cols, optimize=True).reshape(
            self.W.shape
        )
        self.db = grad_output.sum(axis=(0, 2))

        # Input gradient: col2im fold of W^T @ grad.
        w_flat = self.W.reshape(self.filters, -1)  # (F, C*K)
        grad_cols = np.einsum("fk,bfl->bkl", w_flat, grad_output, optimize=True)
        grad_cols = grad_cols.reshape(batch, channels, self.kernel_size, -1)
        grad_input = np.zeros((batch, channels, length), dtype=np.float64)
        l_out = grad_output.shape[2]
        for offset in range(self.kernel_size):
            grad_input[:, :, offset : offset + l_out] += grad_cols[:, :, offset, :]
        return grad_input

    @property
    def params(self) -> Dict[str, np.ndarray]:
        self._require_built()
        return {"W": self.W, "b": self.b}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        self._require_built()
        return {"W": self.dW, "b": self.db}
