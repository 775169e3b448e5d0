"""Sequential model container."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.nn.layers.activations import softmax
from repro.nn.layers.base import Layer, Shape
from repro.nn.optimizers import ParamGrad


class Sequential:
    """A linear stack of layers.

    The model is built once against an input shape (excluding batch);
    after that :meth:`forward`/:meth:`backward` run full passes, and the
    prediction helpers add softmax/argmax on top.

    Parameters
    ----------
    layers:
        Layers in execution order.
    name:
        Display name (used by summaries and checkpoints).
    """

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        if not layers:
            raise ModelError("a Sequential model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = name
        self.input_shape: Optional[Shape] = None
        self.output_shape: Optional[Shape] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has run."""
        return self.output_shape is not None

    def build(self, input_shape: Shape) -> "Sequential":
        """Build every layer, inferring shapes; returns ``self``."""
        shape = tuple(input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape)
        self.output_shape = shape
        return self

    def _require_built(self) -> None:
        if not self.built:
            raise ModelError(f"model {self.name!r} used before build()")

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers; returns raw logits (no softmax)."""
        self._require_built()
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate dL/dlogits through the stack."""
        self._require_built()
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------
    # prediction helpers
    # ------------------------------------------------------------------

    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference-mode logits, computed in batches.

        A row's logits depend only on its window (inference runs one
        GEMM per window), so ``batch_size`` only bounds memory.  A
        zero-row input yields an empty ``(0, *output_shape)`` array
        (batched precompute paths legitimately see empty window sets).
        """
        self._require_built()
        x = np.asarray(x)
        if x.shape[0] == 0:
            return np.zeros((0, *self.output_shape), dtype=np.float64)
        outputs = [
            self.forward(x[start : start + batch_size], training=False)
            for start in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Softmax class probabilities."""
        return softmax(self.predict_logits(x, batch_size), axis=1)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Argmax class labels."""
        return self.predict_logits(x, batch_size).argmax(axis=1)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def parameters(self) -> Iterator[ParamGrad]:
        """Yield ``(param, grad)`` pairs for the optimizer."""
        self._require_built()
        for layer in self.layers:
            params, grads = layer.params, layer.grads
            for key in params:
                yield params[key], grads[key]

    def n_params(self) -> int:
        """Total trainable scalar count."""
        return sum(layer.n_params() for layer in self.layers)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters, keyed ``<index>.<layer>.<param>``."""
        self._require_built()
        state = {}
        for index, layer in enumerate(self.layers):
            for key, value in layer.params.items():
                state[f"{index}.{layer.name}.{key}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (strict match)."""
        self._require_built()
        expected = self.state_dict()
        missing = set(expected) - set(state)
        unexpected = set(state) - set(expected)
        if missing or unexpected:
            raise ModelError(
                f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for index, layer in enumerate(self.layers):
            for key, param in layer.params.items():
                incoming = np.asarray(state[f"{index}.{layer.name}.{key}"])
                if incoming.shape != param.shape:
                    raise ModelError(
                        f"shape mismatch for {layer.name}.{key}: "
                        f"{incoming.shape} vs {param.shape}"
                    )
                param[...] = incoming

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """A Keras-style text summary of layers, shapes and params."""
        self._require_built()
        lines = [f"Model: {self.name}  (input {self.input_shape})"]
        lines.append(f"{'layer':<24}{'output shape':<20}{'params':>10}")
        lines.append("-" * 54)
        for layer in self.layers:
            lines.append(
                f"{layer.name:<24}{str(layer.output_shape):<20}{layer.n_params():>10}"
            )
        lines.append("-" * 54)
        lines.append(f"{'total':<44}{self.n_params():>10}")
        return "\n".join(lines)
