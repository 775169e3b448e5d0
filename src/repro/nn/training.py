"""Mini-batch training loop."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer
from repro.utils.rng import SeedLike, as_generator

logger = logging.getLogger(__name__)


@dataclass
class TrainingHistory:
    """Per-epoch records of one :meth:`Trainer.fit` run."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def n_epochs(self) -> int:
        """How many epochs actually ran."""
        return len(self.train_loss)


class Trainer:
    """Trains a :class:`~repro.nn.model.Sequential` model.

    Parameters
    ----------
    model:
        Model to train; built automatically on first :meth:`fit` if needed.
    loss:
        Loss object (defaults to plain cross-entropy).
    optimizer:
        Any :class:`~repro.nn.optimizers.Optimizer`.
    """

    def __init__(
        self,
        model: Sequential,
        loss: Optional[CrossEntropyLoss] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> None:
        from repro.nn.optimizers import Adam  # local: avoid import cycle at module load

        self.model = model
        self.loss = loss or CrossEntropyLoss()
        self.optimizer = optimizer or Adam(learning_rate=1e-3)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 20,
        batch_size: int = 32,
        seed: SeedLike = None,
        validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        early_stopping_patience: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train with shuffled mini-batches.

        With ``validation`` and ``early_stopping_patience`` set, training
        stops after that many epochs without a validation-accuracy
        improvement, and the best-epoch weights are restored.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ModelError(f"X/y size mismatch: {X.shape[0]} vs {y.shape[0]}")
        if epochs < 1 or batch_size < 1:
            raise ModelError(f"epochs/batch_size must be >= 1, got {epochs}/{batch_size}")

        if not self.model.built:
            self.model.build(X.shape[1:])

        rng = as_generator(seed)
        history = TrainingHistory()
        best_state = None
        best_val = -np.inf
        stale_epochs = 0

        for epoch in range(epochs):
            order = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            epoch_correct = 0
            for start in range(0, X.shape[0], batch_size):
                batch_idx = order[start : start + batch_size]
                xb, yb = X[batch_idx], y[batch_idx]
                logits = self.model.forward(xb, training=True)
                epoch_loss += self.loss.forward(logits, yb) * len(batch_idx)
                epoch_correct += int((logits.argmax(axis=1) == yb).sum())
                self.model.backward(self.loss.backward())
                self.optimizer.step(self.model.parameters())

            history.train_loss.append(epoch_loss / X.shape[0])
            history.train_accuracy.append(epoch_correct / X.shape[0])

            if validation is not None:
                val_x, val_y = validation
                val_acc = accuracy(val_y, self.model.predict(val_x))
                history.val_accuracy.append(val_acc)
                if val_acc > best_val:
                    best_val = val_acc
                    history.best_epoch = epoch
                    stale_epochs = 0
                    if early_stopping_patience is not None:
                        best_state = self.model.state_dict()
                else:
                    stale_epochs += 1
                if (
                    early_stopping_patience is not None
                    and stale_epochs >= early_stopping_patience
                ):
                    break
            if verbose:  # pragma: no cover - logging only
                val_part = (
                    f"  val_acc={history.val_accuracy[-1]:.3f}"
                    if history.val_accuracy
                    else ""
                )
                logger.info(
                    "epoch %d/%d  loss=%.4f  acc=%.3f%s",
                    epoch + 1, epochs, history.train_loss[-1],
                    history.train_accuracy[-1], val_part,
                )

        if best_state is not None:
            self.model.load_state_dict(best_state)
        return history
