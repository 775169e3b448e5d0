"""The adaptive confidence matrix (paper §III-C).

Confidence of one classification = variance of the softmax output
vector: one-hot (certain) maximizes it, uniform (confused) zeroes it.
The matrix holds, per (sensor, class), the expected confidence of that
sensor when it predicts that class — seeded by averaging over validation
outputs, then adapted online with a moving average as each successful
classification's confidence score arrives from the sensor.  It weights
majority voting and resolves ties.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.model import Sequential
from repro.utils.stats import confidence_from_softmax
from repro.utils.validation import check_fraction


class ConfidenceMatrix:
    """``(sensor, class) -> expected confidence`` with online adaptation.

    Parameters
    ----------
    weights:
        ``{node id: confidence per class}``; every node must cover the
        same number of classes.
    adaptation_alpha:
        Moving-average weight of each new observation (0 freezes the
        matrix, reproducing a *static* confidence-weighted ensemble).
    """

    def __init__(
        self,
        weights: Mapping[int, Sequence[float]],
        *,
        adaptation_alpha: float = 0.05,
    ) -> None:
        if not weights:
            raise ConfigurationError("weights must be non-empty")
        check_fraction("adaptation_alpha", adaptation_alpha)
        self._weights: Dict[int, np.ndarray] = {}
        n_classes = None
        for node_id, row in weights.items():
            array = np.asarray(row, dtype=np.float64)
            if array.ndim != 1 or array.size < 2:
                raise ConfigurationError(
                    f"confidence row for node {node_id} must be 1-D with >= 2 classes"
                )
            if not np.all(np.isfinite(array) & (array >= 0)):
                raise ConfigurationError("confidence values must be >= 0 and finite")
            if n_classes is None:
                n_classes = array.size
            elif array.size != n_classes:
                raise ConfigurationError("all nodes must cover the same classes")
            self._weights[int(node_id)] = array.copy()
        self.n_classes = int(n_classes)
        self.adaptation_alpha = float(adaptation_alpha)
        self._updates = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def seed_from_validation(
        cls,
        models: Mapping[int, Sequential],
        validation: Mapping[int, tuple],
        *,
        adaptation_alpha: float = 0.05,
        floor: float = 1e-4,
    ) -> "ConfidenceMatrix":
        """Seed from per-node validation data.

        For every node, runs its model on its ``(X, y)`` validation set
        and averages the softmax variance over the samples *predicted*
        as each class (prediction-conditioned, because at run time only
        the predicted class is known).  Classes a node never predicts
        get ``floor``.
        """
        weights = {}
        for node_id, model in models.items():
            if node_id not in validation:
                raise ConfigurationError(f"no validation data for node {node_id}")
            X, _ = validation[node_id]
            probabilities = model.predict_proba(X)
            predicted = probabilities.argmax(axis=1)
            n_classes = probabilities.shape[1]
            row = np.full(n_classes, floor, dtype=np.float64)
            for label in range(n_classes):
                mask = predicted == label
                if mask.any():
                    row[label] = float(
                        np.mean([confidence_from_softmax(p) for p in probabilities[mask]])
                    )
            weights[node_id] = row
        return cls(weights, adaptation_alpha=adaptation_alpha)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> list:
        """Covered node ids."""
        return sorted(self._weights)

    @property
    def updates(self) -> int:
        """Online updates applied so far."""
        return self._updates

    def weight(self, node_id: int, label: int) -> float:
        """Voting weight of ``node_id`` predicting class ``label``.

        The stored expected confidence, which is what the paper's
        variance weighting amounts to: a sensor that is genuinely
        confused about a class — a flat softmax, low variance —
        contributes little weight for it.
        """
        try:
            row = self._weights[int(node_id)]
        except KeyError as error:
            raise ConfigurationError(f"unknown node {node_id}") from error
        if not 0 <= label < self.n_classes:
            raise ConfigurationError(f"label {label} out of range")
        return float(row[label])

    def row(self, node_id: int) -> np.ndarray:
        """Copy of one node's confidence row."""
        self.weight(node_id, 0)  # validates node id
        return self._weights[int(node_id)].copy()

    def as_array(self) -> np.ndarray:
        """``(n_nodes, n_classes)`` matrix, rows ordered by node id."""
        return np.stack([self._weights[node_id] for node_id in self.node_ids])

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------

    def update(self, node_id: int, label: int, confidence: float) -> float:
        """Fold one observed confidence score into the matrix.

        Called after each successful classification with the confidence
        the sensor transmitted alongside its result; returns the new
        stored value (the same scale as the transmitted variance).  A
        zero ``adaptation_alpha`` makes this a no-op.
        """
        # Validate the observation before the lookup, so a bad
        # confidence reports itself instead of an unrelated node error.
        # A NaN weight would drop its label from every later vote.
        if not (math.isfinite(confidence) and confidence >= 0):
            raise ConfigurationError(
                f"confidence must be >= 0 and finite, got {confidence}"
            )
        current = self.weight(node_id, label)
        if self.adaptation_alpha == 0.0:
            return current
        updated = current + self.adaptation_alpha * (float(confidence) - current)
        self._weights[int(node_id)][label] = updated
        self._updates += 1
        return updated

    def copy(self, *, adaptation_alpha: Optional[float] = None) -> "ConfidenceMatrix":
        """Independent copy (optionally with a different alpha)."""
        alpha = self.adaptation_alpha if adaptation_alpha is None else adaptation_alpha
        return ConfidenceMatrix(
            {node_id: row.copy() for node_id, row in self._weights.items()},
            adaptation_alpha=alpha,
        )
