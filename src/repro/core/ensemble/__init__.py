"""Ensemble aggregation: the confidence matrix the host votes with."""

from repro.core.ensemble.confidence import ConfidenceMatrix

__all__ = ["ConfidenceMatrix"]
