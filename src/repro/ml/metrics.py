"""Classification metrics (accuracy and per-class accuracy)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


def _as_arrays(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true shape {y_true.shape} does not match y_pred shape {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("cannot compute metrics on empty label arrays")
    return y_true, y_pred


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of predictions equal to the true label."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def per_class_accuracy(y_true, y_pred, labels: Optional[Sequence] = None) -> Dict:
    """Per-class recall (the paper reports this as per-title "accuracy")."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    if labels is None:
        labels = np.unique(y_true)
    out = {}
    for label in np.asarray(labels).tolist():
        mask = y_true == label
        if not mask.any():
            out[label] = float("nan")
        else:
            out[label] = float(np.mean(y_pred[mask] == label))
    return out
