"""Classification metrics (accuracy, per-class accuracy, confusion matrix)."""

from __future__ import annotations

from dataclasses import dataclass
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


def confusion_matrix(y_true, y_pred, labels: Optional[Sequence] = None) -> np.ndarray:
    """Confusion matrix ``M[i, j]`` = count of true label i predicted as j."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    labels = np.asarray(labels)
    index = {label: i for i, label in enumerate(labels.tolist())}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for true, pred in zip(y_true.tolist(), y_pred.tolist()):
        if true in index and pred in index:
            matrix[index[true], index[pred]] += 1
    return matrix


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


def precision_score(y_true, y_pred, labels: Optional[Sequence] = None) -> Dict:
    """Per-class precision."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    out = {}
    for label in np.asarray(labels).tolist():
        predicted = y_pred == label
        if not predicted.any():
            out[label] = float("nan")
        else:
            out[label] = float(np.mean(y_true[predicted] == label))
    return out


def recall_score(y_true, y_pred, labels: Optional[Sequence] = None) -> Dict:
    """Per-class recall (alias of :func:`per_class_accuracy`)."""
    return per_class_accuracy(y_true, y_pred, labels)


def f1_score(y_true, y_pred, labels: Optional[Sequence] = None) -> Dict:
    """Per-class F1 score."""
    precision = precision_score(y_true, y_pred, labels)
    recall = recall_score(y_true, y_pred, labels)
    out = {}
    for label in precision:
        p, r = precision[label], recall.get(label, float("nan"))
        if np.isnan(p) or np.isnan(r) or (p + r) == 0:
            out[label] = 0.0
        else:
            out[label] = 2 * p * r / (p + r)
    return out


@dataclass
class ClassificationReport:
    """Structured summary of a classification run."""

    accuracy: float
    per_class_accuracy: Dict
    precision: Dict
    recall: Dict
    f1: Dict
    support: Dict
    labels: list


def classification_report(y_true, y_pred) -> ClassificationReport:
    """Build a :class:`ClassificationReport` for the given predictions."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    labels = np.unique(y_true).tolist()
    support = {label: int(np.sum(y_true == label)) for label in labels}
    return ClassificationReport(
        accuracy=accuracy_score(y_true, y_pred),
        per_class_accuracy=per_class_accuracy(y_true, y_pred, labels),
        precision=precision_score(y_true, y_pred, labels),
        recall=recall_score(y_true, y_pred, labels),
        f1=f1_score(y_true, y_pred, labels),
        support=support,
        labels=labels,
    )
