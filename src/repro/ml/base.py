"""Shared classifier interface and input validation helpers."""

from __future__ import annotations

import numpy as np


def check_Xy(X, y=None):
    """Validate and coerce a feature matrix (and optional label vector).

    Parameters
    ----------
    X:
        Two-dimensional array-like of shape ``(n_samples, n_features)``.
    y:
        Optional one-dimensional array-like of labels with ``n_samples``
        entries.  Labels may be strings or integers.

    Returns
    -------
    tuple
        ``(X, y)`` as numpy arrays (``y`` is ``None`` when not supplied).

    Raises
    ------
    ValueError
        If shapes are inconsistent, the matrix is empty, or values are not
        finite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"X must be non-empty, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values")
    if y is None:
        return X, None
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]} labels"
        )
    return X, y


class BaseClassifier:
    """Minimal scikit-learn-like classifier interface.

    Subclasses implement :meth:`fit` and :meth:`predict_proba`; this base
    class provides :meth:`predict`, :meth:`score`, class bookkeeping and
    parameter introspection used by the grid-search utilities.
    """

    #: populated by :meth:`_store_classes` during ``fit``
    classes_: np.ndarray

    def fit(self, X, y):  # pragma: no cover - interface
        raise NotImplementedError

    def predict_proba(self, X) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def _store_classes(self, y: np.ndarray) -> np.ndarray:
        """Record sorted unique classes and return integer-encoded labels."""
        self.classes_, encoded = np.unique(y, return_inverse=True)
        return encoded

    def _check_fitted(self) -> None:
        if not hasattr(self, "classes_"):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    def predict(self, X) -> np.ndarray:
        """Return the most probable class for every row of ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def confidence(self, X) -> np.ndarray:
        """Return the probability of the predicted class per sample."""
        proba = self.predict_proba(X)
        return proba.max(axis=1)


def validate_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)

