"""Feature scaling utilities used ahead of distance/margin-based models."""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_Xy


class StandardScaler:
    """Standardise features to zero mean and unit variance.

    Constant features (zero variance) are left centred but unscaled so that
    they do not produce NaNs, which matters for attributes the paper finds to
    be non-discriminative (e.g. the mean payload size of the full packet
    group, which is constant across titles).
    """

    def fit(self, X) -> "StandardScaler":
        X, _ = check_Xy(X)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        self.n_features_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "mean_"):
            raise RuntimeError("StandardScaler is not fitted; call fit() first")
        X, _ = check_Xy(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)
