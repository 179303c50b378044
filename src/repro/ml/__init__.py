"""Numpy-only machine-learning substrate used by the classification pipeline.

The paper tunes three classical models (Random Forest, SVM and KNN) for its
two classification tasks (game title, gameplay activity pattern) plus a third
model for player activity stages.  scikit-learn is not available in this
environment, so this subpackage implements the required algorithms and
utilities from scratch on top of numpy:

* :mod:`repro.ml.tree` — CART decision tree classifier.
* :mod:`repro.ml.forest` — bootstrap-aggregated random forest; once fitted
  (or loaded) it *is* its ``export_state()`` node arrays.
* :mod:`repro.ml.kernel` — the one forest walk: rank-quantised level tables
  compiled from those arrays (validated there, bit-identical probabilities).
* :mod:`repro.ml.svm` — one-vs-rest kernel SVM trained with a simplified SMO.
* :mod:`repro.ml.knn` — k-nearest-neighbour classifier.
* :mod:`repro.ml.scaling` — the standard feature scaler.
* :mod:`repro.ml.model_selection` — stratified k-fold, cross-validation and
  grid search.
* :mod:`repro.ml.metrics` — accuracy and per-class accuracy (recall).
* :mod:`repro.ml.importance` — permutation feature importance (Fig. 9 and
  Table 5 of the paper).
"""

from repro.ml.base import BaseClassifier, check_Xy
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import permutation_importance
from repro.ml.kernel import ForestKernel
from repro.ml.knn import KNeighborsClassifier
from repro.ml.metrics import accuracy_score, per_class_accuracy
from repro.ml.model_selection import (
    GridSearchResult,
    StratifiedKFold,
    cross_val_score,
    grid_search,
)
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVMClassifier
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BaseClassifier",
    "check_Xy",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "ForestKernel",
    "SVMClassifier",
    "KNeighborsClassifier",
    "StandardScaler",
    "StratifiedKFold",
    "cross_val_score",
    "grid_search",
    "GridSearchResult",
    "accuracy_score",
    "per_class_accuracy",
    "permutation_importance",
]
