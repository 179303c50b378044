"""Dataset splitting, cross-validation and grid search.

These utilities back the hyperparameter tuning reported in Appendix C of the
paper (Fig. 14 for game-title models, Fig. 15 for gameplay-activity-pattern
models) and the parameter sweeps of Fig. 8 and Fig. 10.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import check_Xy, validate_positive_int
from repro.ml.metrics import accuracy_score


class StratifiedKFold:
    """Stratified k-fold splitter preserving class proportions per fold."""

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None
    ) -> None:
        validate_positive_int(n_splits, "n_splits")
        if n_splits < 2:
            raise ValueError(f"n_splits must be at least 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` pairs."""
        X, y = check_Xy(X, y)
        rng = np.random.default_rng(self.random_state)
        fold_assignment = np.empty(X.shape[0], dtype=int)
        for label in np.unique(y):
            label_indices = np.flatnonzero(y == label)
            if self.shuffle:
                rng.shuffle(label_indices)
            folds = np.arange(label_indices.size) % self.n_splits
            fold_assignment[label_indices] = folds
        for fold in range(self.n_splits):
            test_mask = fold_assignment == fold
            if not test_mask.any() or test_mask.all():
                continue
            yield np.flatnonzero(~test_mask), np.flatnonzero(test_mask)


def cross_val_score(
    estimator_factory: Callable[[], object],
    X,
    y,
    cv: int = 5,
    random_state: Optional[int] = None,
    scorer: Callable = accuracy_score,
) -> np.ndarray:
    """Evaluate an estimator with stratified k-fold cross-validation.

    Parameters
    ----------
    estimator_factory:
        Zero-argument callable returning a *fresh* unfitted estimator; a
        factory is required because the estimators here do not implement
        cloning.

    Returns
    -------
    numpy.ndarray
        One score per fold.
    """
    X, y = check_Xy(X, y)
    splitter = StratifiedKFold(n_splits=cv, random_state=random_state)
    scores = []
    for train_idx, test_idx in splitter.split(X, y):
        model = estimator_factory()
        model.fit(X[train_idx], y[train_idx])
        predictions = model.predict(X[test_idx])
        scores.append(scorer(y[test_idx], predictions))
    if not scores:
        raise ValueError("cross-validation produced no usable folds")
    return np.array(scores)


@dataclass
class GridSearchResult:
    """Outcome of :func:`grid_search`."""

    best_params: Dict
    best_score: float
    results: List[Dict] = field(default_factory=list)


def iter_param_grid(param_grid: Dict[str, Sequence]) -> Iterator[Dict]:
    """Yield every combination of the parameter grid as a dict."""
    if not param_grid:
        yield {}
        return
    keys = list(param_grid)
    for values in itertools.product(*(param_grid[key] for key in keys)):
        yield dict(zip(keys, values))


def grid_search(
    estimator_factory: Callable[..., object],
    param_grid: Dict[str, Sequence],
    X,
    y,
    cv: int = 3,
    random_state: Optional[int] = None,
    scorer: Callable = accuracy_score,
) -> GridSearchResult:
    """Exhaustive cross-validated search over a parameter grid.

    ``estimator_factory`` is called with each parameter combination as
    keyword arguments (e.g. ``lambda **p: RandomForestClassifier(**p)``).
    """
    X, y = check_Xy(X, y)
    results: List[Dict] = []
    best_score = -np.inf
    best_params: Dict = {}
    for params in iter_param_grid(param_grid):
        scores = cross_val_score(
            lambda params=params: estimator_factory(**params),
            X,
            y,
            cv=cv,
            random_state=random_state,
            scorer=scorer,
        )
        mean_score = float(scores.mean())
        results.append(
            {"params": params, "mean_score": mean_score, "std_score": float(scores.std())}
        )
        if mean_score > best_score:
            best_score = mean_score
            best_params = params
    return GridSearchResult(best_params=best_params, best_score=best_score, results=results)
