"""Random-forest classifier (bagged CART ensemble).

The paper's model for both of its classification tasks.  This implementation
supports the hyperparameters tuned in Fig. 14/15 (number of trees and maximum
tree depth) plus bootstrap sampling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier, check_Xy, validate_positive_int
from repro.ml.kernel import ForestKernel
from repro.ml.tree import DecisionTreeClassifier


class RandomForestClassifier(BaseClassifier):
    """Ensemble of CART trees trained on bootstrap samples.

    Once fitted (or restored with :meth:`from_state`) the forest *is* the
    :meth:`export_state` node arrays — the trees are dropped after
    training — and :attr:`kernel`, compiled from them, is its only walk.

    Parameters
    ----------
    n_estimators:
        Number of trees in the forest.
    max_depth:
        Maximum depth of every tree (``None`` means unlimited).
    min_samples_split, min_samples_leaf:
        Forwarded to each :class:`~repro.ml.tree.DecisionTreeClassifier`.
    max_features:
        Per-split feature subsample; defaults to ``"sqrt"`` as is standard
        for classification forests.
    bootstrap:
        When ``True`` (default) each tree is trained on a bootstrap resample
        of the data; when ``False`` every tree sees all rows.
    random_state:
        Seed controlling bootstrap resampling and per-tree feature sampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        validate_positive_int(n_estimators, "n_estimators")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._state = None
        self._kernel = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        encoded = self._store_classes(y)
        n_samples, n_features = X.shape
        self.n_features_ = n_features
        rng = np.random.default_rng(self.random_state)

        trees = []

        for _ in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree.fit(X[indices], self.classes_[encoded[indices]])
            trees.append(tree)

        # the trees were scaffolding: the concatenated preorder arrays below
        # are the fitted model (and the ``pipeline.npz`` layout, byte for byte)
        flat = [tree.export_arrays() for tree in trees]
        importances = np.vstack([tree.feature_importances_ for tree in trees])
        self.feature_importances_ = np.mean(importances, axis=0)
        self._state = {
            **{
                key: np.concatenate([arrays[key] for arrays in flat])
                for key in ("feature", "threshold", "left", "right")
            },
            "proba": np.vstack(
                [self._align(tree, arrays["proba"]) for tree, arrays in zip(trees, flat)]
            ),
            "offsets": np.cumsum(
                [0] + [arrays["feature"].size for arrays in flat], dtype=np.int64
            ),
            "tree_importances": importances,
            "forest_importances": self.feature_importances_,
        }
        self._kernel = None
        return self

    def _align(self, tree: DecisionTreeClassifier, proba: np.ndarray) -> np.ndarray:
        """Map a tree's probability columns onto the forest's class order."""
        if np.array_equal(tree.classes_, self.classes_):
            # bootstrap sample saw every class: columns already line up
            return proba
        aligned = np.zeros((proba.shape[0], len(self.classes_)))
        aligned[:, np.searchsorted(self.classes_, tree.classes_)] = proba
        return aligned

    @property
    def kernel(self) -> ForestKernel:
        """The compiled inference kernel (built lazily, cached until refit)."""
        self._check_fitted()
        if self._kernel is None:
            self._kernel = ForestKernel.from_arrays(
                self._state, self.classes_, self.n_features_
            )
        return self._kernel

    # --------------------------------------------------------- persistence
    def export_state(self) -> dict:
        """The fitted ensemble: a handful of dense, read-only numpy arrays.

        Every tree's preorder arrays concatenated (child indices stay
        tree-local; ``offsets`` delimits trees; leaves carry ``feature ==
        -1`` and index themselves), leaf probability rows pre-aligned to the
        forest's class order, plus the per-tree and mean importances — the
        arrays drop straight into ``np.savez``.  They are the model itself,
        not a copy, hence read-only.  Class labels are not included — the
        caller persists them alongside (they may be strings).
        """
        self._check_fitted()
        views = {key: value.view() for key, value in self._state.items()}
        for view in views.values():
            view.setflags(write=False)
        return views

    @classmethod
    def from_state(
        cls, arrays: dict, classes, n_features: int, params: Optional[dict] = None
    ) -> "RandomForestClassifier":
        """Adopt :meth:`export_state` arrays as a fitted forest.

        The result is the same kind of object :meth:`fit` leaves behind and
        predicts bit-identically to the exported forest.  The kernel is
        compiled here rather than on first use, so arrays no forest could
        have exported (a corrupt ``pipeline.npz``) raise ``ValueError``
        now.  Training-only diagnostics (OOB score) are not restored.
        """
        forest = cls(**(params or {}))
        forest.n_estimators = np.asarray(arrays["offsets"]).size - 1
        forest.classes_ = np.asarray(classes)
        forest.n_features_ = int(n_features)
        forest._state = {key: np.asarray(value) for key, value in arrays.items()}
        forest.feature_importances_ = np.asarray(
            forest._state["forest_importances"], dtype=float
        )
        forest.kernel  # noqa: B018 - validate + compile
        return forest

    def predict_proba(self, X) -> np.ndarray:
        """Mean class probabilities over all trees.

        Inference runs on the compiled :class:`~repro.ml.kernel.ForestKernel`
        (rank-quantized level-packed decision tables), whose probabilities
        are **bit-identical** to walking :meth:`export_state` node by node
        with float ``x <= threshold`` tests and adding the leaf rows in tree
        order — the oracle ``tests/test_forest_kernel.py`` compares against.
        """
        return self.kernel.predict_proba(X)
