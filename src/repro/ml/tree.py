"""CART decision-tree classifier.

A vectorised implementation of classification trees with Gini or entropy
impurity.  The tree is the building block of :class:`repro.ml.forest.
RandomForestClassifier`, the model family that performs best for both game
title classification (Fig. 14) and gameplay activity pattern inference
(Fig. 15) in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier, check_Xy, validate_positive_int


@dataclass
class _Node:
    """A single tree node.

    Leaves carry a class-probability vector; internal nodes carry a split
    ``(feature, threshold)`` and two children.
    """

    prediction: Optional[np.ndarray] = None
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    n_samples: int = 0
    impurity: float = 0.0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.prediction is not None


@dataclass
class _SplitCandidate:
    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray = field(repr=False, default=None)


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts / total
    return float(1.0 - np.sum(probs * probs))


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts / total
    probs = probs[probs > 0]
    return float(-np.sum(probs * np.log2(probs)))


_IMPURITY_FUNCTIONS = {"gini": _gini, "entropy": _entropy}


class DecisionTreeClassifier(BaseClassifier):
    """Binary-split CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or smaller
        than ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features examined per split.  ``None`` uses all features,
        ``"sqrt"`` uses ``sqrt(n_features)`` (the random-forest default),
        an ``int`` uses that many, a ``float`` in ``(0, 1]`` uses that
        fraction.
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    random_state:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        criterion: str = "gini",
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth is not None:
            validate_positive_int(max_depth, "max_depth")
        validate_positive_int(min_samples_split, "min_samples_split")
        validate_positive_int(min_samples_leaf, "min_samples_leaf")
        if criterion not in _IMPURITY_FUNCTIONS:
            raise ValueError(
                f"criterion must be one of {sorted(_IMPURITY_FUNCTIONS)}, got {criterion!r}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        self._flat = None

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        encoded = self._store_classes(y)
        self.n_features_ = X.shape[1]
        self._impurity = _IMPURITY_FUNCTIONS[self.criterion]
        self._rng = np.random.default_rng(self.random_state)
        self._n_split_features = self._resolve_max_features(X.shape[1])
        self.feature_importances_ = np.zeros(X.shape[1])
        self.root_ = self._build(X, encoded, depth=0)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        self.n_nodes_ = self._count_nodes(self.root_)
        self._flat = None
        return self

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(round(self.max_features * n_features)))
        return min(n_features, validate_positive_int(self.max_features, "max_features"))

    def _leaf(self, encoded: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(encoded, minlength=len(self.classes_)).astype(float)
        total = counts.sum()
        prediction = counts / total if total else np.full(len(self.classes_), 1.0 / len(self.classes_))
        return _Node(
            prediction=prediction,
            n_samples=int(total),
            impurity=self._impurity(counts),
            depth=depth,
        )

    def _build(self, X: np.ndarray, encoded: np.ndarray, depth: int) -> _Node:
        n_samples = X.shape[0]
        counts = np.bincount(encoded, minlength=len(self.classes_)).astype(float)
        node_impurity = self._impurity(counts)
        depth_exhausted = self.max_depth is not None and depth >= self.max_depth
        if (
            depth_exhausted
            or n_samples < self.min_samples_split
            or node_impurity == 0.0
        ):
            return self._leaf(encoded, depth)

        split = self._best_split(X, encoded, node_impurity)
        if split is None:
            return self._leaf(encoded, depth)

        self.feature_importances_[split.feature] += split.gain * n_samples
        left_mask = split.left_mask
        node = _Node(
            feature=split.feature,
            threshold=split.threshold,
            n_samples=n_samples,
            impurity=node_impurity,
            depth=depth,
        )
        node.left = self._build(X[left_mask], encoded[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], encoded[~left_mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, encoded: np.ndarray, parent_impurity: float
    ) -> Optional[_SplitCandidate]:
        n_samples, n_features = X.shape
        features = np.arange(n_features)
        if self._n_split_features < n_features:
            features = self._rng.choice(features, size=self._n_split_features, replace=False)

        best: Optional[_SplitCandidate] = None
        n_classes = len(self.classes_)
        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            sorted_labels = encoded[order]

            # cumulative class counts for the left partition at each cut point
            one_hot = np.zeros((n_samples, n_classes))
            one_hot[np.arange(n_samples), sorted_labels] = 1.0
            left_counts = np.cumsum(one_hot, axis=0)
            total_counts = left_counts[-1]

            # candidate cut between i and i+1 only where the value changes
            distinct = np.nonzero(np.diff(sorted_values) > 0)[0]
            if distinct.size == 0:
                continue
            left_sizes = distinct + 1
            right_sizes = n_samples - left_sizes
            valid = (left_sizes >= self.min_samples_leaf) & (
                right_sizes >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            cut_indices = distinct[valid]
            left_sizes = left_sizes[valid]
            right_sizes = right_sizes[valid]

            lc = left_counts[cut_indices]
            rc = total_counts - lc
            if self.criterion == "gini":
                left_imp = 1.0 - np.sum((lc / left_sizes[:, None]) ** 2, axis=1)
                right_imp = 1.0 - np.sum((rc / right_sizes[:, None]) ** 2, axis=1)
            else:
                lp = lc / left_sizes[:, None]
                rp = rc / right_sizes[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    left_imp = -np.nansum(np.where(lp > 0, lp * np.log2(lp), 0.0), axis=1)
                    right_imp = -np.nansum(np.where(rp > 0, rp * np.log2(rp), 0.0), axis=1)

            weighted = (left_sizes * left_imp + right_sizes * right_imp) / n_samples
            gains = parent_impurity - weighted
            best_index = int(np.argmax(gains))
            gain = float(gains[best_index])
            if gain <= 1e-12:
                continue
            if best is None or gain > best.gain:
                cut = cut_indices[best_index]
                threshold = float((sorted_values[cut] + sorted_values[cut + 1]) / 2.0)
                best = _SplitCandidate(
                    feature=int(feature),
                    threshold=threshold,
                    gain=gain,
                    left_mask=values <= threshold,
                )
        return best

    # -------------------------------------------------------------- predict
    def _flatten(self):
        """Flatten the node tree into parallel arrays for batch traversal.

        Returns ``(feature, threshold, left, right, proba)`` where row ``i``
        describes node ``i`` (preorder): leaves have ``feature == -1`` and
        their class-probability vector in ``proba[i]``; internal nodes store
        the split and the indices of their children.
        """
        features: list = []
        thresholds: list = []
        lefts: list = []
        rights: list = []
        predictions: list = []

        def visit(node: _Node) -> int:
            index = len(features)
            features.append(-1 if node.is_leaf else node.feature)
            thresholds.append(node.threshold)
            lefts.append(index)
            rights.append(index)
            predictions.append(node.prediction)
            if not node.is_leaf:
                lefts[index] = visit(node.left)
                rights[index] = visit(node.right)
            return index

        visit(self.root_)
        n_classes = len(self.classes_)
        proba = np.zeros((len(features), n_classes))
        for index, prediction in enumerate(predictions):
            if prediction is not None:
                proba[index] = prediction
        return (
            np.asarray(features, dtype=np.int64),
            np.asarray(thresholds, dtype=float),
            np.asarray(lefts, dtype=np.int64),
            np.asarray(rights, dtype=np.int64),
            proba,
        )

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities for every row of ``X`` (batch traversal).

        All rows descend the tree together: per level, one vectorised
        comparison routes every still-internal row to its child node, so the
        cost is O(depth) numpy operations instead of a Python loop per row.
        Each row follows exactly the same ``<= threshold`` decisions as a
        sequential walk, so probabilities are bit-identical.
        """
        self._check_fitted()
        X, _ = check_Xy(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        if self._flat is None:
            self._flat = self._flatten()
        feature, threshold, left, right, proba = self._flat
        n_rows = X.shape[0]
        nodes = np.zeros(n_rows, dtype=np.int64)
        rows = np.arange(n_rows)
        current = nodes
        split_feature = np.full(n_rows, int(feature[0]), dtype=np.int64)
        while rows.size:
            internal = split_feature >= 0
            if not internal.all():
                # rows that reached a leaf drop out of the traversal
                settled = ~internal
                nodes[rows[settled]] = current[settled]
                rows = rows[internal]
                current = current[internal]
                split_feature = split_feature[internal]
                if not rows.size:
                    break
            go_left = X[rows, split_feature] <= threshold[current]
            current = np.where(go_left, left[current], right[current])
            split_feature = feature[current]
        return proba[nodes]

    # --------------------------------------------------------- persistence
    def export_arrays(self) -> dict:
        """Flat preorder arrays fully describing the fitted tree.

        Returns ``feature`` (int64, ``-1`` marks leaves), ``threshold``
        (float64), ``left`` / ``right`` (int64 child indices, self-indices on
        leaves) and ``proba`` (per-leaf class probabilities, zero rows on
        internal nodes) — the :meth:`_flatten` layout, which together with
        the class labels is everything prediction needs.  Bookkeeping fields
        that only describe training (per-node sample counts and impurities)
        are not exported.
        """
        self._check_fitted()
        if self._flat is None:
            self._flat = self._flatten()
        feature, threshold, left, right, proba = self._flat
        return {
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "proba": proba,
        }

    # ------------------------------------------------------------ utilities
    def _count_nodes(self, node: _Node) -> int:
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)

    def depth(self) -> int:
        """Return the depth of the fitted tree (root at depth 0)."""
        self._check_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return node.depth
            return max(walk(node.left), walk(node.right))

        return walk(self.root_)
