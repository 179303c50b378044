"""Unit tests for the decision tree and random forest classifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, accuracy_score
from repro.ml.base import check_Xy


def make_blobs(n_per_class=60, n_features=5, n_classes=3, seed=0, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(n_classes, n_features))
    X = np.vstack(
        [rng.normal(center, spread, size=(n_per_class, n_features)) for center in centers]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return X, y


class TestCheckXy:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="samples"):
            check_Xy(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_nan(self):
        X = np.zeros((3, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            check_Xy(X)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_Xy(np.zeros((0, 3)))

    def test_promotes_1d_to_row(self):
        X, _ = check_Xy(np.array([1.0, 2.0, 3.0]))
        assert X.shape == (1, 3)


class TestDecisionTree:
    def test_fits_separable_data_perfectly(self):
        X, y = make_blobs(spread=0.3)
        tree = DecisionTreeClassifier(random_state=0)
        tree.fit(X, y)
        assert accuracy_score(y, tree.predict(X)) == pytest.approx(1.0)

    def test_max_depth_limits_depth(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier(max_depth=2, random_state=0).fit(X, y)
        assert tree.depth() <= 2

    def test_predict_proba_rows_sum_to_one(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        proba = tree.predict_proba(X[:20])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_string_labels_supported(self):
        X, y = make_blobs(n_classes=2)
        labels = np.where(y == 0, "cat", "dog")
        tree = DecisionTreeClassifier(random_state=0).fit(X, labels)
        assert set(tree.predict(X)) <= {"cat", "dog"}

    def test_feature_importances_sum_to_one(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeClassifier().predict(np.zeros((1, 3)))

    def test_feature_count_mismatch_raises(self):
        X, y = make_blobs(n_features=4)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((2, 7)))

    def test_constant_labels_yield_single_class(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert (tree.predict(X) == 0).all()

    def test_min_samples_leaf_respected(self):
        X, y = make_blobs(n_per_class=10)
        tree = DecisionTreeClassifier(min_samples_leaf=5, random_state=0).fit(X, y)
        # every leaf must contain at least 5 samples

        def leaves(node):
            if node.is_leaf:
                return [node]
            return leaves(node.left) + leaves(node.right)

        assert all(leaf.n_samples >= 5 for leaf in leaves(tree.root_))


class TestRandomForest:
    def test_beats_chance_on_noisy_data(self):
        X, y = make_blobs(spread=1.5, seed=3)
        forest = RandomForestClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.8

    def test_generalisation_on_holdout(self):
        X, y = make_blobs(n_per_class=80, spread=0.8, seed=5)
        train = np.arange(0, X.shape[0], 2)
        test = np.arange(1, X.shape[0], 2)
        forest = RandomForestClassifier(n_estimators=60, random_state=1).fit(X[train], y[train])
        assert accuracy_score(y[test], forest.predict(X[test])) > 0.85

    def test_predict_proba_shape_and_normalisation(self):
        X, y = make_blobs(n_classes=4)
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:7])
        assert proba.shape == (7, 4)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_reproducible_with_seed(self):
        X, y = make_blobs(seed=9)
        a = RandomForestClassifier(n_estimators=10, random_state=42).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=10, random_state=42).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_feature_importances_available(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert forest.feature_importances_.shape == (X.shape[1],)
        assert np.all(forest.feature_importances_ >= 0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=1000))
    def test_predictions_are_known_classes(self, n_classes, seed):
        """Property: forest predictions always come from the training labels."""
        X, y = make_blobs(n_per_class=15, n_classes=n_classes, seed=seed)
        forest = RandomForestClassifier(n_estimators=5, random_state=seed).fit(X, y)
        assert set(forest.predict(X)) <= set(np.unique(y))
