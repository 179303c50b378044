"""Unit tests for SVM, KNN, scalers, model selection, metrics and importance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    KNeighborsClassifier,
    RandomForestClassifier,
    StandardScaler,
    StratifiedKFold,
    SVMClassifier,
    accuracy_score,
    cross_val_score,
    grid_search,
    per_class_accuracy,
    permutation_importance,
)


def binary_data(n=150, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


def multiclass_data(n=180, seed=1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [4, 0], [0, 4]])
    X = np.vstack([rng.normal(c, 0.7, size=(n // 3, 2)) for c in centers])
    y = np.repeat(np.arange(3), n // 3)
    return X, y


class TestSVM:
    def test_binary_rbf_accuracy(self):
        X, y = binary_data()
        model = SVMClassifier(kernel="rbf", max_iter=20, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_multiclass_one_vs_rest(self):
        X, y = multiclass_data()
        model = SVMClassifier(kernel="rbf", max_iter=20, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_linear_kernel(self):
        X, y = binary_data(seed=3)
        model = SVMClassifier(kernel="linear", max_iter=25, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.8

    def test_decision_function_shape(self):
        X, y = multiclass_data()
        model = SVMClassifier(max_iter=5, random_state=0).fit(X, y)
        assert model.decision_function(X[:9]).shape == (9, 3)

    def test_proba_normalised(self):
        X, y = binary_data()
        model = SVMClassifier(max_iter=5, random_state=0).fit(X, y)
        np.testing.assert_allclose(model.predict_proba(X[:5]).sum(axis=1), 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SVMClassifier(C=-1)
        with pytest.raises(ValueError):
            SVMClassifier(kernel="sigmoid")

    def test_string_labels(self):
        X, y = binary_data()
        labels = np.where(y == 0, "idle", "active")
        model = SVMClassifier(max_iter=10, random_state=0).fit(X, labels)
        assert set(model.predict(X[:20])) <= {"idle", "active"}


class TestKNN:
    def test_accuracy_on_blobs(self):
        X, y = multiclass_data()
        model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_one_neighbor_memorises(self):
        X, y = multiclass_data(n=60)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == pytest.approx(1.0)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev", "minkowski"])
    def test_all_metrics_work(self, metric):
        X, y = multiclass_data(n=90)
        model = KNeighborsClassifier(n_neighbors=3, metric=metric).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.85

    def test_distance_weighting(self):
        X, y = multiclass_data(n=90)
        model = KNeighborsClassifier(n_neighbors=5, weights="distance").fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.9

    def test_too_many_neighbors_rejected(self):
        X, y = binary_data(n=10)
        with pytest.raises(ValueError, match="exceeds"):
            KNeighborsClassifier(n_neighbors=50).fit(X, y)

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(metric="cosine")


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self):
        X = np.random.default_rng(0).normal(5, 3, size=(200, 4))
        scaled = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_handles_constant_column(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        scaled = StandardScaler().fit_transform(X)
        assert np.isfinite(scaled).all()

    def test_standard_scaler_inverse_roundtrip(self):
        """``transform`` is ``(X - mean_) / scale_``: undone by its fitted attributes."""
        X = np.random.default_rng(1).normal(size=(30, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.transform(X) * scaler.scale_ + scaler.mean_, X)

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestModelSelection:
    def test_stratified_kfold_covers_all_samples(self):
        X, y = multiclass_data(n=90)
        folds = list(StratifiedKFold(n_splits=3, random_state=0).split(X, y))
        covered = np.concatenate([test for _, test in folds])
        assert sorted(covered.tolist()) == list(range(len(y)))

    def test_cross_val_score_reasonable(self):
        X, y = multiclass_data()
        scores = cross_val_score(
            lambda: RandomForestClassifier(n_estimators=15, random_state=0), X, y, cv=3
        )
        assert scores.shape == (3,)
        assert scores.mean() > 0.85

    def test_grid_search_finds_best(self):
        X, y = multiclass_data()
        result = grid_search(
            lambda **p: KNeighborsClassifier(**p),
            {"n_neighbors": [1, 5]},
            X,
            y,
            cv=3,
        )
        assert result.best_params["n_neighbors"] in (1, 5)
        assert len(result.results) == 2
        assert result.best_score >= max(r["mean_score"] for r in result.results) - 1e-12


class TestMetrics:
    def test_accuracy_basic(self):
        assert accuracy_score([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(0.75)

    def test_per_class_accuracy(self):
        accs = per_class_accuracy([0, 0, 1, 1], [0, 1, 1, 1])
        assert accs[0] == pytest.approx(0.5)
        assert accs[1] == pytest.approx(1.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
    def test_accuracy_of_perfect_prediction_is_one(self, labels):
        assert accuracy_score(labels, labels) == pytest.approx(1.0)


class TestPermutationImportance:
    def test_informative_feature_ranks_highest(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = (X[:, 2] > 0).astype(int)  # only feature 2 matters
        model = RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y)
        result = permutation_importance(model, X, y, n_repeats=5, random_state=0)
        assert int(np.argmax(result.importances_mean)) == 2

    def test_feature_names_in_ranking(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        result = permutation_importance(
            model, X, y, n_repeats=2, random_state=0, feature_names=["a", "b", "c"]
        )
        assert result.ranked()[0][0] in {"a", "b", "c"}
        assert set(result.as_dict()) == {"a", "b", "c"}

    def test_name_length_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            permutation_importance(model, X, y, feature_names=["only-one"])
