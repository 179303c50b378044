"""Compiled forest kernel: bit-exact equivalence, state arrays, persistence.

The load-bearing guarantee (ISSUE 9 acceptance): for every fitted
:class:`~repro.ml.RandomForestClassifier`, the compiled
:class:`~repro.ml.kernel.ForestKernel` returns probabilities
**bit-identical** (``np.array_equal``, not approx) to the reference
traversal — on randomized matrices, on the real fitted pipeline's three
forests, on single rows and on degenerate inputs.  The reference lived in
``src/`` as ``predict_proba_legacy`` until PR 17; it is
:func:`oracle_predict_proba` below and reads nothing but
``export_state()`` arrays.
"""

from __future__ import annotations

import pickle
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.ml import RandomForestClassifier
from repro.ml.kernel import ForestKernel
from repro.runtime.persistence import load_pipeline, pipeline_digest, save_pipeline


def oracle_predict_proba(state: dict, X) -> np.ndarray:
    """Mean class probabilities by walking the state arrays node by node.

    One float ``x <= threshold`` test per node (no rank quantisation, no
    level tables), every tree walked on its own from its ``offsets`` entry
    through its tree-local ``left`` / ``right`` indices, and the trees'
    leaf rows added in tree order — the addition order the kernel must
    reproduce to the last bit.
    """
    X = np.asarray(X, dtype=float)
    feature, threshold = state["feature"], state["threshold"]
    left, right, proba = state["left"], state["right"], state["proba"]
    roots = state["offsets"][:-1]
    total = np.zeros((X.shape[0], proba.shape[1]))
    for root in roots:
        node = np.full(X.shape[0], root)
        while True:
            rows = np.nonzero(feature[node] >= 0)[0]
            if not rows.size:
                break
            at = node[rows]
            go_left = X[rows, feature[at]] <= threshold[at]
            node[rows] = root + np.where(go_left, left[at], right[at])
        total += proba[node]
    return total / roots.size


def make_blobs(n_per_class=60, n_features=5, n_classes=3, seed=0, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_classes, n_features))
    X = np.vstack([
        centers[c] + rng.normal(scale=spread, size=(n_per_class, n_features))
        for c in range(n_classes)
    ])
    y = np.repeat(np.arange(n_classes), n_per_class)
    return X, y


@pytest.fixture(scope="module")
def small_forest():
    X, y = make_blobs(spread=1.2, seed=3)
    return RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y), X


# ---------------------------------------------------------------------------
# randomized equivalence sweep
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "n_features,n_classes,max_depth",
    [(3, 2, None), (8, 4, None), (5, 3, 4), (12, 5, 7)],
)
def test_kernel_matches_legacy_on_randomized_forests(
    seed, n_features, n_classes, max_depth
):
    """Random forests x random inputs: probabilities are bit-identical."""
    rng = np.random.default_rng(seed * 1000 + n_features)
    X, y = make_blobs(
        n_per_class=40,
        n_features=n_features,
        n_classes=n_classes,
        seed=seed,
        spread=1.0,
    )
    forest = RandomForestClassifier(
        n_estimators=25, max_depth=max_depth, random_state=seed
    ).fit(X, y)
    kernel, state = forest.kernel, forest.export_state()
    assert isinstance(kernel, ForestKernel)
    for n_rows in (1, 2, 13, 200, 1000):
        Q = rng.normal(size=(n_rows, n_features)) * rng.uniform(0.01, 50.0)
        expected = oracle_predict_proba(state, Q)
        got = kernel.predict_proba(Q)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    # inputs that sit exactly on training values hit the <=-boundary paths
    boundary = X[rng.integers(0, X.shape[0], size=64)]
    assert np.array_equal(
        kernel.predict_proba(boundary), oracle_predict_proba(state, boundary)
    )
    # ... and rows sitting exactly on split thresholds, feature by feature
    internal = state["feature"] >= 0
    picks = rng.integers(0, int(internal.sum()), size=64)
    on_threshold = rng.normal(size=(64, n_features))
    on_threshold[np.arange(64), state["feature"][internal][picks]] = state[
        "threshold"
    ][internal][picks]
    assert np.array_equal(
        kernel.predict_proba(on_threshold), oracle_predict_proba(state, on_threshold)
    )


def test_kernel_handles_non_finite_free_extremes(small_forest):
    """Huge magnitudes and exact threshold ties stay bit-identical."""
    forest, X = small_forest
    kernel = forest.kernel
    extremes = np.vstack([
        np.full((1, X.shape[1]), 1e300),
        np.full((1, X.shape[1]), -1e300),
        np.zeros((1, X.shape[1])),
        X.min(axis=0, keepdims=True),
        X.max(axis=0, keepdims=True),
    ])
    assert np.array_equal(
        kernel.predict_proba(extremes),
        oracle_predict_proba(forest.export_state(), extremes),
    )


def test_fitted_pipeline_forests_are_bit_identical(fitted_pipeline, rng):
    """All three deployment forests agree kernel-vs-oracle on random input."""
    classifiers = (
        fitted_pipeline.title_classifier,
        fitted_pipeline.activity_classifier,
        fitted_pipeline.pattern_classifier,
    )
    for classifier in classifiers:
        forest = classifier.model
        kernel, state = forest.kernel, forest.export_state()
        for n_rows in (1, 7, 300):
            Q = rng.normal(size=(n_rows, forest.n_features_)) * 40.0
            assert np.array_equal(
                kernel.predict_proba(Q), oracle_predict_proba(state, Q)
            )


def test_forest_predict_proba_delegates_to_kernel(small_forest):
    """``predict_proba`` is the cached kernel instance, called by attribute.

    ``benchmarks/e2e/tracing.py`` patches ``predict_proba`` on exactly that
    instance, so the forest must look it up there on every call.
    """
    forest, X = small_forest
    assert np.array_equal(
        forest.predict_proba(X), oracle_predict_proba(forest.export_state(), X)
    )
    assert forest.kernel is forest.kernel
    calls = []
    original = forest.kernel.predict_proba
    forest.kernel.predict_proba = lambda Q: calls.append(len(Q)) or original(Q)
    try:
        forest.predict_proba(X[:5])
    finally:
        del forest.kernel.predict_proba
    assert calls == [5]


# ---------------------------------------------------------------------------
# degenerate inputs
# ---------------------------------------------------------------------------
def test_kernel_single_row_fast_path(small_forest):
    """One row through the kernel equals the same row inside a batch."""
    forest, X = small_forest
    kernel = forest.kernel
    batch = kernel.predict_proba(X[:16])
    for index in range(16):
        single = kernel.predict_proba(X[index : index + 1])
        assert single.shape == (1, len(forest.classes_))
        assert np.array_equal(single[0], batch[index])


def test_kernel_rejects_empty_input(small_forest):
    forest, _ = small_forest
    with pytest.raises(ValueError, match="non-empty"):
        forest.kernel.predict_proba(np.empty((0, forest.n_features_)))


def test_kernel_rejects_feature_count_mismatch(small_forest):
    forest, _ = small_forest
    with pytest.raises(ValueError, match="features"):
        forest.kernel.predict_proba(np.zeros((4, forest.n_features_ + 1)))


# ---------------------------------------------------------------------------
# persistence: kernels compile straight from restored arrays
# ---------------------------------------------------------------------------
def test_loaded_pipeline_kernels_skip_tree_objects(
    fitted_pipeline, tmp_path, rng
):
    """Loading compiles kernels eagerly; loaded == fitted == oracle, bit for bit."""
    path = tmp_path / "model"
    save_pipeline(fitted_pipeline, path)
    loaded = load_pipeline(path)
    for classifier_name in (
        "title_classifier", "activity_classifier", "pattern_classifier"
    ):
        restored = getattr(loaded, classifier_name).model
        original = getattr(fitted_pipeline, classifier_name).model
        # the kernel was compiled eagerly from the flat npz arrays
        assert restored._kernel is not None
        Q = rng.normal(size=(11, original.n_features_)) * 25.0
        expected = oracle_predict_proba(original.export_state(), Q)
        assert np.array_equal(restored.predict_proba(Q), expected)
        assert np.array_equal(original.predict_proba(Q), expected)


def test_kernel_nbytes_counts_tables(small_forest):
    forest, _ = small_forest
    assert forest.kernel.nbytes() > 0


# ---------------------------------------------------------------------------
# the state arrays are the model
# ---------------------------------------------------------------------------
def test_fitted_and_restored_forests_are_the_same_kind_of_object(small_forest):
    """``fit`` and ``from_state`` leave the same attributes and the same bytes."""
    forest, X = small_forest
    twin = RandomForestClassifier.from_state(
        forest.export_state(),
        forest.classes_,
        forest.n_features_,
        params=forest.get_params(),
    )
    forest.kernel  # noqa: B018 - from_state compiles eagerly; compare like with like
    assert set(vars(twin)) == set(vars(forest))
    assert twin.get_params() == forest.get_params()
    assert not any("estimator" in name and name != "n_estimators" for name in vars(forest))
    fitted_bytes, twin_bytes = len(pickle.dumps(forest)), len(pickle.dumps(twin))
    assert abs(fitted_bytes - twin_bytes) <= 0.01 * fitted_bytes
    assert np.array_equal(twin.predict_proba(X), forest.predict_proba(X))
    assert np.array_equal(twin.feature_importances_, forest.feature_importances_)


def test_export_state_cannot_be_used_to_change_the_model(fitted_pipeline):
    """The exported arrays are the model itself, so they are read-only."""
    forest = fitted_pipeline.activity_classifier.model
    Q = np.random.default_rng(8).normal(size=(32, forest.n_features_)) * 20.0
    before = forest.predict_proba(Q)
    fitted_pipeline._digest = None
    digest = pipeline_digest(fitted_pipeline)
    state = forest.export_state()
    for key, value in state.items():
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
        state[key] = np.zeros_like(value)  # rebinding touches only the copy
    forest._kernel = None  # even a recompile sees the untouched arrays
    assert np.array_equal(forest.predict_proba(Q), before)
    fitted_pipeline._digest = None
    assert pipeline_digest(fitted_pipeline) == digest


# ---------------------------------------------------------------------------
# corrupt state: a ValueError at load, never a hang or a late IndexError
# ---------------------------------------------------------------------------
@contextmanager
def alarm(seconds: float):
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _first_internal(state) -> int:
    return int(np.nonzero(state["feature"] >= 0)[0][0])


def _right_to_root(state):
    state["right"][_first_internal(state)] = 0


def _right_out_of_range(state):
    state["right"][_first_internal(state)] = state["feature"].size + 7


def _feature_out_of_range(state):
    state["feature"][_first_internal(state)] = 10_000


def _truncated_proba(state):
    state["proba"] = state["proba"][:-3]


def _wrong_last_offset(state):
    state["offsets"][-1] += 2


def _nan_threshold(state):
    state["threshold"][_first_internal(state)] = np.nan


def _two_parents(state):
    # forward and in range, so not a cycle — but a DAG: the level frontier
    # of a chain of these doubles per level instead of looping forever
    splits = state["feature"] >= 0
    node = int(np.nonzero(splits[:-1] & splits[1:])[0][0])  # its left child splits too
    state["right"][node] = state["right"][node + 1]


CORRUPTIONS = [
    _right_to_root,
    _right_out_of_range,
    _feature_out_of_range,
    _truncated_proba,
    _wrong_last_offset,
    _nan_threshold,
    _two_parents,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_from_state_rejects_corrupt_arrays(small_forest, corrupt):
    forest, _ = small_forest
    state = {key: value.copy() for key, value in forest.export_state().items()}
    corrupt(state)
    with alarm(2.0), pytest.raises(ValueError, match="corrupt forest state"):
        RandomForestClassifier.from_state(state, forest.classes_, forest.n_features_)


def test_load_pipeline_rejects_a_tampered_npz(fitted_pipeline, tmp_path):
    """The hang this pins: one ``right`` pointing back at its tree's root."""
    path = save_pipeline(fitted_pipeline, tmp_path / "model")
    with np.load(path / "pipeline.npz") as archive:
        arrays = {key: archive[key] for key in archive.files}
    node = int(np.nonzero(arrays["activity__feature"] >= 0)[0][-1])
    arrays["activity__right"][node] = 0
    np.savez(path / "pipeline.npz", **arrays)
    with alarm(2.0), pytest.raises(ValueError, match="corrupt forest state"):
        load_pipeline(path)
