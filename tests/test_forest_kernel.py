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
from repro.runtime.persistence import (
    _forest_meta,
    _forest_params,
    load_pipeline,
    pipeline_digest,
    save_pipeline,
)


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
# the shapes the live path sends: one or two stage rows a tick, a handful of
# title rows, block edges — on forests built straight from state arrays
# ---------------------------------------------------------------------------
def synthetic_forest(n_trees, n_features, max_depth, seed, n_classes=3):
    """A forest written down as ``export_state()`` arrays, not fitted.

    Preorder trees that split everywhere above depth 3 and with probability
    0.9 below it, down to ``max_depth`` (so shallow leaves and pass-through
    chains occur); split features go round-robin over the forest and every
    threshold is its own float, which makes each feature's cut count
    ``kmax`` about ``internal nodes / n_features`` — the one number the
    rank rule turns on and a fitted toy forest cannot be steered to.
    """
    rng = np.random.default_rng(seed)
    feature, threshold, left, right, offsets = [], [], [], [], [0]
    n_internal = 0
    for _ in range(n_trees):
        base = len(feature)
        pending = [(0, None)]  # (depth, parent whose right child comes next)
        while pending:
            depth, parent = pending.pop()
            local = len(feature) - base
            if parent is not None:
                right[base + parent] = local
            if depth < max_depth and (depth < 3 or rng.random() < 0.9):
                feature.append(n_internal % n_features)
                threshold.append(rng.normal() * 4.0)
                left.append(local + 1)
                right.append(-1)  # set when the left subtree is written
                n_internal += 1
                pending.append((depth + 1, local))  # right, after ...
                pending.append((depth + 1, None))  # ... the whole left subtree
            else:
                feature.append(-1)
                threshold.append(0.0)
                left.append(local)
                right.append(local)
        offsets.append(len(feature))
    proba = rng.dirichlet(np.ones(n_classes), size=len(feature))
    state = {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "proba": proba,
        "offsets": np.array(offsets, dtype=np.int64),
    }
    kernel = ForestKernel.from_arrays(state, np.arange(n_classes), n_features)
    return kernel, state


@pytest.fixture(scope="module")
def narrow_forest():
    """4 features, thousands of cuts each: the stage forest's shape."""
    kernel, state = synthetic_forest(n_trees=40, n_features=4, max_depth=9, seed=5)
    assert kernel.BCAST_RANK_MAX_ROW_CUTS < kernel._kmax < 2**13
    assert kernel._pdtype == np.int16
    return kernel, state


@pytest.fixture(scope="module")
def wide_forest():
    """255 features, some tens of cuts each: the title forest's shape."""
    kernel, state = synthetic_forest(n_trees=100, n_features=255, max_depth=9, seed=6)
    # three rows sit on the broadcast side of the rank rule here, and on the
    # searchsorted side of the rows x features x kmax rule it replaced
    assert 65536 // (3 * 255) < kernel._kmax <= kernel.BCAST_RANK_MAX_ROW_CUTS // 3
    assert kernel._pdtype == np.int16
    return kernel, state


def _shape_cases(fitted_pipeline, narrow_forest, wide_forest):
    yield ("narrow",) + narrow_forest
    yield ("wide",) + wide_forest
    for name in ("title_classifier", "activity_classifier", "pattern_classifier"):
        forest = getattr(fitted_pipeline, name).model
        yield name, forest.kernel, forest.export_state()


def test_kernel_is_bit_identical_at_live_path_shapes(
    fitted_pipeline, narrow_forest, wide_forest
):
    """1–3 gate rows, both sides of every rank bound, both sides of a block."""
    rng = np.random.default_rng(19)
    for name, kernel, state in _shape_cases(fitted_pipeline, narrow_forest, wide_forest):
        block = kernel._block_rows
        bound = kernel.BCAST_RANK_MAX_ROW_CUTS // max(1, kernel._kmax)
        sizes = {1, 2, 3, 15, 16, 22, 23, 24, 64, block - 1, block, block + 1}
        sizes |= {max(1, bound), bound + 1}
        for n_rows in sorted(sizes):
            Q = rng.normal(size=(n_rows, kernel.n_features)) * 5.0
            got = kernel.predict_proba(Q)
            assert got.tobytes() == oracle_predict_proba(state, Q).tobytes(), (
                name, n_rows,
            )


def test_kernel_accepts_any_input_layout(fitted_pipeline, narrow_forest, wide_forest):
    """Strided, Fortran-ordered and 1-D inputs walk like a C-ordered copy."""
    rng = np.random.default_rng(23)
    for name, kernel, state in _shape_cases(fitted_pipeline, narrow_forest, wide_forest):
        base = rng.normal(size=(2 * 30, 2 * kernel.n_features)) * 5.0
        layouts = {
            "every other row and column": base[::2, ::2],
            "fortran": np.asfortranarray(base[:30, : kernel.n_features]),
            "reversed rows": base[:3, : kernel.n_features][::-1],
            "one strided row": base[7:8, ::2],
        }
        for layout, Q in layouts.items():
            expected = oracle_predict_proba(state, np.ascontiguousarray(Q))
            assert kernel.predict_proba(Q).tobytes() == expected.tobytes(), (name, layout)
        row = base[0, : kernel.n_features]
        assert (
            kernel.predict_proba(row).tobytes()
            == oracle_predict_proba(state, row[None, :]).tobytes()
        ), name


def test_rank_routines_agree_across_the_rows_by_cuts_bound(
    fitted_pipeline, narrow_forest, wide_forest
):
    """Broadcast and ``searchsorted`` ranks are the same bytes at the switch.

    Values on a cut, below every cut and above every cut are where a count
    of ``cut < x`` and a left bisection could part ways.
    """
    rng = np.random.default_rng(29)
    for name, kernel, _state in _shape_cases(fitted_pipeline, narrow_forest, wide_forest):
        bound = kernel.BCAST_RANK_MAX_ROW_CUTS // max(1, kernel._kmax)
        for n_rows in {1, 2, 3, max(1, bound), bound + 1, bound + 2}:
            X = rng.normal(size=(n_rows, kernel.n_features)) * 5.0
            for j, cuts in enumerate(kernel._cuts):
                if cuts.size:
                    special = np.concatenate((cuts, [cuts[0] - 1.0, cuts[-1] + 1.0]))
                    pick = rng.random(n_rows) < 0.7
                    X[pick, j] = rng.choice(special, size=int(pick.sum()))
            natural = kernel._rank(X)
            try:
                kernel.BCAST_RANK_MAX_ROW_CUTS = 2**62  # instance shadow: broadcast
                broadcast = kernel._rank(X)
                kernel.BCAST_RANK_MAX_ROW_CUTS = -1  # ... searchsorted
                bisected = kernel._rank(X)
            finally:
                del kernel.BCAST_RANK_MAX_ROW_CUTS
            assert natural.dtype == broadcast.dtype == bisected.dtype == kernel._pdtype
            assert natural.tobytes() == broadcast.tobytes() == bisected.tobytes(), (
                name, n_rows,
            )


def test_tree_major_accumulation_adds_in_tree_order(
    fitted_pipeline, narrow_forest, wide_forest
):
    """The tree-major sum is the bytes of the row-major fused reduce and of
    the per-tree loop, on both sides of the fused / loop switch."""
    rng = np.random.default_rng(41)
    for name, kernel, _state in _shape_cases(fitted_pipeline, narrow_forest, wide_forest):
        for n_rows in (1, 3, 97):
            Q = rng.normal(size=(n_rows, kernel.n_features)) * 5.0
            leaves = kernel._traverse(kernel._rank(Q))
            assert leaves.shape == (kernel.n_trees, n_rows)
            proba, n_trees = kernel.proba, kernel.n_trees
            # row-major: (rows, trees, classes) reduced over its strided axis
            row_major = np.add.reduce(proba.take(leaves.T, axis=0), axis=1) / n_trees
            loop = np.zeros((n_rows, kernel.n_classes))
            for tree in range(n_trees):
                loop += proba[leaves[tree]]
            loop /= n_trees
            assert row_major.tobytes() == loop.tobytes(), (name, n_rows)
            cells = leaves.size * kernel.n_classes
            try:
                for bound in (cells - 1, cells, cells + 1):
                    kernel.FUSED_ACCUM_MAX_CELLS = bound  # instance shadow
                    got = kernel._accumulate(leaves)
                    assert got.tobytes() == loop.tobytes(), (name, n_rows, bound - cells)
            finally:
                del kernel.FUSED_ACCUM_MAX_CELLS


# ---------------------------------------------------------------------------
# rank-space dedup: matrices of a few distinct rows, repeated and shuffled
# ---------------------------------------------------------------------------
def _rank_distinct_rows(kernel, n_distinct, rng):
    """``n_distinct`` rows whose rank vectors are pairwise distinct.

    Each value is drawn from one feature's cuts or just above its last one,
    so every rank cell of the forest can be hit.
    """
    values = [np.append(cuts, cuts[-1] + 1.0) if cuts.size else np.zeros(1)
              for cuts in kernel._cuts]
    candidates = np.column_stack(
        [rng.choice(v, size=n_distinct + n_distinct // 4 + 8) for v in values]
    )
    _, first = np.unique(kernel._rank(candidates), axis=0, return_index=True)
    assert first.size >= n_distinct, "the forest has too few rank cells"
    return candidates[np.sort(first)[:n_distinct]]


def _repeats(n_distinct, n_rows, rng):
    """``n_rows`` shuffled row picks that name every one of ``n_distinct`` rows."""
    picks = np.concatenate(
        (np.arange(n_distinct), rng.integers(0, n_distinct, size=n_rows - n_distinct))
    )
    return rng.permutation(picks)


def test_dedup_walks_only_distinct_rank_rows_and_keeps_the_bytes(
    fitted_pipeline, small_forest, narrow_forest, wide_forest, monkeypatch
):
    """Both sides of the row bounds and of the probe length, at a few distinct
    rows, at exactly half distinct (the ``2 * unique <= rows`` edge) and one
    past it: the kernel walks the distinct rows exactly when the rule says
    so, and every answer is the oracle's bytes."""
    rng = np.random.default_rng(43)
    forest, _ = small_forest
    cases = list(_shape_cases(fitted_pipeline, narrow_forest, wide_forest))
    cases.append(("small", forest.kernel, forest.export_state()))
    for name, kernel, state in cases:
        walked = []
        traverse = kernel._traverse

        def spy(ranks, traverse=traverse, walked=walked):
            walked.append(ranks.shape[0])
            return traverse(ranks)

        monkeypatch.setattr(kernel, "_traverse", spy)
        low, probe, high = kernel.DEDUP_MIN_ROWS, kernel.DEDUP_PROBE_ROWS, kernel.DEDUP_MAX_ROWS
        for n_rows in (low - 1, low, probe, probe + 1, 4 * probe, high, high + 1):
            for n_distinct in (3, n_rows // 2, n_rows // 2 + 1):
                distinct = _rank_distinct_rows(kernel, n_distinct, rng)
                picks = _repeats(n_distinct, n_rows, rng)
                walked.clear()
                got = kernel.predict_proba(distinct[picks])
                # the oracle walks each row on its own: its rows for the
                # distinct inputs, repeated, are its answer for the matrix
                expected = oracle_predict_proba(state, distinct)[picks]
                assert got.tobytes() == expected.tobytes(), (name, n_rows, n_distinct)
                # past the probe, the leading rows decide whether to sort
                head = picks[:probe]
                taken = (
                    low <= n_rows <= high
                    and kernel.n_features <= kernel.DEDUP_MAX_FEATURES
                    and (n_rows <= probe or 2 * np.unique(head).size <= head.size)
                    and 2 * n_distinct <= n_rows
                )
                assert walked == [n_distinct if taken else n_rows], (
                    name, n_rows, n_distinct,
                )
        monkeypatch.undo()


def test_dedup_probe_sorts_only_what_can_repeat(fitted_pipeline, monkeypatch):
    """The rows each ``np.unique`` sorts, and the rows each walk takes.

    A near-unique stage-shaped matrix (one repeat in 32 rows) sorts all its
    keys up to the probe length and only the probe past it, and walks every
    row either way; a pattern-shaped matrix (a few rows, each repeated over
    a run of slots) sorts the probe and then every key, and walks its
    distinct rows.  Every answer is the oracle's bytes.
    """
    rng = np.random.default_rng(47)
    sorted_rows, walked = [], []
    unique = np.unique

    def count_unique(keys, *args, **kwargs):
        sorted_rows.append(keys.shape[0])
        return unique(keys, *args, **kwargs)

    monkeypatch.setattr(np, "unique", count_unique)
    stage = fitted_pipeline.activity_classifier.model
    pattern = fitted_pipeline.pattern_classifier.model
    probe = stage.kernel.DEDUP_PROBE_ROWS
    cases = []
    for n_rows in (probe, probe + 1, 10 * probe):
        n_distinct = n_rows - n_rows // 32
        picks = rng.permutation(
            np.concatenate((np.arange(n_distinct), np.arange(n_rows - n_distinct)))
        )
        expected_sorts = [n_rows] if n_rows <= probe else [probe]
        cases.append((stage, n_distinct, picks, expected_sorts, n_rows))
    n_rows = 10 * probe
    picks = np.repeat(np.arange(3), [n_rows // 2, n_rows // 4, n_rows - 3 * (n_rows // 4)])
    cases.append((pattern, 3, picks, [probe, n_rows], 3))
    for forest, n_distinct, picks, expected_sorts, expected_walk in cases:
        kernel = forest.kernel
        distinct = _rank_distinct_rows(kernel, n_distinct, rng)

        def spy(ranks, kernel=kernel):
            walked.append(ranks.shape[0])
            return type(kernel)._traverse(kernel, ranks)

        monkeypatch.setattr(kernel, "_traverse", spy)
        sorted_rows.clear()
        walked.clear()
        got = kernel.predict_proba(distinct[picks])
        assert (sorted_rows, walked) == (expected_sorts, [expected_walk]), (
            kernel.n_features, picks.size,
        )
        monkeypatch.setattr(np, "unique", unique)
        expected = oracle_predict_proba(forest.export_state(), distinct)[picks]
        monkeypatch.setattr(np, "unique", count_unique)
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# cost as a count: each repeats exactly, where a timing would not
# ---------------------------------------------------------------------------
def test_three_wide_rows_rank_in_one_comparison(wide_forest, profile_events):
    """A title-gate matrix must not pay one ``searchsorted`` call per feature."""
    kernel, _state = wide_forest
    Q = np.random.default_rng(31).normal(size=(3, kernel.n_features))
    assert profile_events(lambda: kernel.predict_proba(Q)) < kernel.n_features


def test_one_narrow_row_allocates_no_comparison_cube(narrow_forest, alloc_peak):
    """A stage-gate row must not be compared against every padded cut."""
    kernel, _state = narrow_forest
    Q = np.random.default_rng(37).normal(size=(1, kernel.n_features))
    kernel.predict_proba(Q)  # anything lazy is allocated before the measurement
    assert alloc_peak(lambda: kernel.predict_proba(Q)) < kernel.n_features * kernel._kmax


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


#: The stage forest's compiled bytes on the scenario pipeline: the default 20
#: trees x depth 8 take 78 860, the 100 x 10 before them 525 896.  Growing the
#: default is a decision for the frontier (DESIGN.md §11 "Forest sizes").
STAGE_KERNEL_BUDGET_BYTES = 100_000


def test_stage_forest_stays_inside_its_byte_budget(fitted_pipeline):
    assert fitted_pipeline.activity_classifier.model.kernel.nbytes() <= STAGE_KERNEL_BUDGET_BYTES


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
        params=_forest_params(_forest_meta(forest, "test")),
    )
    forest.kernel  # noqa: B018 - from_state compiles eagerly; compare like with like
    assert set(vars(twin)) == set(vars(forest))
    assert _forest_meta(twin, "test") == _forest_meta(forest, "test")
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
