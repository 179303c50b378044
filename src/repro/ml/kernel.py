"""The forest walk: rank-quantised level tables compiled from the state arrays.

A fitted :class:`~repro.ml.forest.RandomForestClassifier` *is* its
:meth:`~repro.ml.forest.RandomForestClassifier.export_state` arrays
(concatenated preorder nodes, the ``pipeline.npz`` layout).  Walking those
directly means one float comparison and three gathers from parallel
float64/int64 arrays per node.  :class:`ForestKernel` compiles them **once**
into a fused structure that gives the probabilities of that node-by-node
walk to the last bit:

* **rank quantization** — per feature ``j``, the sorted unique split
  thresholds ``S_j`` of the whole forest are extracted at compile time.
  For any sample value ``x`` and threshold ``t ∈ S_j``,
  ``x <= t  ⇔  searchsorted(S_j, x, 'left') <= searchsorted(S_j, t,
  'left')`` — an exact integer equivalence, so traversal never touches a
  float again.  Ranks, features and rank bounds fit int16 for every
  realistic forest, quartering the memory traffic of the per-level gathers;
* **level decision tables** — the arena is re-laid out breadth-first with
  *pass-through chains* padding shallow leaves, so depth ``d`` of every
  tree lives in three contiguous tables indexed by slot: ``feat`` and
  ``thr`` (the split feature and its threshold's rank, int16) and
  ``lchild`` (intp).  Children of slot ``i`` are adjacent (``lchild[i]``
  and ``lchild[i] + 1``), collapsing the
  ``where(go_left, cur + 1, right.take(cur))`` select into a single
  integer add.  A leaf/chain slot holds feature 0 with rank bound
  ``kmax``: every rank is ``<= kmax``, so the test always routes left and
  the slot self-propagates to depth ``D``, where ``leafmap`` resolves the
  surviving slot to its probability row;
* **one flat walk** — the cursor is a flat tree-major ``(trees x rows,)``
  intp vector, so a level is five calls whatever the matrix:
  ``feat.take(cur)``, the row offset into the flattened ranks (skipped for
  a single row), ``ranks.take(feat) > thr.take(cur)``, ``lchild.take(cur)``
  and the add.  A one-row stage-gate call and a 20 000-row corpus call run
  the same lines; only the vector length differs;
* **rank-space memoization** — rows with equal rank vectors traverse
  every tree identically, so a low-dimensional batch of
  ``DEDUP_MIN_ROWS``–``DEDUP_MAX_ROWS`` rows (the stage/pattern forests see
  4- and 9-feature matrices) is keyed by one 1-D ``np.unique`` of its C-contiguous rank
  rows viewed as ``np.void`` bytes, and walks only the distinct rows when
  at most half are distinct, scattering their results back.  A batch
  longer than ``DEDUP_PROBE_ROWS`` sorts its keys only when its first
  ``DEDUP_PROBE_ROWS`` rows are at most half distinct: the pattern
  forest's prefix rows repeat from the first slot on (1–3 distinct of
  48–64 on the corpus), the stage forest's 600–800-row chunks are ~97 %
  distinct from their first rows on, and the probe's sort costs a tenth
  of the whole matrix's;
* **adaptive accumulation** — the per-tree probability sum uses the fused
  3-D ``np.add.reduce(proba[leaves], axis=0)`` for small outputs and the
  full-width per-tree loop for large ones.  Both add the same floats in
  the same per-element sequence, tree 0 first (a reduce over the outer
  axis adds whole rows one after another, never pairwise), so the choice
  affects time only.

Every optimisation is exact: ``tests/test_forest_kernel.py`` asserts
byte-equal outputs against a node-by-node float walk of the same arrays
(the oracle at the top of that file) on randomized and real fitted forests.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_Xy

__all__ = ["ForestKernel"]


class ForestKernel:
    """Fused inference structure compiled from one forest's state arrays.

    :meth:`from_arrays` is the one builder: it validates the
    :meth:`RandomForestClassifier.export_state` layout (so a corrupt
    ``pipeline.npz`` is a ``ValueError`` at load, never a hang or an
    ``IndexError`` in the first predict) and compiles the rank tables and
    BFS level layout described in the module docstring.
    :meth:`predict_proba` then serves the forest's ``predict_proba``
    contract — same validation errors, probabilities bit-identical to a
    node-by-node walk of the arrays.  Only the tables and the leaf
    probability rows are kept; the node arrays stay with the forest.
    """

    #: attempt rank-space dedup only inside this row range.  The void-key
    #: sort costs ~17-20 us up to 64 rows; from 32 rows, walking only half
    #: of them saves ~14 us on the 20-tree stage forest and ~120 us on the
    #: 100-tree pattern forest (the live stage gate's 1-24-row tick calls
    #: never sort).  Above the upper bound the sort outgrows the traversal
    #: it could save (the big matrices are near-unique anyway)
    DEDUP_MIN_ROWS = 32
    DEDUP_MAX_ROWS = 4096
    #: a longer batch sorts all its keys only when this many leading rows
    #: are at most half distinct: a near-unique matrix pays one probe-sized
    #: sort, not one the size of the walk it cannot save
    DEDUP_PROBE_ROWS = 64
    #: ... and only for low-dimensional forests, where equal rank vectors
    #: are actually likely (the 255-feature title matrix never collides)
    DEDUP_MAX_FEATURES = 32
    #: output cells (rows x trees x classes) below which the fused 3-D
    #: reduce beats the full-width per-tree accumulation loop
    FUSED_ACCUM_MAX_CELLS = 262144
    #: traversal block target (rows x trees cells): keeps the per-level
    #: gather working set cache-resident on corpus-scale inputs
    BLOCK_CELLS = 65536
    #: rows x kmax below which one fused broadcast comparison beats
    #: per-feature searchsorted calls, whatever the width: the broadcast
    #: costs ~0.85 ns per (row, cut) per feature, a searchsorted call
    #: ~0.85 us per feature
    BCAST_RANK_MAX_ROW_CUTS = 1024

    @classmethod
    def from_arrays(cls, arrays: dict, classes, n_features: int) -> "ForestKernel":
        """Validate :meth:`RandomForestClassifier.export_state` arrays and compile.

        ``arrays`` uses the persistence layout: concatenated preorder node
        arrays with tree-local child indices, ``-1`` features and
        self-indexing children on leaves, ``offsets`` delimiting trees.
        Everything is a handful of vectorised passes — no per-node Python,
        which is what keeps ``load_pipeline`` cold starts cheap.  Raises
        ``ValueError("corrupt forest state: ...")`` for arrays no fitted
        forest can export.
        """

        def require(ok, why: str) -> None:
            if not ok:
                raise ValueError(f"corrupt forest state: {why}")

        feature = np.asarray(arrays["feature"], dtype=np.int64)
        threshold = np.asarray(arrays["threshold"], dtype=float)
        left = np.asarray(arrays["left"], dtype=np.int64)
        right = np.asarray(arrays["right"], dtype=np.int64)
        proba = np.asarray(arrays["proba"], dtype=float)
        offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        n_nodes = feature.size
        require(
            feature.shape == threshold.shape == left.shape == right.shape == (n_nodes,),
            "node arrays differ in length",
        )
        require(
            offsets.ndim == 1
            and offsets.size >= 2
            and offsets[0] == 0
            and offsets[-1] == n_nodes
            and (np.diff(offsets) > 0).all(),
            f"offsets must rise strictly from 0 to the node count {n_nodes}",
        )
        sizes = np.diff(offsets)
        require(
            proba.shape == (n_nodes, len(classes)),
            f"proba has shape {proba.shape}, expected {(n_nodes, len(classes))}",
        )
        shift = np.repeat(offsets[:-1], sizes)
        local = np.arange(n_nodes) - shift  # tree-local, like the child indices
        leaf = feature < 0
        internal = ~leaf
        require(
            (left == np.where(leaf, local, local + 1)).all(),
            "left is not the next preorder node (on a leaf: the leaf itself)",
        )
        # preorder => both children lie ahead inside the same tree => no cycle
        ahead = (right > local + 1) & (right < np.repeat(sizes, sizes))
        require(
            np.where(leaf, right == local, ahead).all(),
            "right is outside (index + 1, tree end) (on a leaf: not the leaf itself)",
        )
        # ... and one parent each => a tree, not a DAG whose level frontier
        # (the compile loop below) could double per level
        splits = np.flatnonzero(internal)
        right = right + shift  # tree-local -> arena index
        parents = np.bincount(
            np.concatenate((splits + 1, right[splits], offsets[:-1])),
            minlength=n_nodes,
        )
        require((parents == 1).all(), "a node hangs off two parents or none")
        require(
            (feature < n_features).all(),
            f"a split feature is outside [0, {n_features})",
        )
        require(
            np.isfinite(threshold[splits]).all(), "a split threshold is not finite"
        )
        return cls(feature, threshold, right, internal, proba, offsets[:-1], n_features)

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        right: np.ndarray,
        internal: np.ndarray,
        proba: np.ndarray,
        roots: np.ndarray,
        n_features: int,
    ) -> None:
        """Compile a validated arena (global ``right``); use :meth:`from_arrays`."""
        self.n_features = n_features = int(n_features)
        self.n_trees = int(roots.size)
        self.n_classes = int(proba.shape[1])
        self.proba = np.ascontiguousarray(proba, dtype=float)

        # per-feature sorted unique thresholds + per-node rank positions
        cuts = []
        tpos = np.zeros(feature.size, dtype=np.int64)
        for j in range(n_features):
            mask = internal & (feature == j)
            unique_cuts = np.unique(threshold[mask])
            cuts.append(unique_cuts)
            if mask.any():
                tpos[mask] = np.searchsorted(
                    unique_cuts, threshold[mask], side="left"
                )
        self._cuts = cuts
        kmax = max((c.size for c in cuts), default=0)
        self._kmax = kmax
        pad = np.full((n_features, max(1, kmax)), np.inf)
        for j, unique_cuts in enumerate(cuts):
            pad[j, : unique_cuts.size] = unique_cuts
        self._cuts_pad = pad

        # int16 tables and ranks while kmax x n_features (rounded up to a
        # power of two) stays under 2**15: both fit with room to spare, and
        # the int16 row offsets of _traverse still span blocks of >= kmax rows
        fbits = max(1, int(np.ceil(np.log2(max(2, n_features)))))
        pdtype = (
            np.int16
            if (kmax << fbits) | (n_features - 1) < 2**15
            else np.int32
        )
        self._pdtype = pdtype

        # BFS re-layout with pass-through chains: iterate level frontiers
        # until every slot is a leaf; depth falls out of the loop count
        levels = []
        frontier = roots.astype(np.int64)
        while internal[frontier].any():
            is_internal = internal[frontier]
            n_children = np.where(is_internal, 2, 1)
            child_pos = np.concatenate(([0], np.cumsum(n_children)))[:-1]
            levels.append(
                (
                    # leaf/chain slot: feature 0 with rank bound kmax — every
                    # rank is <= kmax, so it always routes left (self-propagates)
                    np.where(is_internal, feature[frontier], 0).astype(pdtype),
                    np.where(is_internal, tpos[frontier], kmax).astype(pdtype),
                    # children adjacent: gather stays intp end-to-end (np.take
                    # converts any other index dtype on every call)
                    child_pos.astype(np.intp),
                )
            )
            nxt = np.empty(int(n_children.sum()), dtype=np.int64)
            nxt[child_pos[is_internal]] = frontier[is_internal] + 1
            nxt[child_pos[is_internal] + 1] = right[frontier[is_internal]]
            nxt[child_pos[~is_internal]] = frontier[~is_internal]
            frontier = nxt
        self._levels = levels  # per depth: (feat, thr, lchild) by slot
        self._leafmap = frontier  # depth-D slot -> probability row
        self.depth = len(levels)
        self._root_slots = np.arange(self.n_trees, dtype=np.intp)
        # rows per traversal block: a cache-sized cursor ...
        block = max(64, self.BLOCK_CELLS // max(1, self.n_trees))
        if pdtype == np.int16:
            # ... whose row_base = row * n_features stays inside int16
            block = min(block, (2**15 - 1) // max(1, n_features))
        self._block_rows = block

    # ------------------------------------------------------------ ranking
    def _rank(self, X: np.ndarray) -> np.ndarray:
        if X.shape[0] * self._kmax <= self.BCAST_RANK_MAX_ROW_CUTS:
            # rank = #{cut < x}; +inf padding never counts for finite x
            return np.add.reduce(
                self._cuts_pad[None, :, :] < X[:, :, None], axis=2, dtype=self._pdtype
            )
        ranks = np.empty(X.shape, dtype=self._pdtype)
        for j, cuts in enumerate(self._cuts):
            # the method: np.searchsorted's wrapper doubles a call this small
            ranks[:, j] = cuts.searchsorted(X[:, j])  # side="left"
        return ranks

    # ---------------------------------------------------------- traversal
    def _traverse(self, ranks: np.ndarray) -> np.ndarray:
        """Leaf probability-row ids, tree-major: shape ``(n_trees, n_rows)``."""
        n_rows, n_features = ranks.shape
        n_trees = self.n_trees
        out = np.empty((n_trees, n_rows), dtype=np.intp)
        block = self._block_rows
        for start in range(0, n_rows, block):
            sub = ranks[start : start + block]
            m = sub.shape[0]
            rank_flat = sub.ravel()
            cur = np.repeat(self._root_slots, m)
            if m > 1:
                row_base = np.tile(np.arange(m, dtype=self._pdtype) * n_features, n_trees)
            for feat_of, thr_of, lchild_of in self._levels:
                feat = feat_of.take(cur)
                if m > 1:
                    feat += row_base
                go_right = rank_flat.take(feat) > thr_of.take(cur)
                cur = lchild_of.take(cur)
                cur += go_right
            out[:, start : start + m] = self._leafmap.take(cur).reshape(n_trees, m)
        return out

    # ------------------------------------------------------- accumulation
    def _accumulate(self, leaves: np.ndarray) -> np.ndarray:
        n_trees, n_rows = leaves.shape
        proba = self.proba
        if n_rows * n_trees * self.n_classes <= self.FUSED_ACCUM_MAX_CELLS:
            # a reduce over the outer axis adds whole rows in tree order —
            # the same per-element sequence as the loop below (a reduce over
            # the contiguous axis would be pairwise, NOT bit-identical)
            total = np.add.reduce(proba.take(leaves, axis=0), axis=0)
        else:
            total = proba.take(leaves[0], axis=0)
            for tree in range(1, n_trees):
                total += proba.take(leaves[tree], axis=0)
        return total / n_trees

    # ----------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        """Mean class probabilities over all trees."""
        X, _ = check_Xy(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        ranks = self._rank(X)
        n_rows = ranks.shape[0]
        if (
            self.DEDUP_MIN_ROWS <= n_rows <= self.DEDUP_MAX_ROWS
            and X.shape[1] <= self.DEDUP_MAX_FEATURES
        ):
            # one 1-D sort of each C-contiguous rank row's bytes as a key
            keys = ranks.view(np.dtype((np.void, ranks.itemsize * ranks.shape[1]))).ravel()
            probe = keys[: self.DEDUP_PROBE_ROWS]
            if probe.size == n_rows or 2 * np.unique(probe).size <= probe.size:
                _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
                if 2 * first.size <= n_rows:
                    return self._accumulate(self._traverse(ranks[first]))[inverse]
        return self._accumulate(self._traverse(ranks))

    # ------------------------------------------------------------- sizing
    def nbytes(self) -> int:
        """Bytes the kernel reads (``proba`` is the forest's array, not a copy)."""
        tables = sum(table.nbytes for level in self._levels for table in level)
        return int(
            tables
            + self._leafmap.nbytes
            + self._cuts_pad.nbytes
            + sum(c.nbytes for c in self._cuts)
            + self.proba.nbytes
        )
