"""Benchmark: the compiled forest kernel on the corpus's real workload.

Replays the *real* forest workload of the shared >=100-session deployment
corpus (``benchmarks/conftest.py``): the three fitted forests' input
matrices are captured by spying on ``RandomForestClassifier.predict_proba``
during an actual ``pipeline.process_many`` run, then each shape the runtime
produces is timed on :class:`~repro.ml.kernel.ForestKernel`:

* **batch** — every forest's full stacked corpus matrix in one call (the
  offline ``process_many`` shape);
* **stream** — the stage forest chunked into feed-tick-sized slices plus
  one close-time call (the :class:`~repro.runtime.engine.StreamingEngine`
  shape);
* **single-row** — per-session one-row calls against all three forests
  (the per-flow gate shape).

Timings only: that the kernel's probabilities equal a node-by-node walk of
the state arrays to the last bit is pinned by ``tests/test_forest_kernel.py``.
``compile_s`` times the one builder (validation included) on all three
forests, ``kernel_state_bytes`` is what the compiled tables retain.

``--frontier`` sweeps each gate's forest over the paper's tuning grid
(Fig. 14/15) and the smaller points below it: for every (trees, depth) the
held-out ``title_acc`` / ``stage_acc`` of the ``benchmarks/e2e`` workloads,
the kernel µs per call at the workloads' rows per call and
``kernel_state_bytes``; then, per gate, the smallest point inside the
accuracy bounds.  A default must also keep the scenario matrix inside its
bands (``python -m repro.experiments.scenario_matrix --quick --check
SCENARIO_MATRIX.json``) and the pattern gate's time to first inference,
which this sweep does not measure (DESIGN.md §11 "Forest sizes").

Run standalone::

    PYTHONPATH=src python benchmarks/bench_forest_kernel.py
    PYTHONPATH=src python benchmarks/bench_forest_kernel.py --frontier  # ~15 min

``scripts/perf_smoke.py`` imports :func:`run_benchmark` to record the
results (full runs and the ``--quick`` tier-2 gate).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
BENCH_DIR = str(Path(__file__).resolve().parent)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from conftest import build_deployment_corpus, fit_deployment_pipeline  # noqa: E402
from repro.ml.forest import RandomForestClassifier  # noqa: E402
from repro.ml.kernel import ForestKernel  # noqa: E402

#: Rows per chunk of the streaming-shaped stage trace (the live feed ticks
#: classify the newly completed slots of ~24 concurrent sessions per batch).
STREAM_CHUNK_ROWS = 24
STREAM_N_CHUNKS = 195
#: Close-time calls classify a whole session backlog in one pass.
STREAM_CLOSE_ROWS = 4816
#: Single-row gate calls per forest (one per corpus session).
N_SINGLE_ROW_CALLS = 104

#: The paper's grid (``n_estimators`` 50-500 x ``max_depth`` 5/10/30/None)
#: and the smaller points below it.
FRONTIER_TREES = (20, 30, 50, 100, 300, 500)
FRONTIER_DEPTHS = (5, 6, 8, 10, 30, None)
#: Rows per forest call of tap_small_ticks, live_single and corpus_batch.
FRONTIER_CALL_ROWS = (1, 36, 238)
#: live_sharded's reports are live_single's (the sharded identity contract).
FRONTIER_WORKLOADS = ("corpus_batch", "live_single", "tap_small_ticks")
FRONTIER_SEEDS = (7, 13)
#: A point is inside the bounds when, on every workload and seed, its
#: title_acc is no lower than the default's and its stage_acc (and the
#: corpus pattern accuracy) at most this much lower.
FRONTIER_SLACK = 0.005


def _timeit(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _capture_forest_inputs(pipeline, corpus):
    """The stacked input matrix each forest saw during ``process_many``."""
    names = {
        id(pipeline.title_classifier.model): "title",
        id(pipeline.activity_classifier.model): "stage",
        id(pipeline.pattern_classifier.model): "pattern",
    }
    captured = {"title": [], "stage": [], "pattern": []}
    original = RandomForestClassifier.predict_proba

    def spy(self, X):
        name = names.get(id(self))
        if name is not None:
            captured[name].append(np.array(X, dtype=float))
        return original(self, X)

    RandomForestClassifier.predict_proba = spy
    try:
        pipeline.process_many(corpus)
    finally:
        RandomForestClassifier.predict_proba = original
    return {name: np.vstack(mats) for name, mats in captured.items()}


def _forests(pipeline):
    return {
        "title": pipeline.title_classifier.model,
        "stage": pipeline.activity_classifier.model,
        "pattern": pipeline.pattern_classifier.model,
    }


def _workload_times(forests, kernels, matrices):
    """(per_forest, totals) of the three-component workload."""
    per_forest = {}

    # batch: each forest's full corpus matrix in one call
    for name, forest in forests.items():
        X = matrices[name]
        per_forest[name] = {
            "n_rows": int(X.shape[0]),
            "n_features": int(forest.n_features_),
            "n_trees": int(forest.n_estimators),
            "batch_kernel_s": _timeit(lambda k=kernels[name], X=X: k.predict_proba(X)),
        }

    # stream: the stage forest in feed-tick chunks + one close-time call
    stage_X = matrices["stage"]
    chunks = [
        stage_X[start : start + STREAM_CHUNK_ROWS]
        for start in range(0, STREAM_CHUNK_ROWS * STREAM_N_CHUNKS, STREAM_CHUNK_ROWS)
        if start < stage_X.shape[0]
    ]
    chunks.append(stage_X[:STREAM_CLOSE_ROWS])
    stage_kernel = kernels["stage"]
    stream_kernel_s = _timeit(
        lambda: [stage_kernel.predict_proba(c) for c in chunks], repeats=3
    )

    # single-row: per-session gate calls against every forest
    single_kernel_s = 0.0
    for name, kernel in kernels.items():
        X = matrices[name]
        rows = [
            X[index % X.shape[0] : index % X.shape[0] + 1]
            for index in range(N_SINGLE_ROW_CALLS)
        ]
        single_kernel_s += _timeit(
            lambda k=kernel, rows=rows: [k.predict_proba(r) for r in rows],
            repeats=3,
        )

    totals = {
        "stream_kernel_s": stream_kernel_s,
        "single_row_kernel_s": single_kernel_s,
        "workload_kernel_s": stream_kernel_s
        + single_kernel_s
        + sum(row["batch_kernel_s"] for row in per_forest.values()),
    }
    return per_forest, totals


def run_benchmark(corpus=None, pipeline=None) -> dict:
    """Time the compiled kernel on the corpus's captured forest inputs."""
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    matrices = _capture_forest_inputs(pipeline, corpus)
    forests = _forests(pipeline)

    kernels = {}
    compile_s = 0.0
    for name, forest in forests.items():
        start = time.perf_counter()
        kernels[name] = ForestKernel.from_arrays(
            forest.export_state(), forest.classes_, forest.n_features_
        )
        compile_s += time.perf_counter() - start

    per_forest, totals = _workload_times(forests, kernels, matrices)
    return {
        "n_sessions": len(corpus),
        "compile_s": compile_s,
        "kernel_state_bytes": sum(kernel.nbytes() for kernel in kernels.values()),
        "per_forest": per_forest,
        **totals,
    }


# ---------------------------------------------------------------------------
# the accuracy / cost frontier
# ---------------------------------------------------------------------------
def _fit_keeping_training_sets(corpus):
    """The deployment pipeline, plus the ``(X, y)`` each forest was fitted on."""
    captured = {}
    original = RandomForestClassifier.fit

    def spy(self, X, y):
        captured[id(self)] = (X, y)
        return original(self, X, y)

    RandomForestClassifier.fit = spy
    try:
        pipeline = fit_deployment_pipeline(corpus)
    finally:
        RandomForestClassifier.fit = original
    return pipeline, {name: captured[id(f)] for name, f in _forests(pipeline).items()}


def _first_trees(forest, n_trees):
    """The forest's first ``n_trees`` trees, as a fitted forest.

    Bit for bit what ``fit`` grows with ``n_estimators=n_trees``: tree ``i``
    draws its seed and bootstrap from the forest's generator in turn, so a
    larger forest extends every smaller one.
    """
    state = forest.export_state()
    offsets = state["offsets"][: n_trees + 1]
    importances = state["tree_importances"][:n_trees]
    arrays = {
        **{key: state[key][: offsets[-1]] for key in ("feature", "threshold", "left", "right")},
        "proba": state["proba"][: offsets[-1]],
        "offsets": offsets,
        "tree_importances": importances,
        "forest_importances": np.mean(importances, axis=0),
    }
    params = {
        "n_estimators": n_trees, "max_depth": forest.max_depth, "random_state": forest.random_state,
    }
    return RandomForestClassifier.from_state(arrays, forest.classes_, forest.n_features_, params)


def _frontier_point(pipeline, forest, X, inputs) -> dict:
    """Cost and held-out accuracy of the pipeline with one gate's forest swapped."""
    import oracle

    kernel, call_us = forest.kernel, {}
    for rows in FRONTIER_CALL_ROWS:
        block, calls = X[:rows], max(10, 200 // rows)
        best = _timeit(lambda: [kernel.predict_proba(block) for _ in range(calls)], repeats=3)
        call_us[str(rows)] = round(best / calls * 1e6, 1)
    point = {
        "trees": forest.n_estimators,
        "depth": forest.max_depth,
        "kernel_state_bytes": kernel.nbytes(),
        "call_us": call_us,
        "title_acc": {},
        "stage_acc": {},
    }
    slot_s = pipeline.activity_classifier.slot_duration
    for (name, seed), workload in inputs.items():
        reports = pipeline.process_many(workload.sessions)
        key = f"{name}@{seed}"
        point["title_acc"][key], point["stage_acc"][key] = oracle.accuracy(
            workload.labels, reports, slot_s
        )
        if name == "corpus_batch" and seed == FRONTIER_SEEDS[0]:
            point["pattern_acc"] = float(np.mean([
                report.pattern.pattern is label.pattern
                for report, label in zip(reports, workload.labels)
            ]))
    return point


def _inside_bounds(point: dict, default: dict) -> bool:
    return point["pattern_acc"] >= default["pattern_acc"] - FRONTIER_SLACK and all(
        point["title_acc"][key] >= default["title_acc"][key]
        and point["stage_acc"][key] >= default["stage_acc"][key] - FRONTIER_SLACK
        for key in default["title_acc"]
    )


def run_frontier(corpus=None) -> dict:
    """Sweep every gate's forest over the grid; the smallest point inside the bounds.

    One gate moves at a time, the other two keep the forests the pipeline's
    defaults fit; the default point itself is one of the grid's rows.
    """
    e2e_dir = str(Path(BENCH_DIR) / "e2e")  # the workloads' inputs and oracle
    if e2e_dir not in sys.path:
        sys.path.insert(0, e2e_dir)
    import workloads

    if corpus is None:
        corpus = build_deployment_corpus()
    pipeline, training = _fit_keeping_training_sets(corpus)
    matrices = _capture_forest_inputs(pipeline, corpus)
    classifiers = {
        "title": pipeline.title_classifier,
        "stage": pipeline.activity_classifier,
        "pattern": pipeline.pattern_classifier,
    }
    gates = {}
    with tempfile.TemporaryDirectory() as out:
        inputs = {
            (name, seed): workloads.prepare(name, seed, Path(out))
            for name in FRONTIER_WORKLOADS
            for seed in FRONTIER_SEEDS
        }
        for gate, classifier in classifiers.items():
            deployed = classifier.model
            points = []
            for depth in FRONTIER_DEPTHS:
                grown = RandomForestClassifier(
                    n_estimators=max(FRONTIER_TREES), max_depth=depth,
                    random_state=deployed.random_state,
                ).fit(*training[gate])
                for n_trees in FRONTIER_TREES:
                    forest = classifier.model = _first_trees(grown, n_trees)
                    points.append(_frontier_point(pipeline, forest, matrices[gate], inputs))
            classifier.model = deployed
            default = next(
                p for p in points
                if (p["trees"], p["depth"]) == (deployed.n_estimators, deployed.max_depth)
            )
            smallest = min(
                (p for p in points if _inside_bounds(p, default)),
                key=lambda p: p["kernel_state_bytes"],
            )
            gates[gate] = {
                "default": [default["trees"], default["depth"]],
                "smallest_inside_bounds": [smallest["trees"], smallest["depth"]],
                "points": points,
            }
    return {"n_sessions": len(corpus), "slack": FRONTIER_SLACK, "gates": gates}


if __name__ == "__main__":
    run = run_frontier if "--frontier" in sys.argv[1:] else run_benchmark
    print(json.dumps(run(), indent=2))
