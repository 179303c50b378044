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

Run standalone::

    PYTHONPATH=src python benchmarks/bench_forest_kernel.py

``scripts/perf_smoke.py`` imports :func:`run_benchmark` to record the
results (full runs and the ``--quick`` tier-2 gate).
"""

from __future__ import annotations

import json
import sys
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


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
