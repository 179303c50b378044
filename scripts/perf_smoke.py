#!/usr/bin/env python
"""Performance smoke run: micro + end-to-end timings -> BENCH_*.json.

Runs the columnar PacketStream micro-benchmarks, the batched
``process_many`` engine benchmark, the PCAP ingestion benchmark, the
streaming-runtime workloads (live-feed throughput single and sharded,
corpus classification, fitted-pipeline save/load) and
the two end-to-end experiment workloads, and writes a
``BENCH_packet_stream.json`` snapshot at the repo root so the perf
trajectory is tracked per PR.

Before overwriting the snapshot, the freshly measured metrics are compared
against the committed baseline: any timing metric that regressed by more
than 2x (or any speedup ratio that halved) fails the run with a non-zero
exit status, so CI fails loudly on perf regressions (see ROADMAP.md).
Metrics with sub-millisecond baselines are exempt from the gate — at that
scale the comparison would only measure scheduler noise.  Every run also
appends one record (git SHA + every numeric metric) to
``BENCH_history.jsonl``, making slow drifts that stay under the 2x gate
visible across PRs.

Every section records ``n_cpus`` (the usable core count), since several
workloads — sharding above all — only make sense in that context.  The
``memory`` section measures the peak per-session state bytes of the
streaming runtime's bounded vs full-history modes on the 104-session
deployment corpus (reports asserted bit-identical first); the bounded
byte peaks and the reduction ratio are regression-gated like the timings.
The ``memory_approx`` section does the same for the O(intervals)
approximate QoE tier (streaming reports asserted identical to offline
``qoe_mode="approx"`` first) and additionally hard-asserts the scaling
gate: approx QoE state flat under a 4x packets-per-session step.  The
``recovery`` section SIGKILLs a fork worker mid-feed and records the
checkpoint-restore + ring-replay latency and the replay ring's peak bytes
(close reports asserted identical to the serial backend first); both are
regression-gated like the timings.  The ``sharded_shm`` section replays
the live feed through the fork backend's shared-memory column rings
(DESIGN.md §12) — close reports asserted identical to the serial backend
first — and regression-gates the throughput, the ring's peak un-pruned
slot bytes and the control-message bytes that crossed the pipes.  The
``fleet_rollup`` section times the
fleet analytics tier's offline fold (QoE windows folded per second) and
records its retained state per rollup key, asserting the fold's aggregator
digest is bit-identical to the live streaming engine's first; the fold
throughput and the per-key bytes are regression-gated.  The
``forest_kernel`` section replays the corpus's real forest workload (batch
+ streaming-shaped + single-row calls) on the compiled
:class:`~repro.ml.kernel.ForestKernel` and regression-gates its timings,
compile time and table bytes (bit-identity is the test suite's business).

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [--output BENCH_packet_stream.json]
    PYTHONPATH=src python scripts/perf_smoke.py --quick       # tier-2 CI check
    PYTHONPATH=src python scripts/perf_smoke.py --no-check    # skip the gate
    PYTHONPATH=src python scripts/perf_smoke.py --no-history  # no JSONL append
    PYTHONPATH=src python scripts/perf_smoke.py --quick --json out.json

``--quick`` is the single-entry tier-2 check: it runs the micro,
feature-matrix, session-memory, approx-memory, worker-recovery,
shm-data-plane, fleet-rollup and forest-kernel sections only, compares them against the
committed snapshot and exits non-zero on any regression —
without touching the snapshot or the history file.  ``--sections`` narrows
a quick run further (comma-separated section names) and ``--json`` writes
the measured sections to a file in every mode — CI uploads that file as
the build artifact, pass or fail.

Two environment knobs tune the gate for CI:

* ``PERF_SMOKE_REGRESSION_FACTOR`` — the regression multiplier (default
  ``2.0``).  Shared CI runners are noisy, so the committed workflow runs
  the gate at ``3.0``: a real regression (the gate's target) blows well
  past 3x, machine jitter does not.
* ``PERF_SMOKE_N_PACKETS`` — micro-benchmark stream length (default
  ``100000``); the self-test of the gate raises it so the cold direction
  filter clears the gate's sub-millisecond noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
import sys

SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.features import launch_feature_matrix  # noqa: E402
from repro.net.packet import Direction, PacketStream  # noqa: E402

N_PACKETS = int(os.environ.get("PERF_SMOKE_N_PACKETS", 100_000))

#: Sections a ``--quick`` run may execute (in run order).
QUICK_SECTIONS = (
    "micro",
    "feature_matrix",
    "memory",
    "memory_approx",
    "recovery",
    "sharded_shm",
    "fleet_rollup",
    "forest_kernel",
)


def _n_cpus() -> int:
    """Usable core count (affinity-aware), recorded in every bench section."""
    from repro.runtime.shard import default_worker_count

    return default_worker_count()


def _with_cpus(section: dict) -> dict:
    """Stamp ``n_cpus`` into a bench section (idempotent)."""
    section.setdefault("n_cpus", _n_cpus())
    return section


def _timeit(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def micro_benchmarks():
    rng = np.random.default_rng(7)
    timestamps = np.sort(rng.uniform(0, 100, N_PACKETS))
    sizes = rng.integers(40, 1432, N_PACKETS).astype(float)
    codes = np.where(rng.random(N_PACKETS) < 0.8, 0, 1).astype(np.int8)
    columnar = PacketStream.from_arrays(timestamps, sizes, codes, assume_sorted=True)

    def columnar_filter_views():
        # fresh stream each run: measures the cold (uncached) columnar path
        stream = PacketStream.from_arrays(
            timestamps, sizes, codes, assume_sorted=True
        )
        down = stream.filter_direction(Direction.DOWNSTREAM)
        down.timestamps()
        down.payload_sizes()

    def columnar_filter_views_warm():
        down = columnar.filter_direction(Direction.DOWNSTREAM)
        down.timestamps()
        down.payload_sizes()

    return {
        "n_packets": N_PACKETS,
        "construct_from_arrays_s": _timeit(
            lambda: PacketStream.from_arrays(
                timestamps, sizes, codes, assume_sorted=True
            )
        ),
        "columnar_filter_views_cold_s": _timeit(columnar_filter_views),
        "columnar_filter_views_warm_s": _timeit(columnar_filter_views_warm),
        "window_slice_s": _timeit(
            lambda: columnar.first_seconds(5.0).timestamps()
        ),
    }


def feature_matrix_benchmark(n_sessions=10_000):
    rng = np.random.default_rng(3)
    streams = []
    for _ in range(n_sessions):
        n = int(rng.integers(40, 80))
        ts = np.sort(rng.uniform(0, 5, n))
        sz = np.where(rng.random(n) < 0.5, 1432.0, rng.uniform(40, 1400, n).round())
        streams.append(
            PacketStream.from_arrays(ts, sz, Direction.DOWNSTREAM, assume_sorted=True)
        )
    start = time.perf_counter()
    matrix = launch_feature_matrix(streams, window_seconds=5.0)
    elapsed = time.perf_counter() - start
    assert matrix.shape == (n_sessions, 51)
    return {"n_sessions": n_sessions, "feature_matrix_s": elapsed}


def end_to_end_benchmarks():
    from repro.experiments import run_fig03_launch_groups, run_table3_title_accuracy

    start = time.perf_counter()
    run_fig03_launch_groups(quick=True)
    fig03 = time.perf_counter() - start
    start = time.perf_counter()
    run_table3_title_accuracy(quick=True)
    table3 = time.perf_counter() - start
    return {"fig03_quick_s": fig03, "table3_quick_s": table3}


def _load_bench_module(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def process_many_benchmark():
    """The batched corpus classification engine vs the per-session loop."""
    return _load_bench_module("bench_process_many").run_benchmark()


def runtime_benchmarks():
    """Streaming-runtime throughput, sharding, memory bounds and model I/O.

    The >=100-session deployment corpus is built and the pipeline fitted
    once, shared by every section.  Sharded numbers depend on the machine:
    the recorded ``n_cpus`` / ``n_workers`` give them context (forked
    sharding cannot beat one process on a single usable core).
    """
    bench = _load_bench_module("bench_runtime")
    corpus = bench.build_deployment_corpus()
    pipeline = bench.fit_deployment_pipeline(corpus)
    runtime = bench.run_benchmark(corpus=corpus, pipeline=pipeline)
    memory = bench.run_memory_benchmark(corpus=corpus, pipeline=pipeline)
    memory_approx = bench.run_memory_approx_benchmark(
        corpus=corpus,
        pipeline=pipeline,
        bounded_peak_session_bytes=memory["bounded_peak_session_bytes"],
    )
    recovery = bench.run_recovery_benchmark(corpus=corpus, pipeline=pipeline)
    sharded_shm = bench.run_sharded_shm_benchmark(corpus=corpus, pipeline=pipeline)
    fleet = bench.run_fleet_rollup_benchmark(corpus=corpus, pipeline=pipeline)
    pipeline_io = pipeline_io_benchmark(bench, corpus, pipeline)
    forest_kernel = _load_bench_module("bench_forest_kernel").run_benchmark(
        corpus=corpus, pipeline=pipeline
    )
    return (
        runtime,
        memory,
        memory_approx,
        recovery,
        sharded_shm,
        fleet,
        pipeline_io,
        forest_kernel,
    )


def memory_benchmarks(
    run_exact=True,
    run_approx=True,
    run_recovery=False,
    run_shm=False,
    run_fleet=False,
    run_kernel=False,
):
    """Corpus-backed sections sharing one corpus build (the --quick path).

    Returns ``(memory, memory_approx, recovery, sharded_shm, fleet,
    forest_kernel)``; any
    may be ``None`` when its section was filtered out.  The approx section asserts its own
    O(intervals) gate (state flat under a 4x packets-per-session step) and
    the offline-equality of streaming approx reports before returning; the
    recovery section asserts the killed-worker run's close reports are
    identical to the serial backend before reporting its latency; the
    shm section asserts the fork feed's close reports are identical to
    the serial backend before reporting throughput or payload volume; the fleet
    section asserts the offline fold's aggregator digest is bit-identical to
    the live streaming engine's before reporting its fold throughput.
    """
    bench = _load_bench_module("bench_runtime")
    corpus = bench.build_deployment_corpus()
    pipeline = bench.fit_deployment_pipeline(corpus)
    memory = (
        bench.run_memory_benchmark(corpus=corpus, pipeline=pipeline)
        if run_exact
        else None
    )
    memory_approx = (
        bench.run_memory_approx_benchmark(
            corpus=corpus,
            pipeline=pipeline,
            bounded_peak_session_bytes=(
                memory["bounded_peak_session_bytes"] if memory else None
            ),
        )
        if run_approx
        else None
    )
    recovery = (
        bench.run_recovery_benchmark(corpus=corpus, pipeline=pipeline)
        if run_recovery
        else None
    )
    sharded_shm = (
        bench.run_sharded_shm_benchmark(corpus=corpus, pipeline=pipeline)
        if run_shm
        else None
    )
    fleet = (
        bench.run_fleet_rollup_benchmark(corpus=corpus, pipeline=pipeline)
        if run_fleet
        else None
    )
    forest_kernel = (
        _load_bench_module("bench_forest_kernel").run_benchmark(
            corpus=corpus, pipeline=pipeline
        )
        if run_kernel
        else None
    )
    return memory, memory_approx, recovery, sharded_shm, fleet, forest_kernel


def pipeline_io_benchmark(bench, corpus, pipeline):
    """Fitted-pipeline persistence: save/load timings and artifact size.

    Asserts the round trip classifies identically before reporting any
    timing.
    """
    import tempfile

    from repro.runtime import load_pipeline, save_pipeline

    probe = corpus[:10]
    expected = pipeline.process_many(probe)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "model"
        save_s = _timeit(lambda: save_pipeline(pipeline, target), repeats=3)
        load_s = _timeit(lambda: load_pipeline(target), repeats=3)
        npz_bytes = (target / "pipeline.npz").stat().st_size
        loaded = load_pipeline(target)
    bench._assert_reports_identical(expected, loaded.process_many(probe))
    return {
        "save_s": save_s,
        "load_s": load_s,
        "npz_bytes": npz_bytes,
        "round_trip_identical": True,
    }


def pcap_ingest_benchmark(n_packets=50_000):
    """Whole-file ``read_pcap_columns`` of a bidirectional RTP capture."""
    import tempfile

    from repro.net.pcap import read_pcap_columns, write_pcap

    rng = np.random.default_rng(5)
    timestamps = np.sort(rng.uniform(0, 60, n_packets))
    up = rng.random(n_packets) >= 0.8
    down_address = ("203.0.113.5", "192.168.0.9", 49004, 51000, "udp")
    up_address = ("192.168.0.9", "203.0.113.5", 51000, 49004, "udp")
    addresses = np.empty(n_packets, dtype=object)
    addresses[:] = [up_address if flag else down_address for flag in up]
    stream = PacketStream.from_arrays(
        timestamps,
        rng.integers(60, 1432, n_packets),
        up.astype(np.int8),
        rtp_ssrc=99,
        rtp_sequence=np.arange(n_packets) & 0xFFFF,
        rtp_timestamp=(timestamps * 90000).astype(np.int64) & 0xFFFFFFFF,
        addresses=addresses,
        assume_sorted=True,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.pcap"
        write_pcap(path, stream.columns())
        columns_s = _timeit(lambda: read_pcap_columns(path), repeats=3)
    return {"n_packets": n_packets, "read_pcap_columns_s": columns_s}


# ---------------------------------------------------------------------------
# per-PR history
# ---------------------------------------------------------------------------
def _git_sha() -> str:
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def append_history(snapshot, regressed, path):
    """Append one JSONL record (git SHA + flattened metrics) per run.

    The >2x gate only catches step regressions; the history file makes slow
    drifts that stay under the gate visible across PRs
    (``git log -p BENCH_history.jsonl`` or a one-liner plot).
    """
    import datetime

    record = {
        "sha": _git_sha(),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "regressed": regressed,
        "metrics": {
            label: value for label, _key, value in _numeric_leaves(snapshot)
        },
    }
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------
#: timing metrics below this baseline are pure noise at the gate's scale
_CHECK_FLOOR_SECONDS = 1e-3
#: a timing metric more than this factor slower than baseline fails the run
#: (the default; PERF_SMOKE_REGRESSION_FACTOR overrides — CI runs at 3.0
#: because shared runners are noisy, and a real regression clears 3x anyway)
_REGRESSION_FACTOR = 2.0


def regression_factor() -> float:
    """The gate multiplier, env-overridable for noisy (CI) machines."""
    factor = float(os.environ.get("PERF_SMOKE_REGRESSION_FACTOR", _REGRESSION_FACTOR))
    if factor < 1.0:
        raise ValueError(
            f"PERF_SMOKE_REGRESSION_FACTOR must be >= 1.0, got {factor}"
        )
    return factor


def _numeric_leaves(snapshot, prefix=""):
    for key, value in snapshot.items():
        label = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from _numeric_leaves(value, label)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield label, key, float(value)


def check_against_baseline(snapshot, baseline, factor=None):
    """Compare fresh metrics against the committed snapshot.

    Returns a list of human-readable regression descriptions: timing metrics
    (``*_s``) failing when more than ``factor`` slower, throughput
    (``*_per_s``), speedup and ratio metrics failing when less than
    ``1/factor`` of the recorded value, byte metrics (``*_bytes``) when more
    than ``factor`` larger.  ``factor`` defaults to
    :func:`regression_factor` (env-overridable for noisy CI runners).
    """
    if factor is None:
        factor = regression_factor()
    fresh = {label: value for label, _key, value in _numeric_leaves(snapshot)}
    regressions = []
    for label, key, recorded in _numeric_leaves(baseline):
        current = fresh.get(label)
        if current is None:
            continue
        if key.endswith("_per_s"):
            # throughput: higher is better (must not match the timing branch)
            if current < recorded / factor:
                regressions.append(
                    f"{label}: {current:,.0f}/s vs baseline {recorded:,.0f}/s "
                    f"(less than 1/{factor:g} of the recorded throughput)"
                )
        elif key.endswith("_s"):
            if recorded >= _CHECK_FLOOR_SECONDS and current > recorded * factor:
                regressions.append(
                    f"{label}: {current:.4f}s vs baseline {recorded:.4f}s "
                    f"(> {factor:g}x slower)"
                )
        elif key.endswith("_bytes"):
            # memory / artifact size: lower is better
            if current > recorded * factor:
                regressions.append(
                    f"{label}: {current:,.0f} B vs baseline {recorded:,.0f} B "
                    f"(> {factor:g}x larger)"
                )
        elif "speedup" in key or key.endswith("_ratio"):
            if current < recorded / factor:
                regressions.append(
                    f"{label}: {current:.2f}x vs baseline {recorded:.2f}x "
                    f"(less than 1/{factor:g} of the recorded factor)"
                )
    return regressions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_packet_stream.json",
        help="where to write the JSON snapshot",
    )
    parser.add_argument(
        "--skip-end-to-end",
        action="store_true",
        help="only run the micro benchmarks (fast); skips the pcap-ingest, "
        "process_many and experiment workloads",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tier-2 CI check: run the micro, feature-matrix, session-memory "
        "(exact + approx), worker-recovery, shm-data-plane, fleet-rollup "
        "and forest-kernel "
        "sections, gate them against the committed snapshot and exit "
        "non-zero on regression; never rewrites the snapshot or the "
        "history file",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the measured sections to this JSON file (pass or "
        "fail) — CI uploads it as the build artifact",
    )
    parser.add_argument(
        "--sections",
        type=str,
        default=None,
        metavar="A,B,...",
        help="restrict a --quick run to these sections "
        f"(subset of {','.join(QUICK_SECTIONS)})",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the >2x regression gate against the committed snapshot",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to BENCH_history.jsonl",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "BENCH_history.jsonl",
        help="per-PR metric history file (JSONL, one record per run)",
    )
    args = parser.parse_args()

    baseline = None
    if args.output.exists():
        baseline = json.loads(args.output.read_text())

    if args.sections is not None and not args.quick:
        parser.error("--sections only applies to --quick runs")
    sections = set(QUICK_SECTIONS)
    if args.sections is not None:
        sections = {name.strip() for name in args.sections.split(",") if name.strip()}
        unknown = sections - set(QUICK_SECTIONS)
        if unknown:
            parser.error(
                f"unknown sections {sorted(unknown)} "
                f"(choose from {', '.join(QUICK_SECTIONS)})"
            )
        if not sections:
            # an empty selection would measure nothing and "pass" — refuse
            # rather than silently disabling the gate
            parser.error(f"--sections selected nothing (choose from {', '.join(QUICK_SECTIONS)})")

    def write_json(snapshot):
        if args.json is not None:
            args.json.write_text(json.dumps(snapshot, indent=2) + "\n")

    snapshot = {
        "generated_by": "scripts/perf_smoke.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "n_cpus": _n_cpus(),
    }
    if not args.quick or "micro" in sections:
        snapshot["micro"] = _with_cpus(micro_benchmarks())
    if not args.quick or "feature_matrix" in sections:
        snapshot["feature_matrix"] = _with_cpus(feature_matrix_benchmark())
    if args.quick:
        corpus_sections = {
            "memory", "memory_approx", "recovery", "sharded_shm",
            "fleet_rollup", "forest_kernel",
        }
        if sections & corpus_sections:
            (
                memory,
                memory_approx,
                recovery,
                sharded_shm,
                fleet,
                forest_kernel,
            ) = memory_benchmarks(
                run_exact="memory" in sections,
                run_approx="memory_approx" in sections,
                run_recovery="recovery" in sections,
                run_shm="sharded_shm" in sections,
                run_fleet="fleet_rollup" in sections,
                run_kernel="forest_kernel" in sections,
            )
            if memory is not None:
                snapshot["memory"] = _with_cpus(memory)
            if memory_approx is not None:
                snapshot["memory_approx"] = _with_cpus(memory_approx)
            if recovery is not None:
                snapshot["recovery"] = _with_cpus(recovery)
            if sharded_shm is not None:
                snapshot["sharded_shm"] = _with_cpus(sharded_shm)
            if fleet is not None:
                snapshot["fleet_rollup"] = _with_cpus(fleet)
            if forest_kernel is not None:
                snapshot["forest_kernel"] = _with_cpus(forest_kernel)
        regressions = []
        if baseline is not None and not args.no_check:
            regressions = check_against_baseline(snapshot, baseline)
        print(json.dumps(snapshot, indent=2))
        write_json(snapshot)
        if regressions:
            print("\nPERF REGRESSIONS vs committed baseline:", file=sys.stderr)
            for line in regressions:
                print(f"  - {line}", file=sys.stderr)
            sys.exit(1)
        print("\nquick check passed (snapshot and history untouched)")
        return
    if not args.skip_end_to_end:
        snapshot["pcap_ingest"] = _with_cpus(pcap_ingest_benchmark())
        snapshot["process_many"] = _with_cpus(process_many_benchmark())
        (
            runtime,
            memory,
            memory_approx,
            recovery,
            sharded_shm,
            fleet,
            pipeline_io,
            forest_kernel,
        ) = runtime_benchmarks()
        snapshot["runtime"] = _with_cpus(runtime)
        snapshot["memory"] = _with_cpus(memory)
        snapshot["memory_approx"] = _with_cpus(memory_approx)
        snapshot["recovery"] = _with_cpus(recovery)
        snapshot["sharded_shm"] = _with_cpus(sharded_shm)
        snapshot["fleet_rollup"] = _with_cpus(fleet)
        snapshot["pipeline_io"] = _with_cpus(pipeline_io)
        snapshot["forest_kernel"] = _with_cpus(forest_kernel)
        snapshot["end_to_end"] = _with_cpus(end_to_end_benchmarks())

    regressions = []
    if baseline is not None and not args.no_check:
        regressions = check_against_baseline(snapshot, baseline)

    print(json.dumps(snapshot, indent=2))
    write_json(snapshot)
    if not args.no_history:
        append_history(snapshot, regressed=bool(regressions), path=args.history)
        print(f"appended run to {args.history}")
    if regressions:
        # keep the committed baseline intact so a rerun still fails; park
        # the regressed measurements next to it for inspection
        rejected = args.output.with_suffix(".rejected.json")
        rejected.write_text(json.dumps(snapshot, indent=2) + "\n")
        print("\nPERF REGRESSIONS vs committed baseline:", file=sys.stderr)
        for line in regressions:
            print(f"  - {line}", file=sys.stderr)
        print(f"baseline kept; regressed snapshot written to {rejected}", file=sys.stderr)
        sys.exit(1)

    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if baseline is not None and not args.no_check:
        print("regression gate passed (no metric >2x worse than baseline)")


if __name__ == "__main__":
    main()
