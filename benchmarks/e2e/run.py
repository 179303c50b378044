#!/usr/bin/env python3
"""End-to-end benchmark of the live classification path.

    python3 benchmarks/e2e/run.py [--workload W] [--seed 7] [--seconds 20] [--trace 0|1]

prints every metric by name with its unit and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with ``--trace 1``
the per-layer ones.  Without ``--workload`` every workload runs in its own
process.  ``--repeat-check [--runs 10]`` runs two full sets of that many seeds
and compares every gap and spread with its bound.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: launches of a fresh interpreter behind ``setup_s``
COLD_STARTS = 8
#: timed passes never fewer than this, whatever ``--seconds`` says
MIN_PASSES = 8
TRACED_PASSES = 3
MIN_COVERAGE = 0.90
#: how long a process that outlives its workload, or an interrupted workload,
#: may take to end by itself (``ShardSupervisor.stop`` mid-feed: 5 s a worker)
STRAGGLER_GRACE_S = 15.0
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def fail(reason: str) -> "NoReturn":  # noqa: F821
    """Exit non-zero with a one-line reason and no result line."""
    print(f"run.py: {reason}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------
def interval_floors(matrix):
    """Fastest observation of every interval across passes.

    ``matrix`` is passes x intervals.  Interference on a shared host is
    one-sided and bursty: it lengthens some intervals of every pass, but
    rarely the same interval of every pass, so the column minima repeat far
    better than any whole-pass statistic.
    """
    import numpy as np

    return np.min(np.asarray(matrix, dtype=float), axis=0)


def summarise_timing(wall, cpu, packets: int, children_cpu_s: float = 0.0) -> Dict[str, float]:
    """The timing metrics from passes x (start, ticks..., close) matrices."""
    import numpy as np

    wall_floor, cpu_floor = interval_floors(wall), interval_floors(cpu)
    ticks_ms = wall_floor[1:-1] * 1000.0
    return {
        "pkt_per_s": packets / float(wall_floor.sum()),
        "cpu_us_per_pkt": (float(cpu_floor.sum()) + children_cpu_s) / packets * 1e6,
        "tick_p95_ms": float(np.percentile(ticks_ms, 95)),
        "tick_p50_ms": float(np.percentile(ticks_ms, 50)),
        "floor_wall_s": float(wall_floor.sum()),
        "close_s": float(wall_floor[-1]),
    }


def host_calibration_ms() -> float:
    """A fixed numpy + stdlib kernel, fastest of three; only the host changes its time.

    Many numpy calls on short arrays with dict and list work between them
    (what a tick looks like to the interpreter), then a few calls on a long
    array (what a corpus chunk looks like).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    short, long_ = rng.random(256), rng.random(200_000)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table: Dict[int, list] = {}
        for index in range(3_000):
            rows = np.flatnonzero(short > 0.5)
            table.setdefault(index & 15, []).append(float(short[rows].sum()))
            np.searchsorted(short, 0.25)
        np.sort(long_)
        np.cumsum(long_ * long_)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


# ---------------------------------------------------------------------------
# what is reported: metric name -> how it is read off a finished run
# ---------------------------------------------------------------------------
#: a metric's name carries its unit: the first of these words in its last
#: dotted part; a name with none of them is a count
UNIT_BY_WORD = {
    "s": "s", "ms": "ms", "us": "us", "bytes": "bytes", "nbytes": "bytes",
    "frac": "frac", "acc": "frac", "skew": "ratio", "factor": "ratio",
}


def unit_of(metric: str) -> str:
    """The unit ``metric`` is measured in here; BENCHMARK.json must say the same."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.endswith("_feed_s"):
        return "feed_s"
    if leaf.endswith("_per_s"):
        return "1/s"
    return next((UNIT_BY_WORD[w] for w in leaf.split("_") if w in UNIT_BY_WORD), "count")


#: ``m`` is the run's :class:`types.SimpleNamespace` of measurements
END_TO_END = {
    "setup_s": lambda m: m.setup["setup_s"],
    "pkt_per_s": lambda m: m.timing["pkt_per_s"],
    "cpu_us_per_pkt": lambda m: m.timing["cpu_us_per_pkt"],
    "state_bytes_peak": lambda m: m.reference.state_bytes_peak,
    "title_delay_feed_s": lambda m: statistics.median(m.reference.title_delays_feed_s),
    "title_acc": lambda m: m.title_acc,
    "stage_acc": lambda m: m.stage_acc,
    "ok_frac": lambda m: m.tally.ok_frac,
}


def _parse_stat(read):
    return lambda m: read(m.inputs.parse_stats) if m.inputs.parse_stats else 0


def _feed_stat(key):
    return lambda m: (m.feed_stats or {}).get(key, 0)


#: the per-layer metrics that do not come from spans (those are
#: ``tracing.layer_metrics``): counters the program keeps, the sampled
#: reference pass, the process and the host
PER_LAYER = {
    "net.pcap.records": _parse_stat(lambda stats: stats.n_records),
    "net.pcap.bytes": lambda m: m.inputs.capture.stat().st_size if m.inputs.capture else 0,
    "net.pcap.skipped": _parse_stat(lambda stats: stats.n_skipped + stats.truncated_records),
    "runtime.engine.events": lambda m: m.traced_events,
    "runtime.engine.ticks": lambda m: m.n_ticks,
    "runtime.state.live_flows_peak": lambda m: m.reference.live_flows_peak,
    "runtime.state.snapshot_s": lambda m: m.reference.snapshot_s,
    "runtime.state.snapshot_bytes": lambda m: m.reference.snapshot_bytes,
    "analytics.fleet.events": lambda m: m.fleet_events,
    "analytics.fleet.nbytes": lambda m: m.reference.analytics_nbytes,
    "runtime.shm.fallback_ticks": _feed_stat("shm_fallback_ticks"),
    "runtime.shm.ring_peak_bytes": _feed_stat("shm_ring_peak_bytes"),
    "runtime.supervisor.pipe_bytes": _feed_stat("pipe_payload_bytes_total"),
    "runtime.supervisor.checkpoint_bytes": _feed_stat("last_snapshot_nbytes"),
    "runtime.supervisor.replay_ring_peak_bytes": _feed_stat("ring_peak_bytes"),
    "runtime.supervisor.recovery_ms": lambda m: m.recovery_ms,
    "runtime.supervisor.replayed_ticks": lambda m: m.replayed_ticks,
    "runtime.persistence.load_s": lambda m: m.load_s,
    "proc.import_s": lambda m: m.import_s,
    "proc.parent_cpu_s": lambda m: m.usage.ru_utime + m.usage.ru_stime,
    "proc.children_cpu_s": lambda m: m.reaped.ru_utime + m.reaped.ru_stime,
    "proc.rss_peak_bytes": lambda m: m.usage.ru_maxrss * 1024,
    "host.calib_ms_first": lambda m: m.calib_first,
    "host.calib_ms_last": lambda m: m.calib_last,
    "trace.coverage_frac": lambda m: m.coverage,
    "trace.overhead_frac": lambda m: m.overhead,
    "derived.tick_p50_ms": lambda m: m.timing["tick_p50_ms"],
    "derived.tick_p95_ms": lambda m: m.timing["tick_p95_ms"],
    "derived.sessions_per_s": lambda m: len(m.inputs.sessions) / m.timing["floor_wall_s"],
    "derived.close_ms_per_session": lambda m: m.timing["close_s"] * 1000.0 / len(m.inputs.sessions),
    "derived.rt_factor": lambda m: m.inputs.feed_seconds / m.timing["floor_wall_s"],
}


# ---------------------------------------------------------------------------
# spec, stamp, model
# ---------------------------------------------------------------------------
def load_spec() -> dict:
    if not SPEC_PATH.exists():
        fail(f"{SPEC_PATH} is missing")
    return json.loads(SPEC_PATH.read_text())


def stamp() -> dict:
    """Where and on what this result was measured."""
    import numpy as np

    try:
        # a checkout that is not a repository of its own has no sha: do not
        # let git look for one in the directories above it
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        n_cpus = os.cpu_count() or 1
    return {
        "n_cpus": n_cpus,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def model_dir() -> Path:
    """The fitted benchmark model, built once per checkout and source state."""
    import loadgen

    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    hasher.update(
        json.dumps(
            {"corpus": loadgen.CORPUS_SHAPE, "seed": loadgen.TRAIN_SEED, "random_state": 3},
            sort_keys=True,
        ).encode()
    )
    target = OUT / f"model-{hasher.hexdigest()[:16]}"
    if (target / "pipeline.npz").exists():
        return target
    from repro.core.pipeline import ContextClassificationPipeline
    from repro.runtime import save_pipeline

    started = time.perf_counter()
    pipeline = ContextClassificationPipeline(random_state=3).fit(loadgen.training_corpus())
    staging = OUT / f"model-staging-{os.getpid()}"
    save_pipeline(pipeline, staging)
    try:
        staging.rename(target)
    except OSError:  # another run finished the same build first
        shutil.rmtree(staging, ignore_errors=True)
    print(f"# built {target.name} in {time.perf_counter() - started:.1f} s")
    return target


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def check_pass(inputs, reference, result, tally, where: str, ignore: tuple = ()) -> None:
    """Oracle-check one pass; a pass that cannot be checked fails every session."""
    import oracle

    digest = None if result.analytics is None else result.analytics.digest()
    if inputs.chunks is not None:
        verdicts = oracle.check_corpus_pass(
            reference.events, reference.digest, result.events, digest
        )
    else:
        verdicts = oracle.check_live_pass(
            inputs.keys, inputs.n_packets, reference.events, reference.digest,
            result.events, digest, ignore=ignore,
        )
    tally.add(verdicts, where)


def measure_setup(workloads, inputs, model: Path, reference, tally) -> Dict[str, float]:
    """``setup_s``: the program's cold start in fresh interpreters.

    Every launch reports its stages (import numpy, import repro,
    ``load_pipeline``, first batch); like a pass, the cold start is the sum
    of the fastest observation of each stage across launches.
    """
    spec_file = OUT / f"cold-{inputs.name}-{inputs.seed}.pkl"
    workloads.write_cold_start(inputs, model, spec_file)
    launches = []
    for _ in range(COLD_STARTS):
        child = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), inputs.name, str(spec_file)],
            capture_output=True, text=True, timeout=120,
        )
        verdict = None
        if child.returncode != 0:
            verdict = f"cold start exited {child.returncode}: {child.stderr.strip()[-200:]}"
        else:
            launch = json.loads(child.stdout.strip().splitlines()[-1])
            if launch["first_batch_events"] != reference.first_batch_events:
                verdict = (
                    f"cold start returned {launch['first_batch_events']} events, "
                    f"reference {reference.first_batch_events}"
                )
            launches.append(list(launch["stages_s"].values()))
        tally.add([verdict], "cold start")
    spec_file.unlink()
    if not launches:
        fail("no cold start succeeded")
    return {
        "setup_s": float(interval_floors(launches).sum()),
        "setup_median_s": statistics.median(sum(stages) for stages in launches),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Set-up, reference pass, timed passes, oracle; returns the result record."""
    import workloads  # first: it times its own imports of numpy and repro

    import oracle
    import tracing
    from repro.runtime import load_pipeline

    if name == "live_sharded" and "fork" not in multiprocessing.get_all_start_methods():
        fail("live_sharded needs the fork start method, which this platform lacks")
    OUT.mkdir(exist_ok=True)
    m = types.SimpleNamespace(tally=oracle.Tally(), import_s=workloads.T_IMPORTED - workloads.T0)

    # (1) set-up: model, inputs, self-checks
    model = model_dir()
    started = time.perf_counter()
    pipeline = load_pipeline(model)
    m.load_s = time.perf_counter() - started
    started = time.perf_counter()
    inputs = m.inputs = workloads.prepare(name, seed, OUT)
    prepare_s = time.perf_counter() - started
    m.tally.add(inputs.checks, "loadgen")
    packets = sum(inputs.n_packets)

    # (2) reference pass: sampled, checked against offline ground truth, never timed
    started = time.perf_counter()
    reference = m.reference = workloads.reference_pass(
        inputs, pipeline, snapshots=trace and name == "live_sharded"
    )
    if inputs.chunks is not None:
        reports = reference.events
    else:
        reports = oracle.reports_of(reference.events, inputs.keys)
        truth = pipeline.process_many(inputs.sessions)
        m.tally.add(oracle.check_reports(truth, reports), "reference vs offline")
    m.title_acc, m.stage_acc = oracle.accuracy(
        inputs.labels, reports, pipeline.activity_classifier.slot_duration
    )
    reference_s = time.perf_counter() - started

    # (3) one discarded warm pass, then timed passes until the budget is spent
    m.calib_first = host_calibration_ms()
    budget, fewest = (seconds, MIN_PASSES) if not trace else (seconds / 3.0, TRACED_PASSES)
    check_pass(inputs, reference, workloads.run_pass(inputs, pipeline), m.tally, "warm pass")
    wall_rows, cpu_rows, children = [], [], []
    timed_started = time.perf_counter()
    while len(wall_rows) < fewest or time.perf_counter() - timed_started < budget:
        result = workloads.run_pass(inputs, pipeline)
        check_pass(inputs, reference, result, m.tally, f"pass {len(wall_rows)}")
        wall_rows.append(result.wall)
        cpu_rows.append(result.cpu)
        children.append(result.children_cpu_s)
    timed_s = time.perf_counter() - timed_started
    m.calib_last = host_calibration_ms()
    if len({row.size for row in wall_rows}) != 1:
        fail("passes of one workload disagree on their number of ticks")
    m.timing = summarise_timing(wall_rows, cpu_rows, packets, min(children))
    m.n_ticks = int(wall_rows[0].size) - 2

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "stamp": stamp(),
        "inputs_digest": inputs.digest,
        "sessions": len(inputs.sessions),
        "packets": packets,
        "ticks": m.n_ticks,
        "passes": len(wall_rows),
        "timed_s": timed_s,
        "phases_s": {"load": m.load_s, "prepare": prepare_s, "reference": reference_s},
        "host": {"calib_ms_first": m.calib_first, "calib_ms_last": m.calib_last},
    }
    if not trace:
        m.setup = measure_setup(workloads, inputs, model, reference, m.tally)
        record["phases_s"]["setup_median"] = m.setup["setup_median_s"]
        values = {metric: read(m) for metric, read in END_TO_END.items()}
        declared = spec["end_to_end"]
    else:
        values = trace_workload(workloads, tracing, pipeline, m, wall_rows)
        m.usage = resource.getrusage(resource.RUSAGE_SELF)
        m.reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        values.update({metric: read(m) for metric, read in PER_LAYER.items()})
        declared = spec["per_layer"]

    # (4) the result must be exactly what BENCHMARK.json declares
    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            fail(f"metric {entry['name']} of BENCHMARK.json was not measured")
        if entry["unit"] != unit_of(entry["name"]):
            fail(
                f"metric {entry['name']} is measured in {unit_of(entry['name'])}, "
                f"BENCHMARK.json says {entry['unit']}"
            )
        metrics[entry["name"]] = {"value": values.pop(entry["name"]), "unit": entry["unit"]}
    if values:
        fail(f"measured metrics missing from BENCHMARK.json: {sorted(values)}")
    record["metrics"] = metrics
    record["attempted"], record["failed"] = m.tally.attempted, m.tally.failed
    record["reasons"] = m.tally.reasons
    return record


def trace_workload(workloads, tracing, pipeline, m, untraced_wall) -> Dict[str, float]:
    """Traced passes (fastest kept) and, on ``live_sharded``, one pass with a kill.

    Returns the span-derived metrics and leaves what ``PER_LAYER`` reads on ``m``.
    """
    from repro.runtime import FaultPlan, SessionRecovered, WorkerRestarted

    inputs, reference = m.inputs, m.reference
    tracer = tracing.Tracer()
    tracing.install(tracer, pipeline)
    traced = []
    try:
        for index in range(TRACED_PASSES):
            result = workloads.run_pass(inputs, pipeline, tracer=tracer)
            check_pass(inputs, reference, result, m.tally, f"traced pass {index}")
            traced.append((result, tracer.take()))
    finally:
        tracer.unpatch()
    for boundary in tracer.missing:
        print(f"# trace: the program has no {boundary}; its layer reads 0")
    result, spans = min(traced, key=lambda item: float(item[0].wall.sum()))
    pass_wall = float(result.wall.sum())
    # like with like: the floor of as many untraced passes as traced ones
    traced_floor = float(interval_floors([r.wall for r, _ in traced]).sum())
    untraced_floor = float(interval_floors(untraced_wall[-TRACED_PASSES:]).sum())
    m.coverage = tracing.top_level_seconds(spans) / pass_wall
    m.overhead = traced_floor / untraced_floor - 1.0
    if inputs.name != "live_sharded" and m.coverage < MIN_COVERAGE:
        m.tally.add([f"spans cover {m.coverage:.3f} of the pass, below {MIN_COVERAGE}"], "trace")
    m.traced_events = 0 if inputs.chunks is not None else len(result.events)
    m.fleet_events = result.analytics.n_intervals + result.analytics.n_reports
    m.feed_stats = result.feed_stats
    tracing.write_jsonl(
        OUT / f"trace-{inputs.name}.jsonl", spans,
        {
            "workload": inputs.name, "seed": inputs.seed, "pass_wall_s": pass_wall,
            "fields": ["name", "start_s", "end_s", "parent", "tick", "n", "m"],
        },
    )

    m.recovery_ms, m.replayed_ticks = 0.0, 0
    if inputs.name == "live_sharded" and workloads.shard_workers() > 1:
        # one extra pass with a seeded SIGKILL in the middle 80 % of the feed
        plan = FaultPlan.random(inputs.seed, m.n_ticks, workloads.shard_workers(), n_kills=1)
        faulted = workloads.run_pass(inputs, pipeline, fault_plan=plan)
        check_pass(
            inputs, reference, faulted, m.tally, "kill pass",
            ignore=(SessionRecovered, WorkerRestarted),
        )
        if faulted.feed_stats["n_restarts"] != 1:
            m.tally.add([f"{faulted.feed_stats['n_restarts']} restarts for one kill"], "kill pass")
        m.recovery_ms = sum(faulted.feed_stats["recovery_latencies_s"]) * 1000.0
        m.replayed_ticks = faulted.feed_stats["replayed_ticks_total"]
    return tracing.layer_metrics(spans)


# ---------------------------------------------------------------------------
# printing and modes
# ---------------------------------------------------------------------------
def print_record(record: dict) -> None:
    """Human-readable lines, then the contract's result object as the last line."""
    s = record["stamp"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"n_cpus={s['n_cpus']} git={s['git_sha'][:12]} python={s['python']} numpy={s['numpy']}"
    )
    print(f"# inputs_digest={record['inputs_digest']}")
    print(
        f"# sessions={record['sessions']} packets={record['packets']} ticks={record['ticks']} "
        f"passes={record['passes']} timed_s={record['timed_s']:.2f} "
        + " ".join(f"{k}_s={v:.2f}" for k, v in record["phases_s"].items())
    )
    if "host" in record:
        print("# host " + " ".join(f"{k}={v:.3f}" for k, v in record["host"].items()))
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for reason in record["reasons"]:
        print(f"# FAILED {reason}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )


def _children() -> List[int]:
    """The live children of this process, adopted ones too (read from ``/proc``)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:  # ended while we looked
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def supervise(command: Sequence[str], grace_s: float = STRAGGLER_GRACE_S) -> int:
    """Run ``command`` and return only when no process it started is left.

    The program starts processes of its own: the shard workers, and with the
    first shared-memory ring multiprocessing's resource tracker, which ends
    only *after* the process that started it and so outlives a run that
    merely exits (the tracker of every cold-start child likewise).  As the
    child subreaper this process adopts whatever outlives ``command``, gives
    it ``grace_s`` to end by itself, kills what is left and waits for every
    one — on every way out; on an interrupt or a SIGTERM it ends ``command``
    first.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        fail(f"cannot become the child subreaper: {os.strerror(ctypes.get_errno())}")

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, interrupted)
    child = subprocess.Popen(list(command))
    try:
        return child.wait()
    finally:
        if child.returncode is None:
            # interrupted: ask the command to end, which it does tidily
            child.terminate()
        deadline = time.monotonic() + grace_s
        while True:
            try:
                reaped, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # no child left, adopted or own
                break
            if reaped:
                continue
            if time.monotonic() >= deadline:
                for pid in _children():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.005)
        signal.signal(signal.SIGTERM, previous)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process; returns its saved record."""
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        text=True, capture_output=True,
    )
    sys.stdout.write(child.stdout)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        fail(f"workload {name} exited {child.returncode}")
    return json.loads((OUT / f"result-{name}-trace{trace}.json").read_text())


def gap(entry: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if entry["better"] == "lower" else -change


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def repeat_check(names: Sequence[str], seed: int, runs: int, seconds: float, spec: dict) -> int:
    """Two sets of the same code: ``runs`` seeds per workload, medians compared.

    Green when, for every end-to-end metric of every workload, neither set's
    median is worse than the other's by more than the bound and (``setup_s``
    aside) the spread of each set stays within it — the rule a later change
    is accepted or rejected by, applied to no change at all.
    """
    sets = [
        {name: [run_child(name, seed + k, seconds, 0) for k in range(runs)] for name in names}
        for _ in range(2)
    ]
    green = True
    print("\n| workload | metric | median 1 | median 2 | gap | spread 1 | spread 2 | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in names:
        for entry in spec["end_to_end"]:
            values = [
                [record["metrics"][entry["name"]]["value"] for record in records[name]]
                for records in sets
            ]
            a, b = (statistics.median(column) for column in values)
            worse = max(0.0, gap(entry, a, b), gap(entry, b, a))
            spreads = [spread(column) for column in values]
            ok = worse <= entry["bound"] and (
                entry["name"] == "setup_s" or max(spreads) <= entry["bound"]
            )
            green &= ok
            print(
                f"| {name} | {entry['name']} | {a:.6g} | {b:.6g} | {worse:.4f} | "
                f"{spreads[0]:.4f} | {spreads[1]:.4f} | {entry['bound']} | {'ok' if ok else 'OVER'} |"
            )
    print("repeat-check " + ("green" if green else "RED"))
    return 0 if green else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's workloads (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="timed passes per run (default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set of --repeat-check")
    # set by supervise(): measure in this process instead of starting a child for it
    parser.add_argument("--measure-here", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        fail(f"the program under test is missing: {ROOT / 'src' / 'repro'}")
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")

    if args.repeat_check:
        return repeat_check(
            names if args.workload is None else [args.workload], args.seed, args.runs,
            args.seconds, spec,
        )
    if args.workload is None:
        records = [run_child(name, args.seed, args.seconds, args.trace) for name in names]
        failed = sum(record["failed"] for record in records)
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": sum(record["attempted"] for record in records),
                    "failed": failed,
                    "metrics": {
                        f"{record['workload']}.{name}": metric
                        for record in records
                        for name, metric in record["metrics"].items()
                    },
                }
            )
        )
        return 0

    if not args.measure_here:
        own = sys.argv[1:] if argv is None else list(argv)
        return supervise([sys.executable, str(HERE / "run.py"), *own, "--measure-here"])
    # ended by the supervisor: leave through the engines' ``finally`` and the
    # exit hooks, so that workers are reaped and rings unlinked
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_record(record)
    if record["failed"]:
        print(f"run.py: ok_frac < 1: {record['reasons'][0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
