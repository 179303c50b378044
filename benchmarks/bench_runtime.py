"""Benchmark: streaming runtime throughput, single-process and sharded.

Three workloads over the shared >=100-session deployment corpus
(``benchmarks/conftest.py``):

* **corpus classification** — single-process ``pipeline.process_many``
  (corpora are not sharded).
* **live-feed throughput** — a :class:`SessionFeed` of concurrent sessions
  pushed through one :class:`StreamingEngine` (packets/s and sessions/s of
  the full online cascade including the offline-identical close reports).
* **sharded live feed** — the same feed through ``ShardedEngine.run_feed``.

Plus two memory workloads: bounded-vs-full peak session state
(:func:`run_memory_benchmark`) and the approximate QoE tier with its
O(intervals) scaling gate (:func:`run_memory_approx_benchmark`); the
worker-kill recovery protocol (:func:`run_recovery_benchmark`); the
fork backend's shared-memory data plane
(:func:`run_sharded_shm_benchmark`, reports asserted identical to serial
first); and the fleet analytics tier's offline fold
throughput and per-rollup-key state size
(:func:`run_fleet_rollup_benchmark`, digests asserted identical to the
live streaming path first).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_runtime.py

``scripts/perf_smoke.py`` imports :func:`run_benchmark` to record the
results in ``BENCH_packet_stream.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
# the shared corpus builders live in benchmarks/conftest.py; make them
# importable when this file is loaded outside pytest (standalone run or
# scripts/perf_smoke.py)
BENCH_DIR = str(Path(__file__).resolve().parent)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import pytest  # noqa: E402

from conftest import build_deployment_corpus, fit_deployment_pipeline  # noqa: E402
from repro.runtime import (  # noqa: E402
    FaultPlan,
    KillWorker,
    SessionFeed,
    SessionReport,
    ShardedEngine,
    StreamingEngine,
    WorkerRestarted,
    default_worker_count,
)

#: Sessions replayed concurrently in the live-feed workloads.
N_FEED_SESSIONS = 24
FEED_BATCH_SECONDS = 1.0

#: Batch granularity of the memory benchmark feed (coarser than the live
#: throughput workload: the peak state footprint is batch-size independent).
MEMORY_BATCH_SECONDS = 5.0


def _usable_cpus() -> int:
    """Affinity-aware usable core count, recorded next to every result."""
    return default_worker_count()


def _assert_reports_identical(reference, got) -> None:
    assert len(reference) == len(got)
    for expected, actual in zip(reference, got):
        assert actual.platform == expected.platform
        assert actual.title == expected.title
        assert actual.stage_timeline == expected.stage_timeline
        assert actual.stage_fractions == expected.stage_fractions
        assert actual.pattern == expected.pattern
        assert actual.objective_metrics == expected.objective_metrics
        assert actual.objective_qoe is expected.objective_qoe
        assert actual.effective_qoe is expected.effective_qoe
        assert actual.qoe_approximate == expected.qoe_approximate


def _drain_feed(engine_like, feed) -> dict:
    """Drive a feed to completion; return throughput counters."""
    runner = engine_like.run if isinstance(engine_like, StreamingEngine) else engine_like.run_feed
    start = time.perf_counter()
    n_events = 0
    reports = []
    for event in runner(feed):
        n_events += 1
        if isinstance(event, SessionReport):
            reports.append(event)
    elapsed = time.perf_counter() - start
    packets = sum(event.n_packets for event in reports)
    return {
        "elapsed_s": elapsed,
        "n_events": n_events,
        "n_sessions": len(reports),
        "n_packets": packets,
        "packets_per_s": packets / elapsed if elapsed > 0 else 0.0,
        "sessions_per_s": len(reports) / elapsed if elapsed > 0 else 0.0,
    }


def run_benchmark(corpus=None, pipeline=None, repeats: int = 3) -> dict:
    """Time the runtime workloads (best of ``repeats`` for the corpus path)."""
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    n_workers = max(2, default_worker_count())

    single_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        pipeline.process_many(corpus)
        single_best = min(single_best, time.perf_counter() - start)

    feed_sessions = corpus[:N_FEED_SESSIONS]
    live_single = _drain_feed(
        StreamingEngine(pipeline),
        SessionFeed(feed_sessions, batch_seconds=FEED_BATCH_SECONDS),
    )
    live_sharded = _drain_feed(
        ShardedEngine(pipeline, n_workers=n_workers, backend="fork"),
        SessionFeed(feed_sessions, batch_seconds=FEED_BATCH_SECONDS),
    )

    return {
        "n_sessions": len(corpus),
        "n_cpus": _usable_cpus(),
        "n_workers": n_workers,
        "single_process_many_s": single_best,
        "live_feed": {
            "batch_seconds": FEED_BATCH_SECONDS,
            "single_worker": live_single,
            "sharded": live_sharded,
        },
    }


def _drive_memory(pipeline, sessions, mode, batch_seconds=MEMORY_BATCH_SECONDS):
    """Replay ``sessions`` as one concurrent feed; sample peak state bytes."""
    engine = StreamingEngine(pipeline, session_mode=mode)
    feed = SessionFeed(sessions, batch_seconds=batch_seconds)
    # register platform / rate-scale knowledge exactly like engine.run():
    # close reports then line up with offline process_many on the corpus
    for key, context in feed.flow_contexts.items():
        engine.set_flow_context(key, context)
    peak_session = 0
    peak_total = 0
    reports = {}
    for batch in feed:
        for event in engine.ingest(batch):
            if isinstance(event, SessionReport):
                reports[event.flow] = event.report
        sizes = engine.state_nbytes().values()
        if sizes:
            peak_session = max(peak_session, max(sizes))
            peak_total = max(peak_total, sum(sizes))
    for event in engine.close_all():
        if isinstance(event, SessionReport):
            reports[event.flow] = event.report
    return peak_session, peak_total, reports


def run_memory_benchmark(corpus=None, pipeline=None) -> dict:
    """Peak per-session state bytes: bounded vs full-history mode.

    Replays the whole deployment corpus as one concurrent feed through a
    bounded and a full-history engine, sampling ``SessionState.state_nbytes``
    as the feed advances, and asserts the two modes' close reports are
    bit-identical before reporting any number.  ``memory_reduction_ratio``
    (full peak / bounded peak, per session) is the regression-gated headline.
    """
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)

    def drive(mode):
        return _drive_memory(pipeline, corpus, mode)

    bounded_session, bounded_total, bounded_reports = drive("bounded")
    full_session, full_total, full_reports = drive("full")
    assert bounded_reports.keys() == full_reports.keys()
    assert len(bounded_reports) == len(corpus)
    _assert_reports_identical(
        [full_reports[key] for key in sorted(full_reports, key=str)],
        [bounded_reports[key] for key in sorted(bounded_reports, key=str)],
    )
    return {
        "n_sessions": len(corpus),
        "n_cpus": _usable_cpus(),
        "batch_seconds": MEMORY_BATCH_SECONDS,
        "bounded_peak_session_bytes": bounded_session,
        "bounded_peak_total_bytes": bounded_total,
        "full_peak_session_bytes": full_session,
        "full_peak_total_bytes": full_total,
        "memory_reduction_ratio": (
            full_session / bounded_session if bounded_session else 0.0
        ),
        "reports_identical": True,
    }


#: Packet-rate fidelities of the O(intervals) scaling probe (4x apart at a
#: fixed duration, so packets-per-session grows 4x with intervals constant).
APPROX_SCALING_RATES = (0.05, 0.2)


def _approx_scaling_probe(pipeline) -> dict:
    """Peak state bytes of one session at 1x and 4x packet rates.

    Generates the same 150 s session at two fidelities (packets-per-session
    4x apart, QoE-interval count identical) and replays each through a
    bounded and an approx engine, sampling both the whole-session state and
    the QoE reducer's share.  The growth ratios are the O(intervals) proof:
    approx QoE state must stay flat while bounded grows with the rate.
    """
    from repro.simulation.session import SessionConfig, SessionGenerator

    peaks = {}
    n_packets = {}
    for rate in APPROX_SCALING_RATES:
        session = SessionGenerator(random_state=7).generate(
            "Fortnite", SessionConfig(gameplay_duration_s=150.0, rate_scale=rate)
        )
        n_packets[rate] = len(session.packets.columns())
        for mode in ("bounded", "approx"):
            engine = StreamingEngine(pipeline, session_mode=mode)
            peak_state = peak_qoe = 0
            for batch in SessionFeed([session], batch_seconds=MEMORY_BATCH_SECONDS):
                engine.ingest(batch)
                for state in engine._states.values():
                    peak_state = max(peak_state, state.state_nbytes())
                    peak_qoe = max(peak_qoe, state.cascade.qoe.nbytes())
            engine.close_all()
            peaks[(mode, rate)] = (peak_state, peak_qoe)
    low, high = APPROX_SCALING_RATES
    return {
        "packets_low": n_packets[low],
        "packets_high": n_packets[high],
        "bounded_state_low_bytes": peaks[("bounded", low)][0],
        "bounded_state_high_bytes": peaks[("bounded", high)][0],
        "approx_state_low_bytes": peaks[("approx", low)][0],
        "approx_state_high_bytes": peaks[("approx", high)][0],
        "approx_qoe_state_low_bytes": peaks[("approx", low)][1],
        "approx_qoe_state_high_bytes": peaks[("approx", high)][1],
        # growth factors over the 4x packet step (no gated suffix: the smoke
        # gate's generic rules don't fit "must stay near 1.0" semantics —
        # the hard asserts in run_memory_approx_benchmark are the gate)
        "bounded_state_growth": (
            peaks[("bounded", high)][0] / max(1, peaks[("bounded", low)][0])
        ),
        "approx_state_growth": (
            peaks[("approx", high)][0] / max(1, peaks[("approx", low)][0])
        ),
        "approx_qoe_state_growth": (
            peaks[("approx", high)][1] / max(1, peaks[("approx", low)][1])
        ),
    }


def run_memory_approx_benchmark(
    corpus=None, pipeline=None, bounded_peak_session_bytes=None
) -> dict:
    """The approximate QoE tier: peak bytes, ratio vs bounded, O(intervals) gate.

    Three guarantees are asserted before any number is reported:

    * streaming ``session_mode="approx"`` close reports on the deployment
      corpus are **identical** to offline ``process_many(qoe_mode="approx")``
      and carry ``qoe_approximate=True``;
    * the QoE reducer's per-session state is flat (< 1.1x) under a 4x
      packets-per-session step at fixed duration — the O(intervals) claim;
    * whole-session approx state (which still contains the launch-window
      buffer and slot counters, both shared with bounded mode) grows
      strictly slower than bounded state under the same step.

    ``bounded_vs_approx_ratio`` (bounded peak / approx peak per session on
    the corpus) is the regression-gated headline next to the exact tiers'
    ``memory_reduction_ratio``.
    """
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    if bounded_peak_session_bytes is None:
        bounded_peak_session_bytes, _, _ = _drive_memory(pipeline, corpus, "bounded")

    approx_session, approx_total, approx_reports = _drive_memory(
        pipeline, corpus, "approx"
    )
    assert len(approx_reports) == len(corpus)
    offline = pipeline.process_many(corpus, qoe_mode="approx")
    assert all(report.qoe_approximate for report in offline)
    by_port = {key.client_port: report for key, report in approx_reports.items()}
    _assert_reports_identical(
        offline, [by_port[52000 + index] for index in range(len(corpus))]
    )

    scaling = _approx_scaling_probe(pipeline)
    assert scaling["approx_qoe_state_growth"] < 1.1, scaling
    assert (
        scaling["approx_state_growth"] < scaling["bounded_state_growth"] / 1.5
    ), scaling

    return {
        "n_sessions": len(corpus),
        "n_cpus": _usable_cpus(),
        "batch_seconds": MEMORY_BATCH_SECONDS,
        "approx_peak_session_bytes": approx_session,
        "approx_peak_total_bytes": approx_total,
        "bounded_vs_approx_ratio": (
            bounded_peak_session_bytes / approx_session if approx_session else 0.0
        ),
        "reports_identical_to_offline_approx": True,
        "scaling": scaling,
    }


#: Batch granularity and snapshot cadence of the recovery benchmark: coarse
#: batches keep the tick count low (~31 over the 150 s corpus) while the
#: cadence bounds the replay ring at RECOVERY_SNAPSHOT_EVERY un-acked ticks.
RECOVERY_SNAPSHOT_EVERY = 4


def run_recovery_benchmark(corpus=None, pipeline=None) -> dict:
    """Worker-kill recovery: latency, replay-ring footprint, fidelity.

    Replays ``N_FEED_SESSIONS`` concurrent sessions through the fork
    backend twice — once clean, once with a SIGKILL of shard 0 mid-feed —
    and asserts both runs' close reports are identical to the serial
    backend before reporting any number.  ``recovery_latency_s`` (respawn
    + checkpoint restore + ring replay, straight from the supervisor's
    monotonic clock) and ``replay_ring_peak_bytes`` (the bounded un-acked
    tick buffer) are the regression-gated headlines; the snapshot size and
    the faulted-vs-clean elapsed overhead give them context.
    """
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    sessions = corpus[:N_FEED_SESSIONS]

    def feed():
        return SessionFeed(sessions, batch_seconds=MEMORY_BATCH_SECONDS)

    def engine(backend):
        return ShardedEngine(
            pipeline,
            n_workers=2,
            backend=backend,
            snapshot_every_ticks=RECOVERY_SNAPSHOT_EVERY,
        )

    def drive(sharded, fault_plan=None):
        start = time.perf_counter()
        events = list(sharded.run_feed(feed(), fault_plan=fault_plan))
        elapsed = time.perf_counter() - start
        reports = {
            event.flow: event.report
            for event in events
            if isinstance(event, SessionReport)
        }
        return elapsed, reports, events

    n_ticks = sum(1 for _ in feed())
    _, reference, _ = drive(engine("serial"))
    assert len(reference) == len(sessions)

    # best-of-2 for the timed runs: a fork-backend feed on a loaded box can
    # catch a copy-on-write stall that dwarfs the protocol being measured
    plan = FaultPlan(actions=(KillWorker(shard=0, tick=n_ticks // 2),))
    clean_s = faulted_s = float("inf")
    for _ in range(2):
        elapsed, clean_reports, _ = drive(engine("fork"))
        clean_s = min(clean_s, elapsed)
        faulted_engine = engine("fork")
        elapsed, faulted_reports, faulted_events = drive(faulted_engine, plan)
        faulted_s = min(faulted_s, elapsed)

    def check(reports):
        assert reports.keys() == reference.keys()
        ordered = sorted(reference, key=str)
        _assert_reports_identical(
            [reference[key] for key in ordered],
            [reports[key] for key in ordered],
        )

    check(clean_reports)
    check(faulted_reports)
    restarts = [e for e in faulted_events if isinstance(e, WorkerRestarted)]
    assert len(restarts) == 1 and restarts[0].reason == "dead"
    stats = faulted_engine.last_feed_stats
    assert stats["n_restarts"] == 1
    return {
        "n_sessions": len(sessions),
        "n_cpus": _usable_cpus(),
        "n_ticks": n_ticks,
        "snapshot_every_ticks": RECOVERY_SNAPSHOT_EVERY,
        "clean_feed_s": clean_s,
        "faulted_feed_s": faulted_s,
        "recovery_latency_s": stats["recovery_latencies_s"][0],
        "replayed_ticks": stats["replayed_ticks_total"],
        "replay_ring_peak_bytes": stats["ring_peak_bytes"],
        "snapshot_nbytes": stats["last_snapshot_nbytes"],
        "checkpoint_bytes_total": stats["checkpoint_bytes_total"],
        "checkpoint_chain_peak_bytes": stats["checkpoint_chain_peak_bytes"],
        "n_full_checkpoints": stats["n_full_checkpoints"],
        "n_delta_checkpoints": stats["n_delta_checkpoints"],
        "reports_identical": True,
    }


def run_sharded_shm_benchmark(corpus=None, pipeline=None) -> dict:
    """Shared-memory data plane: live-feed throughput and transport volume.

    Replays ``N_FEED_SESSIONS`` concurrent sessions through the fork
    backend's shared-memory column rings (DESIGN.md §12), asserting the
    close reports are identical to the serial backend before reporting any
    number.  The regression-gated headlines are ``packets_per_s`` /
    ``packets_per_s_per_core`` (live-feed throughput; per-core divides by
    the cores the parent and workers can actually occupy),
    ``shm_ring_peak_bytes`` (un-pruned slot footprint — bounded by the §8
    checkpoint cadence) and ``control_payload_total_bytes`` (what crossed
    the pipes: the "pipes carry control messages only" claim as a number).
    ``shm_fallback_ticks`` must be 0 — a correctly sized ring never
    degrades to inline pickles.
    """
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    sessions = corpus[:N_FEED_SESSIONS]
    n_workers = 2

    def feed():
        return SessionFeed(sessions, batch_seconds=FEED_BATCH_SECONDS)

    def engine(backend):
        return ShardedEngine(pipeline, n_workers=n_workers, backend=backend)

    def drive(sharded):
        start = time.perf_counter()
        reports = {}
        n_packets = 0
        for event in sharded.run_feed(feed()):
            if isinstance(event, SessionReport):
                reports[event.flow] = event.report
                n_packets += event.n_packets
        return time.perf_counter() - start, reports, n_packets

    n_ticks = sum(1 for _ in feed())
    _, reference, n_packets = drive(engine("serial"))
    assert len(reference) == len(sessions)

    def check(reports):
        assert reports.keys() == reference.keys()
        ordered = sorted(reference, key=str)
        _assert_reports_identical(
            [reference[key] for key in ordered],
            [reports[key] for key in ordered],
        )

    # best-of-2: fork feeds on a loaded box can catch a stall that dwarfs
    # the data plane being measured
    best = float("inf")
    for _ in range(2):
        sharded = engine("fork")
        elapsed, reports, _packets = drive(sharded)
        check(reports)
        best = min(best, elapsed)
    stats = sharded.last_feed_stats
    assert stats["shm_fallback_ticks"] == 0
    assert stats["shm_ring_peak_bytes"] > 0

    busy_cores = min(n_workers + 1, _usable_cpus())
    packets_per_s = n_packets / best
    return {
        "n_sessions": len(sessions),
        "n_cpus": _usable_cpus(),
        "n_workers": n_workers,
        "n_ticks": n_ticks,
        "n_packets": n_packets,
        "shm_feed_s": best,
        "packets_per_s": packets_per_s,
        "packets_per_s_per_core": packets_per_s / busy_cores,
        "shm_ring_peak_bytes": stats["shm_ring_peak_bytes"],
        "shm_fallback_ticks": stats["shm_fallback_ticks"],
        "control_payload_total_bytes": stats["pipe_payload_bytes_total"],
        "reports_identical": True,
    }


#: Serving regions cycled across the fleet-rollup benchmark sessions (three
#: regions over N_FEED_SESSIONS sessions -> a handful of rollup keys, like a
#: single probe site would see).
FLEET_REGIONS = ("eu-central", "eu-west", "eu-north")


def run_fleet_rollup_benchmark(corpus=None, pipeline=None, repeats: int = 3) -> dict:
    """Fleet analytics tier: offline fold throughput and per-key state size.

    Folds ``N_FEED_SESSIONS`` deployment sessions into per-(region, title,
    qoe-mode) rollups via :func:`repro.analytics.fold_corpus` (reports
    precomputed once, so the timing isolates the interval rebuild + sketch
    fold) and replays the same sessions through a live
    ``StreamingEngine(analytics=True)`` feed, asserting the two aggregators'
    digests are bit-identical before reporting any number.
    ``fold_intervals_per_s`` (QoE windows folded per second, best of
    ``repeats``) and ``rollup_key_bytes`` (retained aggregator state per
    rollup key — the O(keys) memory claim) are the regression-gated
    headlines.
    """
    from repro.analytics import fold_corpus

    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    sessions = corpus[:N_FEED_SESSIONS]
    regions = [FLEET_REGIONS[index % len(FLEET_REGIONS)] for index in range(len(sessions))]

    reports = pipeline.process_many(sessions, qoe_mode="approx")
    fold_best = float("inf")
    aggregator = None
    for _ in range(repeats):
        start = time.perf_counter()
        aggregator = fold_corpus(
            pipeline, sessions, reports=reports, regions=regions, qoe_mode="approx"
        )
        fold_best = min(fold_best, time.perf_counter() - start)

    engine = StreamingEngine(pipeline, session_mode="approx", analytics=True)
    feed = SessionFeed(sessions, batch_seconds=FEED_BATCH_SECONDS, regions=regions)
    for _ in engine.run(feed):
        pass
    assert engine.analytics.digest() == aggregator.digest()

    n_keys = len(aggregator.keys())
    return {
        "n_sessions": len(sessions),
        "n_cpus": _usable_cpus(),
        "n_rollup_keys": n_keys,
        "n_intervals": aggregator.n_intervals,
        "fold_s": fold_best,
        "fold_intervals_per_s": aggregator.n_intervals / fold_best,
        "rollup_total_bytes": aggregator.nbytes(),
        "rollup_key_bytes": aggregator.nbytes() / n_keys,
        "streaming_digest_identical": True,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark wrappers (share the session-scoped corpus cache)
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="runtime")
def test_bench_streaming_feed(benchmark, deployment_corpus, deployment_pipeline):
    def drive():
        feed = SessionFeed(
            deployment_corpus[:N_FEED_SESSIONS], batch_seconds=FEED_BATCH_SECONDS
        )
        return _drain_feed(StreamingEngine(deployment_pipeline), feed)

    counters = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert counters["n_sessions"] == N_FEED_SESSIONS


def main() -> None:
    corpus = build_deployment_corpus()
    pipeline = fit_deployment_pipeline(corpus)
    results = run_benchmark(corpus=corpus, pipeline=pipeline)
    results["memory"] = run_memory_benchmark(corpus=corpus, pipeline=pipeline)
    results["memory_approx"] = run_memory_approx_benchmark(
        corpus=corpus,
        pipeline=pipeline,
        bounded_peak_session_bytes=results["memory"]["bounded_peak_session_bytes"],
    )
    results["recovery"] = run_recovery_benchmark(corpus=corpus, pipeline=pipeline)
    results["sharded_shm"] = run_sharded_shm_benchmark(corpus=corpus, pipeline=pipeline)
    results["fleet_rollup"] = run_fleet_rollup_benchmark(corpus=corpus, pipeline=pipeline)
    print(json.dumps(results, indent=2))
    memory = results["memory"]
    print(
        f"\nbounded session state: {memory['bounded_peak_session_bytes']:,} B peak "
        f"vs {memory['full_peak_session_bytes']:,} B full history "
        f"({memory['memory_reduction_ratio']:.1f}x smaller; reports identical)"
    )
    approx = results["memory_approx"]
    print(
        f"approx session state: {approx['approx_peak_session_bytes']:,} B peak "
        f"({approx['bounded_vs_approx_ratio']:.1f}x smaller than bounded; "
        f"QoE state growth under 4x packets: "
        f"{approx['scaling']['approx_qoe_state_growth']:.2f}x vs bounded "
        f"{approx['scaling']['bounded_state_growth']:.2f}x)"
    )
    live = results["live_feed"]["single_worker"]
    print(
        f"\nlive feed: {live['packets_per_s']:,.0f} packets/s, "
        f"{live['sessions_per_s']:.1f} sessions/s over the full online cascade"
    )
    recovery = results["recovery"]
    print(
        f"worker-kill recovery: {recovery['recovery_latency_s'] * 1e3:.0f} ms "
        f"(restore + {recovery['replayed_ticks']} replayed ticks), replay ring "
        f"peak {recovery['replay_ring_peak_bytes']:,} B, snapshot "
        f"{recovery['snapshot_nbytes']:,} B; reports identical to serial"
    )
    shm = results["sharded_shm"]
    print(
        f"shm data plane: {shm['packets_per_s']:,.0f} packets/s "
        f"({shm['packets_per_s_per_core']:,.0f}/core), "
        f"{shm['control_payload_total_bytes']:,} B of control messages on the "
        f"pipes, shm ring peak {shm['shm_ring_peak_bytes']:,} B, "
        f"{shm['shm_fallback_ticks']} fallback ticks; reports identical to serial"
    )
    fleet = results["fleet_rollup"]
    print(
        f"fleet rollups: {fleet['fold_intervals_per_s']:,.0f} QoE windows/s "
        f"offline fold, {fleet['rollup_key_bytes']:,.0f} B per rollup key "
        f"({fleet['n_rollup_keys']} keys over {fleet['n_sessions']} sessions; "
        "streaming digest identical)"
    )


if __name__ == "__main__":
    main()
