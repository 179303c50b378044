"""Sharded live deployment demo: many concurrent subscribers, many workers.

An ISP-side deployment watches many households at once.  This example

1. trains the pipeline once and **persists** it (``save_pipeline``), then
   loads it back the way a fleet of workers would (no refitting);
2. replays a mixed corpus of sessions as one interleaved live feed with
   staggered start times (``SessionFeed``);
3. drives the feed through a :class:`ShardedEngine` that partitions flows
   across workers by 5-tuple hash, collecting the per-flow context events;
4. prints a per-platform/effective-QoE summary of the closed sessions;
5. replays the same feed with a **SIGKILL of one worker mid-feed**: the
   supervisor respawns the shard, restores its last checkpoint, replays the
   un-acked ticks, and the close reports still match the serial backend
   bit for bit;
6. **hot-swaps the model mid-feed with zero downtime**: a freshly loaded
   copy of the saved pipeline replaces the live one between two ticks —
   every shard cuts over on the same tick, emits one ``ModelSwapped``
   event, live session state is untouched, and (being an identity swap)
   the close reports are unchanged.

Run with::

    python examples/live_deployment.py
"""

from __future__ import annotations

import tempfile
import time
from collections import Counter
from pathlib import Path

from repro import (
    ContextClassificationPipeline,
    SessionConfig,
    SessionGenerator,
    generate_lab_dataset,
)
from repro.runtime import (
    FaultPlan,
    KillWorker,
    ModelSwapped,
    SessionFeed,
    SessionRecovered,
    SessionReport,
    ShardedEngine,
    TitleClassified,
    WorkerRestarted,
    load_pipeline,
    save_pipeline,
)

TITLES = ["CS:GO/CS2", "Fortnite", "Hearthstone", "Genshin Impact", "Cyberpunk 2077"]


def _reports_equal(expected, actual) -> bool:
    """Field-by-field close-report equality (the serial run is the truth)."""
    return (
        actual.platform == expected.platform
        and actual.title == expected.title
        and actual.stage_timeline == expected.stage_timeline
        and actual.pattern == expected.pattern
        and actual.objective_qoe is expected.objective_qoe
        and actual.effective_qoe is expected.effective_qoe
    )


def fault_tolerance_demo(pipeline, make_feed, n_ticks) -> None:
    """Kill a worker mid-feed; show recovery and serial-backend equality."""
    print("\n--- fault-tolerance demo: SIGKILL worker 0 mid-feed ---")
    serial = ShardedEngine(pipeline, n_workers=2, backend="serial")
    reference = {
        event.flow: event.report
        for event in serial.run_feed(make_feed())
        if isinstance(event, SessionReport)
    }

    plan = FaultPlan(actions=(KillWorker(shard=0, tick=n_ticks // 2),))
    engine = ShardedEngine(
        pipeline, n_workers=2, backend="fork", snapshot_every_ticks=4
    )
    reports = {}
    recovered = 0
    for event in engine.run_feed(make_feed(), fault_plan=plan):
        if isinstance(event, WorkerRestarted):
            print(f"  [t={event.time:6.1f}s] worker {event.shard} {event.reason}: "
                  f"respawned, restored {event.n_flows} flows, replayed "
                  f"{event.replayed_ticks} ticks in "
                  f"{event.recovery_latency_s * 1e3:.0f} ms")
        elif isinstance(event, SessionRecovered):
            recovered += 1
        elif isinstance(event, SessionReport):
            reports[event.flow] = event.report

    stats = engine.last_feed_stats
    identical = reports.keys() == reference.keys() and all(
        _reports_equal(reference[key], reports[key]) for key in reference
    )
    print(f"  {recovered} sessions re-homed; replay ring peaked at "
          f"{stats['ring_peak_bytes']:,} B, last checkpoint "
          f"{stats['last_snapshot_nbytes']:,} B")
    print(f"  close reports identical to the serial backend: {identical}")
    if not identical:
        raise SystemExit("recovery diverged from the serial reference")


def hot_swap_demo(pipeline, replacement, make_feed, n_ticks) -> None:
    """Swap the model mid-feed without dropping a single live session."""
    print("\n--- zero-downtime hot swap: new model halfway through the feed ---")
    engine = ShardedEngine(pipeline, n_workers=2, backend="fork",
                           snapshot_every_ticks=4)

    def feed_with_swap():
        for tick, batch in enumerate(make_feed()):
            if tick == n_ticks // 2:
                # takes effect at the next batch boundary, on every shard
                # in the same tick; live per-session state is untouched
                engine.request_swap(replacement)
            yield batch

    reports = 0
    for event in engine.run_feed(feed_with_swap()):
        if isinstance(event, ModelSwapped):
            identity = event.old_digest == event.new_digest
            print(f"  [t={event.time:6.1f}s] shard {event.shard} swapped "
                  f"{event.old_digest[:8]} -> {event.new_digest[:8]} "
                  f"(identity={identity})")
        elif isinstance(event, SessionReport):
            reports += 1
    print(f"  {reports} sessions closed across the swap, zero dropped; "
          f"swaps this feed: {engine.last_feed_stats['n_swaps']}")


def main() -> None:
    print("training the pipeline on a small lab corpus...")
    lab = generate_lab_dataset(
        sessions_per_title=2, gameplay_duration_s=150.0, rate_scale=0.05, random_state=11
    )
    trained = ContextClassificationPipeline(random_state=11)
    trained.fit(lab.sessions)

    with tempfile.TemporaryDirectory() as tmp:
        model_dir = Path(tmp) / "model"
        save_pipeline(trained, model_dir)
        size_mb = (model_dir / "pipeline.npz").stat().st_size / 1e6
        print(f"persisted fitted pipeline to {model_dir.name}/ ({size_mb:.1f} MB); "
              "loading it back as a deployment worker would...")
        pipeline = load_pipeline(model_dir)

    print("generating 10 concurrent subscriber sessions...")
    generator = SessionGenerator(random_state=23)
    sessions = [
        generator.generate(
            TITLES[index % len(TITLES)],
            SessionConfig(gameplay_duration_s=90.0 + 15.0 * (index % 4), rate_scale=0.04),
        )
        for index in range(10)
    ]
    def make_feed():
        return SessionFeed(
            sessions,
            batch_seconds=2.0,
            start_offsets=[3.0 * index for index in range(len(sessions))],
        )

    feed = make_feed()
    engine = ShardedEngine(pipeline, n_workers=2)
    print(f"running the sharded engine ({engine.n_workers} workers, "
          f"backend={engine.backend})...\n")

    titles_seen = 0
    reports = []
    start = time.perf_counter()
    for event in engine.run_feed(feed):
        if isinstance(event, TitleClassified):
            titles_seen += 1
            print(f"  [t={event.time:6.1f}s] flow :{event.flow.client_port}  "
                  f"title={event.prediction.title!r} "
                  f"({event.prediction.confidence:.2f})")
        elif isinstance(event, SessionReport):
            reports.append(event)
    elapsed = time.perf_counter() - start

    packets = sum(event.n_packets for event in reports)
    print(f"\nclassified {len(reports)} sessions / {packets} packets "
          f"in {elapsed:.1f}s ({packets / max(elapsed, 1e-9):,.0f} packets/s)")
    context_counts = Counter(event.report.context_label for event in reports)
    qoe_counts = Counter(event.report.effective_qoe.value for event in reports)
    print("contexts:", dict(context_counts))
    print("effective QoE:", dict(qoe_counts))

    n_ticks = sum(1 for _ in make_feed())
    fault_tolerance_demo(pipeline, make_feed, n_ticks)
    # swap in the originally trained object: same weights, fresh copy —
    # an identity swap, so the digests printed below come out equal
    hot_swap_demo(pipeline, trained, make_feed, n_ticks)


if __name__ == "__main__":
    main()
