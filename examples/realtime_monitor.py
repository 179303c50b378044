"""Real-time monitoring example: live context events + fleet QoE rollups.

The deployed system (Fig. 6) classifies the game title within the first five
seconds of a streaming flow, tracks the player activity stage every second,
and infers the gameplay activity pattern once the confidence gate opens.
This example replays a handful of concurrent synthetic sessions through the
streaming runtime (:mod:`repro.runtime`) exactly as a network probe would
observe them — one-second packet batches demultiplexed by 5-tuple — and
prints the typed context events as the gates open, including the provisional
per-10-second ``QoEInterval`` verdicts that surface degraded sessions
*before* they end.

The engine runs with the fleet analytics tier attached
(``analytics=True``): every event also folds into a
:class:`~repro.analytics.fleet.FleetAggregator`, which maintains
per-``(region, title, qoe_mode)`` rollups — p50/p95 frame lag, freeze rate,
loss and throughput quantiles — in O(1) state per key, with nothing
retained per session after it closes.  The closing summary pane below is
printed straight from the aggregator; at ISP scale the identical rollups
come out of the sharded runtime (``ShardedEngine(analytics=True)``) or an
offline fold (:func:`repro.analytics.fleet.fold_corpus`), bit-identical
across all three paths.  Only the live paths emit the per-window
``QoEInterval`` events printed here; the offline fold folds the same
window facts straight from each sealed window without building them.

Run with::

    python examples/realtime_monitor.py
"""

from __future__ import annotations

from repro import (
    ContextClassificationPipeline,
    SessionConfig,
    SessionGenerator,
    generate_lab_dataset,
)
from repro.runtime import (
    PatternInferred,
    QoEInterval,
    SessionFeed,
    SessionReport,
    SessionStarted,
    StageUpdate,
    StreamingEngine,
    TitleClassified,
    TitleReclassified,
)

#: (title, serving region) of each concurrently monitored session.
MONITORED = (
    ("CS:GO/CS2", "eu-central"),
    ("Fortnite", "eu-central"),
    ("CS:GO/CS2", "eu-west"),
    ("Hearthstone", "eu-west"),
)


def main() -> None:
    print("training the pipeline on a small lab corpus...")
    lab = generate_lab_dataset(
        sessions_per_title=2, gameplay_duration_s=150.0, rate_scale=0.05, random_state=11
    )
    pipeline = ContextClassificationPipeline(random_state=11)
    pipeline.fit(lab.sessions)

    print("generating live sessions to monitor...")
    generator = SessionGenerator(random_state=5)
    sessions = [
        generator.generate(
            title, SessionConfig(gameplay_duration_s=240.0, rate_scale=0.05)
        )
        for title, _region in MONITORED
    ]
    regions = [region for _title, region in MONITORED]

    # one-second batches, exactly what a probe's polling loop would hand
    # over; analytics=True attaches the fleet aggregator to the engine
    feed = SessionFeed(sessions, batch_seconds=1.0, regions=regions)
    engine = StreamingEngine(pipeline, session_mode="bounded", analytics=True)

    print("\nlive event stream (stage updates printed every 60 s):")
    for event in engine.run(feed):
        if isinstance(event, SessionStarted):
            print(f"  [t={event.time:6.1f}s] session started: "
                  f"{event.flow.client_ip}:{event.flow.client_port} -> "
                  f"{event.flow.server_ip}:{event.flow.server_port}")
        elif isinstance(event, TitleClassified):
            print(f"  [t={event.time:6.1f}s] :{event.flow.client_port} title: "
                  f"{event.prediction.title} "
                  f"(confidence {event.prediction.confidence:.2f})")
        elif isinstance(event, TitleReclassified):
            print(f"  [t={event.time:6.1f}s] :{event.flow.client_port} title "
                  f"re-classified after late window packets: "
                  f"{event.previous.title} -> {event.prediction.title}")
        elif isinstance(event, StageUpdate):
            if event.slot_index and event.slot_index % 60 == 0:
                print(f"  [t={event.time:6.1f}s] :{event.flow.client_port} "
                      f"slot {event.slot_index:4d}  stage={event.stage.value}")
        elif isinstance(event, QoEInterval):
            if event.objective.value != "good" and event.n_packets:
                print(f"  [t={event.time:6.1f}s] :{event.flow.client_port} "
                      f"provisional QoE window #{event.interval_index}: "
                      f"{event.objective.value}  "
                      f"({event.metrics.frame_rate:.0f} fps, "
                      f"{event.metrics.throughput_mbps:.1f} Mbps)")
        elif isinstance(event, PatternInferred):
            print(f"  [t={event.time:6.1f}s] :{event.flow.client_port} >>> "
                  f"pattern inferred: {event.prediction.pattern.value} "
                  f"(confidence {event.prediction.confidence:.2f})")
        elif isinstance(event, SessionReport):
            report = event.report
            print(f"  [t={event.time:6.1f}s] :{event.flow.client_port} closed "
                  f"({event.reason}, {event.n_packets} packets over "
                  f"{event.duration_s:.0f}s): {report.context_label}, "
                  f"objective={report.objective_qoe.value}, "
                  f"effective={report.effective_qoe.value}")

    fleet = engine.analytics
    print("\nfleet rollups (per region / title, from the attached "
          "FleetAggregator):")
    header = (f"  {'region':<12} {'title':<16} {'sess':>4} {'lag p50':>8} "
              f"{'lag p95':>8} {'thr p50':>8} {'freeze':>7} {'loss p95':>9}")
    print(header)
    for (region, title, _mode), summary in fleet.summary().items():
        print(f"  {region:<12} {title:<16} {summary['n_sessions']:>4} "
              f"{summary['lag_p50_ms']:>7.1f}ms {summary['lag_p95_ms']:>7.1f}ms "
              f"{summary['throughput_p50_mbps']:>5.1f}Mbps "
              f"{summary['freeze_rate']:>6.1%} {summary['loss_p95']:>8.3%}")
    print(f"  retained analytics state: {fleet.nbytes()} bytes over "
          f"{len(fleet.keys())} rollup keys "
          f"({fleet.n_live_flows} live flows pending)")

    print("\nground truth:",
          ", ".join(f":{52000 + i} {s.title_name}@{r}"
                    for i, (s, r) in enumerate(zip(sessions, regions))))


if __name__ == "__main__":
    main()
