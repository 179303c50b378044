"""Quickstart: train the context-classification pipeline and classify a session.

This example mirrors the deployed system end-to-end on a small synthetic
corpus:

1. generate a labeled lab corpus of GeForce-NOW-like sessions;
2. train the Fig. 6 pipeline (title classifier, activity-stage classifier,
   gameplay-pattern inference);
3. classify a fresh session and print its context plus objective vs
   effective QoE;
4. classify a whole batch of unseen sessions in one ``process_many`` call
   (the batched corpus engine used for ISP-scale workloads).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ContextClassificationPipeline,
    SessionConfig,
    SessionGenerator,
    generate_lab_dataset,
)


def main() -> None:
    print("building labeled lab corpus (synthetic GeForce NOW sessions)...")
    lab = generate_lab_dataset(
        sessions_per_title=2,
        gameplay_duration_s=150.0,
        rate_scale=0.05,
        random_state=7,
    )
    print(f"  {len(lab)} sessions across {len(lab.titles())} titles, "
          f"{lab.total_playtime_hours():.1f} hours of playtime")

    print("training the context classification pipeline (Fig. 6)...")
    pipeline = ContextClassificationPipeline(random_state=7)
    pipeline.fit(lab.sessions)

    print("classifying a fresh, unseen session of Hearthstone...")
    generator = SessionGenerator(random_state=2024)
    session = generator.generate(
        "Hearthstone", SessionConfig(gameplay_duration_s=150.0, rate_scale=0.05)
    )
    report = pipeline.process(session)

    print()
    print(f"  platform           : {report.platform}")
    print(f"  classified title   : {report.title.title} "
          f"(confidence {report.title.confidence:.2f})")
    print(f"  gameplay pattern   : {report.pattern.label}")
    fractions = ", ".join(
        f"{stage.value}={share:.0%}" for stage, share in report.stage_fractions.items()
    )
    print(f"  stage mix          : {fractions}")
    metrics = report.objective_metrics
    print(f"  measured metrics   : {metrics.frame_rate:.0f} fps, "
          f"{metrics.throughput_mbps:.1f} Mbps, {metrics.loss_rate:.2%} loss")
    print(f"  objective QoE      : {report.objective_qoe.value}")
    print(f"  effective QoE      : {report.effective_qoe.value} "
          "(calibrated with the classified context)")
    print()
    print("ground truth:", session.title_name, "/", session.pattern.value)

    print("\nclassifying a batch of 6 unseen sessions with process_many...")
    batch = [
        generator.generate(
            name, SessionConfig(gameplay_duration_s=120.0, rate_scale=0.05)
        )
        for name in ("Fortnite", "Hearthstone", "Cyberpunk 2077",
                     "Dota 2", "Genshin Impact", "Overwatch 2")
    ]
    reports = pipeline.process_many(batch)
    for fresh, report in zip(batch, reports):
        print(f"  {fresh.title_name:<16} -> {report.context_label:<28} "
              f"effective QoE {report.effective_qoe.value}")


if __name__ == "__main__":
    main()
