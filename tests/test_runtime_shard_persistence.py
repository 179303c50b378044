"""Sharded execution equality and fitted-pipeline persistence round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.runtime import (
    SessionFeed,
    SessionReport,
    ShardedEngine,
    StreamingEngine,
    load_pipeline,
    save_pipeline,
)
from repro.runtime.shard import shard_of

from test_runtime import assert_report_identical, reports_by_client_port


# ---------------------------------------------------------------------------
# sharded live feeds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend,n_workers", [("serial", 3), ("fork", 2)])
def test_sharded_run_feed_reports_identical(
    fitted_pipeline, runtime_sessions, runtime_offline_reports, backend, n_workers
):
    feed = SessionFeed(runtime_sessions, batch_seconds=3.0)
    sharded = ShardedEngine(fitted_pipeline, n_workers=n_workers, backend=backend)
    reports = reports_by_client_port(sharded.run_feed(feed))
    assert len(reports) == len(runtime_sessions)
    for index, expected in enumerate(runtime_offline_reports):
        assert_report_identical(reports[52000 + index], expected)


def test_sharded_run_feed_matches_single_engine_events(
    fitted_pipeline, runtime_sessions
):
    """Per-flow event sequences are partition-invariant."""
    feed = SessionFeed(runtime_sessions, batch_seconds=4.0)
    single_events = list(StreamingEngine(fitted_pipeline).run(feed))
    feed = SessionFeed(runtime_sessions, batch_seconds=4.0)
    sharded_events = list(
        ShardedEngine(fitted_pipeline, n_workers=3, backend="serial").run_feed(feed)
    )

    def per_flow(events):
        grouped = {}
        for event in events:
            grouped.setdefault(event.flow, []).append(event)
        return grouped

    single, sharded = per_flow(single_events), per_flow(sharded_events)
    assert single.keys() == sharded.keys()
    for key in single:
        kinds_single = [type(e).__name__ for e in single[key]]
        kinds_sharded = [type(e).__name__ for e in sharded[key]]
        assert kinds_single == kinds_sharded
        report_single = single[key][-1]
        report_sharded = sharded[key][-1]
        assert isinstance(report_single, SessionReport)
        assert_report_identical(report_sharded.report, report_single.report)


def test_shard_partitioning_helpers():
    from repro.net.flow import FlowKey

    keys = [
        FlowKey(client_ip=f"10.0.0.{i}", client_port=50000 + i,
                server_ip="203.0.113.9", server_port=49004)
        for i in range(64)
    ]
    shards = [shard_of(key, 4) for key in keys]
    assert set(shards) <= set(range(4))
    assert len(set(shards)) > 1  # keys actually spread
    assert shards == [shard_of(key, 4) for key in keys]  # deterministic


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
def test_save_load_round_trip_reports_identical(
    fitted_pipeline, small_gameplay_corpus, tmp_path
):
    corpus = small_gameplay_corpus.sessions[:6]
    expected = fitted_pipeline.process_many(corpus)
    saved = save_pipeline(fitted_pipeline, tmp_path / "model")
    assert (saved / "pipeline.json").exists()
    assert (saved / "pipeline.npz").exists()
    loaded = load_pipeline(saved)
    assert loaded._fitted
    for got, reference in zip(loaded.process_many(corpus), expected):
        assert_report_identical(got, reference)
    # sequential real-time path too (single-row forest walks)
    assert_report_identical(loaded.process(corpus[0]), expected[0])


def test_loaded_pipeline_streams_identically_in_approx_mode(
    fitted_pipeline, runtime_sessions, tmp_path
):
    """save → load → ``StreamingEngine(session_mode="approx")`` round trip.

    The loaded pipeline's streaming close reports are pinned equal to the
    in-memory pipeline's — and both equal offline approx-tier processing —
    so persistence cannot silently change the approx reducer cascade.
    """
    loaded = load_pipeline(save_pipeline(fitted_pipeline, tmp_path / "model"))
    expected = [
        fitted_pipeline.process(s, qoe_mode="approx") for s in runtime_sessions
    ]

    def approx_stream_reports(pipeline):
        feed = SessionFeed(runtime_sessions, batch_seconds=3.0)
        engine = StreamingEngine(pipeline, session_mode="approx")
        return reports_by_client_port(engine.run(feed))

    in_memory = approx_stream_reports(fitted_pipeline)
    from_disk = approx_stream_reports(loaded)
    assert len(from_disk) == len(runtime_sessions)
    for index, reference in enumerate(expected):
        assert_report_identical(in_memory[52000 + index], reference)
        assert_report_identical(from_disk[52000 + index], in_memory[52000 + index])
        assert from_disk[52000 + index].qoe_approximate


def test_loaded_pipeline_streams_identically_under_scenario(
    fitted_pipeline, runtime_sessions, tmp_path
):
    """The persistence round trip holds under a perturbed scenario profile.

    WiFi jitter bursts (delay + loss) exercise reordering and gaps the lab
    corpus never produces; the loaded pipeline must still emit close reports
    bit-identical to the in-memory pipeline's, which in turn equal offline
    processing of the same perturbed sessions.
    """
    from repro.simulation.profiles import SCENARIO_PROFILES, scenario_sessions

    perturbed = scenario_sessions(
        runtime_sessions, SCENARIO_PROFILES["wifi_jitter"], seed=42
    )
    loaded = load_pipeline(save_pipeline(fitted_pipeline, tmp_path / "model"))
    expected = fitted_pipeline.process_many(perturbed)

    def stream_reports(pipeline):
        feed = SessionFeed(perturbed, batch_seconds=4.0)
        return reports_by_client_port(StreamingEngine(pipeline).run(feed))

    in_memory = stream_reports(fitted_pipeline)
    from_disk = stream_reports(loaded)
    assert len(from_disk) == len(perturbed)
    for index, reference in enumerate(expected):
        assert_report_identical(in_memory[52000 + index], reference)
        assert_report_identical(from_disk[52000 + index], in_memory[52000 + index])


def test_save_load_preserves_forest_predictions_exactly(fitted_pipeline, tmp_path):
    saved = save_pipeline(fitted_pipeline, tmp_path / "model")
    loaded = load_pipeline(saved)
    rng = np.random.default_rng(0)
    for original, restored in (
        (fitted_pipeline.title_classifier.model, loaded.title_classifier.model),
        (fitted_pipeline.activity_classifier.model, loaded.activity_classifier.model),
        (fitted_pipeline.pattern_classifier.model, loaded.pattern_classifier.model),
    ):
        X = rng.normal(size=(64, original.n_features_))
        assert np.array_equal(original.predict_proba(X), restored.predict_proba(X))
        assert np.array_equal(
            original.predict_proba(X[:1]), restored.predict_proba(X[:1])
        )
        assert np.array_equal(original.classes_, restored.classes_)
        assert np.array_equal(
            original.feature_importances_, restored.feature_importances_
        )


def test_save_load_preserves_configuration(fitted_pipeline, tmp_path):
    loaded = load_pipeline(save_pipeline(fitted_pipeline, tmp_path / "model"))
    assert (
        loaded.title_classifier.window_seconds
        == fitted_pipeline.title_classifier.window_seconds
    )
    assert (
        loaded.title_classifier.confidence_threshold
        == fitted_pipeline.title_classifier.confidence_threshold
    )
    assert loaded.activity_classifier.alpha == fitted_pipeline.activity_classifier.alpha
    assert (
        loaded.pattern_classifier.min_slots
        == fitted_pipeline.pattern_classifier.min_slots
    )
    assert (
        loaded.qoe_calibrator.base_thresholds
        == fitted_pipeline.qoe_calibrator.base_thresholds
    )
    assert (
        loaded.qoe_calibrator.pattern_demand
        == fitted_pipeline.qoe_calibrator.pattern_demand
    )


def test_save_load_launch_only_pipeline(small_launch_corpus, tmp_path):
    """A pipeline fitted on launch-only sessions (no gameplay stages) persists.

    The activity and pattern forests are unfitted in that case; the loaded
    pipeline still classifies titles identically.
    """
    from repro.core.pipeline import ContextClassificationPipeline

    pipeline = ContextClassificationPipeline(random_state=3)
    pipeline.title_classifier.model.n_estimators = 30
    pipeline.fit(small_launch_corpus.sessions)
    loaded = load_pipeline(save_pipeline(pipeline, tmp_path / "launch-model"))
    assert loaded._fitted
    assert not hasattr(loaded.pattern_classifier.model, "classes_")
    streams = [s.packets for s in small_launch_corpus.sessions[:4]]
    expected = pipeline.title_classifier.predict_streams(streams)
    got = loaded.title_classifier.predict_streams(streams)
    assert got == expected


def test_load_rejects_unknown_format(fitted_pipeline, tmp_path):
    saved = save_pipeline(fitted_pipeline, tmp_path / "model")
    config_path = saved / "pipeline.json"
    config_path.write_text(config_path.read_text().replace(
        "repro-context-pipeline/1", "something-else/9"
    ))
    with pytest.raises(ValueError, match="unsupported pipeline format"):
        load_pipeline(saved)


def test_forest_export_state_round_trip():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 5))
    y = np.array(["x", "y", "z"])[rng.integers(0, 3, 200)]
    forest = RandomForestClassifier(
        n_estimators=15, max_depth=5, random_state=4
    ).fit(X, y)
    rebuilt = RandomForestClassifier.from_state(
        forest.export_state(), forest.classes_, forest.n_features_
    )
    probe = rng.normal(size=(100, 5))
    assert np.array_equal(forest.predict_proba(probe), rebuilt.predict_proba(probe))
    assert np.array_equal(forest.predict(probe), rebuilt.predict(probe))
