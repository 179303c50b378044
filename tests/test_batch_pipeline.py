"""Equivalence tests for the batched corpus classification engine.

The batch engine (``ContextClassificationPipeline.process_many`` and the
per-stage ``*_many`` methods underneath it) must produce results identical
to the sequential per-session path — same titles, same stage timelines,
same pattern gates, same QoE levels, bit-for-bit equal confidences.
"""

import numpy as np
import pytest

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.features import launch_feature_matrix, launch_features
from repro.core.pattern_classifier import GameplayPatternClassifier
from repro.core.pipeline import ContextClassificationPipeline
from repro.core.transition import (
    StageTransitionModeler,
    prefix_transition_features,
)
from repro.ml.forest import RandomForestClassifier
from repro.simulation.catalog import PlayerStage


@pytest.fixture(scope="module")
def fitted_pipeline(small_gameplay_corpus):
    pipeline = ContextClassificationPipeline(random_state=3)
    # shrink the forests to keep the test fast
    pipeline.title_classifier.model = RandomForestClassifier(
        n_estimators=30, max_depth=10, random_state=3
    )
    pipeline.activity_classifier.model = RandomForestClassifier(
        n_estimators=30, max_depth=10, random_state=3
    )
    pipeline.pattern_classifier.model = RandomForestClassifier(
        n_estimators=30, max_depth=10, random_state=3
    )
    pipeline.fit(small_gameplay_corpus.sessions)
    return pipeline


class TestProcessManyEquivalence:
    def test_reports_identical_to_sequential_process(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        sessions = small_gameplay_corpus.sessions
        sequential = [fitted_pipeline.process(s) for s in sessions]
        batched = fitted_pipeline.process_many(sessions)
        assert len(sequential) == len(batched)
        for expected, got in zip(sequential, batched):
            assert got.platform == expected.platform
            assert got.title == expected.title
            assert got.stage_timeline == expected.stage_timeline
            assert got.stage_fractions == expected.stage_fractions
            assert got.pattern == expected.pattern
            assert got.objective_metrics == expected.objective_metrics
            assert got.objective_qoe is expected.objective_qoe
            assert got.effective_qoe is expected.effective_qoe

    def test_empty_batch(self, fitted_pipeline):
        assert fitted_pipeline.process_many([]) == []

    def test_report_levels_are_the_per_session_calibration(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        calibrator = fitted_pipeline.qoe_calibrator
        reports = fitted_pipeline.process_many(small_gameplay_corpus.sessions)
        for report in reports:
            metrics = report.objective_metrics
            assert report.objective_qoe is calibrator.objective_level(metrics)
            assert report.effective_qoe is calibrator.effective_level(
                metrics,
                title_name=None if report.title.is_unknown else report.title.title,
                pattern=fitted_pipeline._resolve_pattern(report.title, report.pattern),
                stage_fractions=report.stage_fractions,
            )

    def test_respects_latency_override(self, fitted_pipeline, small_gameplay_corpus):
        session = small_gameplay_corpus.sessions[0]
        batched = fitted_pipeline.process_many([session], latency_ms=33.0)
        assert batched[0].objective_metrics.latency_ms == pytest.approx(33.0)

    def test_unfitted_pipeline_raises(self, small_gameplay_corpus):
        with pytest.raises(RuntimeError, match="not fitted"):
            ContextClassificationPipeline().process_many(
                [small_gameplay_corpus.sessions[0]]
            )


class TestBatchedStages:
    def test_title_predict_streams_matches_per_stream(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        classifier = fitted_pipeline.title_classifier
        streams = [s.packets for s in small_gameplay_corpus.sessions[:6]]
        batched = classifier.predict_streams(streams)
        for stream, got in zip(streams, batched):
            expected = classifier.predict_stream(stream)
            assert got == expected

    def test_title_feature_matrix_matches_per_stream_extraction(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        classifier = fitted_pipeline.title_classifier
        streams = [s.packets for s in small_gameplay_corpus.sessions[:4]]
        matrix = classifier.feature_matrix(streams)
        for row, stream in zip(matrix, streams):
            np.testing.assert_array_equal(row, classifier.extract_features(stream))

    def test_launch_feature_matrix_concat_aggregate(self, small_gameplay_corpus):
        streams = [s.packets for s in small_gameplay_corpus.sessions[:3]]
        matrix = launch_feature_matrix(streams, window_seconds=5.0, aggregate="concat")
        assert matrix.shape == (3, 51 * 5)
        for row, stream in zip(matrix, streams):
            np.testing.assert_array_equal(
                row, launch_features(stream, window_seconds=5.0, aggregate="concat")
            )

    def test_activity_predict_slots_many_matches_per_session(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        classifier = fitted_pipeline.activity_classifier
        streams = [s.packets for s in small_gameplay_corpus.sessions[:6]]
        batched = classifier.predict_slots_many(streams)
        assert classifier.predict_slots_many([]) == []
        for stream, got in zip(streams, batched):
            assert got == classifier.predict_slots(stream)

    def test_pattern_predict_incremental_many_matches_sequential(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        classifier = fitted_pipeline.pattern_classifier
        timelines = fitted_pipeline.activity_classifier.predict_slots_many(
            [s.packets for s in small_gameplay_corpus.sessions]
        )
        # add edge cases: too short to open the gate, empty, launch-only
        timelines.append([PlayerStage.ACTIVE] * (classifier.min_slots - 1))
        timelines.append([])
        timelines.append([PlayerStage.LAUNCH] * 40)
        batched = classifier.predict_incremental_many(timelines)
        for timeline, got in zip(timelines, batched):
            expected = classifier.predict_incremental(timeline)
            assert got == expected


class TestPrefixTransitionFeatures:
    def test_matches_sequential_modeler_replay(self):
        rng = np.random.default_rng(5)
        stages = [
            [PlayerStage.LAUNCH] * 3
            + [
                (PlayerStage.ACTIVE, PlayerStage.PASSIVE, PlayerStage.IDLE)[i]
                for i in rng.integers(0, 3, 60)
            ],
            [PlayerStage.ACTIVE, PlayerStage.LAUNCH, PlayerStage.ACTIVE],
            [],
        ]
        for sequence in stages:
            features, gameplay_seen = prefix_transition_features(sequence)
            assert features.shape == (len(sequence), 9)
            modeler = StageTransitionModeler()
            seen = 0
            for slot, stage in enumerate(sequence):
                modeler.update(stage)
                if stage in PlayerStage.gameplay_stages():
                    seen += 1
                np.testing.assert_array_equal(
                    features[slot], modeler.feature_vector()
                )
                assert gameplay_seen[slot] == seen


class TestBatchForestTraversal:
    def test_forest_batch_rows_match_single_row_calls(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, 7))
        y = rng.integers(0, 3, 120).astype(str)
        forest = RandomForestClassifier(
            n_estimators=40, max_depth=6, random_state=9
        ).fit(X, y)
        batched = forest.predict_proba(X)
        for row, expected in zip(X, batched):
            np.testing.assert_array_equal(
                forest.predict_proba(row.reshape(1, -1))[0], expected
            )

    def test_forest_batch_handles_unseen_class_in_bootstrap(self):
        # tiny corpus with a rare class: some bootstrap samples miss it, so
        # per-tree probabilities need column alignment in the flat path too
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3))
        y = np.array(["a"] * 10 + ["b", "c"])
        forest = RandomForestClassifier(
            n_estimators=25, max_depth=4, random_state=1
        ).fit(X, y)
        batched = forest.predict_proba(X)
        assert batched.shape == (12, 3)
        for row, expected in zip(X, batched):
            np.testing.assert_array_equal(
                forest.predict_proba(row.reshape(1, -1))[0], expected
            )

    def test_activity_corpus_training_unchanged(self, small_gameplay_corpus):
        # fitting through the batched cascade still learns sensible stages
        sessions = small_gameplay_corpus.sessions
        classifier = PlayerActivityClassifier(random_state=0)
        classifier.model = RandomForestClassifier(
            n_estimators=20, max_depth=8, random_state=0
        )
        labels = [s.slot_ground_truth(1.0) for s in sessions]
        classifier.fit([s.packets for s in sessions], labels)
        evaluation = classifier.evaluate([s.packets for s in sessions], labels)
        assert evaluation["overall"] > 0.6


class TestGameplayPatternChunking:
    def test_chunk_boundaries_do_not_change_results(self, fitted_pipeline, small_gameplay_corpus):
        classifier = fitted_pipeline.pattern_classifier
        timelines = fitted_pipeline.activity_classifier.predict_slots_many(
            [s.packets for s in small_gameplay_corpus.sessions[:4]]
        )
        reference = classifier.predict_incremental_many(timelines)
        original = GameplayPatternClassifier._BATCH_CHUNK
        try:
            GameplayPatternClassifier._BATCH_CHUNK = 1
            tiny_chunks = classifier.predict_incremental_many(timelines)
        finally:
            GameplayPatternClassifier._BATCH_CHUNK = original
        assert tiny_chunks == reference
