"""Tests for the title / activity-stage / pattern classifiers and transition modeler."""

import numpy as np
import pytest

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.pattern_classifier import GameplayPatternClassifier
from repro.core.title_classifier import GameTitleClassifier
from repro.core.pipeline import ContextClassificationPipeline
from repro.core.reducers import raw_slot_matrix
from repro.core.transition import (
    TRANSITION_FEATURE_NAMES,
    prefix_transition_features,
    transition_features_from_stages,
)
from repro.core.volumetric import OnlineVolumetricTracker, VolumetricAttributeGenerator
from repro.ml.forest import RandomForestClassifier
from repro.simulation.catalog import PlayerStage, UNKNOWN_TITLE

from test_batch_pipeline import transition_replay


class TestVolumetricGenerator:
    def test_raw_matrix_shape(self, fortnite_session):
        raw = raw_slot_matrix(fortnite_session.packets, 1.0)
        assert raw.shape[1] == 4
        assert raw.shape[0] >= int(fortnite_session.duration) - 1

    def test_relative_values_within_unit_interval(self, fortnite_session):
        generator = VolumetricAttributeGenerator()
        raw = raw_slot_matrix(fortnite_session.packets, 1.0)
        (processed,) = generator.smooth_many([generator.relative_matrix(raw)])
        assert processed.min() >= 0.0
        assert processed.max() <= 1.0 + 1e-9

    def test_active_slots_have_higher_relative_volume_than_idle(self, fortnite_session):
        generator = VolumetricAttributeGenerator()
        raw = raw_slot_matrix(fortnite_session.packets, 1.0)
        (processed,) = generator.smooth_many([generator.relative_matrix(raw)])
        labels = fortnite_session.slot_ground_truth(1.0)
        n = min(len(labels), processed.shape[0])
        active = [i for i in range(n) if labels[i] is PlayerStage.ACTIVE]
        idle = [i for i in range(n) if labels[i] is PlayerStage.IDLE]
        if active and idle:
            assert processed[active, 0].mean() > processed[idle, 0].mean()

    def test_relative_matrix_validates_columns(self):
        generator = VolumetricAttributeGenerator()
        with pytest.raises(ValueError):
            generator.relative_matrix(np.zeros((5, 3)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="slot_duration"):
            PlayerActivityClassifier(slot_duration=0)
        with pytest.raises(ValueError):
            VolumetricAttributeGenerator(alpha=0)

    def test_online_tracker_matches_bounds(self):
        tracker = OnlineVolumetricTracker(alpha=0.5)
        for raw in ([10, 100, 5, 50], [20, 200, 10, 100], [2, 20, 1, 10]):
            smoothed = tracker.step(raw)
            assert len(smoothed) == 4
            assert all(0.0 <= value <= 1.0 for value in smoothed)

    def test_online_tracker_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            OnlineVolumetricTracker().step([1, 2, 3])


class TestTransitionModeler:
    def test_feature_names_are_nine(self):
        assert len(TRANSITION_FEATURE_NAMES) == 9

    def test_counts_self_retention(self):
        features, gameplay_seen = prefix_transition_features([PlayerStage.ACTIVE] * 5)
        # the first slot has no predecessor; the other four are active -> active
        assert features[0].sum() == 0.0 and gameplay_seen.tolist() == [1, 2, 3, 4, 5]
        assert transition_features_from_stages([PlayerStage.ACTIVE] * 5)[0] == 1.0

    def test_launch_breaks_chain(self):
        features = transition_features_from_stages(
            [PlayerStage.ACTIVE, PlayerStage.LAUNCH, PlayerStage.IDLE]
        )
        # no transition counted across the launch slot
        assert features.sum() == 0.0

    def test_probability_matrix_sums_to_one(self):
        features = transition_features_from_stages(
            [PlayerStage.IDLE, PlayerStage.ACTIVE, PlayerStage.PASSIVE, PlayerStage.ACTIVE]
        )
        assert features.sum() == pytest.approx(1.0)

    def test_empty_modeler_all_zero(self):
        assert transition_features_from_stages([]).tolist() == [0.0] * 9

    def test_stage_occupancy(self):
        stages = [PlayerStage.ACTIVE, PlayerStage.ACTIVE, PlayerStage.IDLE, PlayerStage.LAUNCH]
        occupancy = ContextClassificationPipeline._stage_fractions(stages)
        assert tuple(occupancy) == PlayerStage.gameplay_stages()  # the report's key order
        assert occupancy[PlayerStage.ACTIVE] == pytest.approx(2 / 3)
        assert occupancy[PlayerStage.IDLE] == pytest.approx(1 / 3)
        assert occupancy[PlayerStage.PASSIVE] == 0.0
        empty = ContextClassificationPipeline._stage_fractions([PlayerStage.LAUNCH])
        assert empty == {stage: 0.0 for stage in PlayerStage.gameplay_stages()}

    def test_transition_features_helper_matches_modeler(self):
        stages = [PlayerStage.IDLE, PlayerStage.ACTIVE, PlayerStage.ACTIVE]
        *_, (expected, _seen) = transition_replay(stages)
        np.testing.assert_array_equal(transition_features_from_stages(stages), expected)


class TestGameTitleClassifier:
    def test_fit_predict_on_small_corpus(self, small_launch_corpus):
        classifier = GameTitleClassifier(
            model=RandomForestClassifier(n_estimators=40, max_depth=10, random_state=0)
        )
        streams = [s.packets for s in small_launch_corpus.sessions]
        titles = [s.title_name for s in small_launch_corpus.sessions]
        classifier.fit(streams, titles)
        accuracy, predictions = classifier.evaluate(streams, titles)
        assert accuracy > 0.8  # in-sample accuracy on 5 distinct titles
        assert all(0.0 <= p.confidence <= 1.0 for p in predictions)

    def test_low_confidence_reports_unknown(self, small_launch_corpus):
        classifier = GameTitleClassifier(
            confidence_threshold=0.99,
            model=RandomForestClassifier(n_estimators=10, random_state=0),
        )
        streams = [s.packets for s in small_launch_corpus.sessions]
        titles = [s.title_name for s in small_launch_corpus.sessions]
        classifier.fit(streams, titles)
        predictions = classifier.predict_streams(streams[:3])
        # with an extreme threshold nearly everything falls back to unknown
        assert any(p.title == UNKNOWN_TITLE for p in predictions)

    def test_feature_names_depend_on_aggregate(self):
        concat = GameTitleClassifier(feature_aggregate="concat", window_seconds=5.0)
        mean = GameTitleClassifier(feature_aggregate="mean")
        assert len(concat.feature_names()) == 51 * 5
        assert len(mean.feature_names()) == 51

    def test_flow_volumetric_mode(self, small_launch_corpus):
        classifier = GameTitleClassifier(
            feature_mode="flow-volumetric",
            model=RandomForestClassifier(n_estimators=20, random_state=0),
        )
        streams = [s.packets for s in small_launch_corpus.sessions]
        titles = [s.title_name for s in small_launch_corpus.sessions]
        classifier.fit(streams, titles)
        assert len(classifier.feature_names()) == 4

    def test_mismatched_labels_rejected(self, small_launch_corpus):
        classifier = GameTitleClassifier()
        with pytest.raises(ValueError):
            classifier.fit([small_launch_corpus.sessions[0].packets], ["a", "b"])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GameTitleClassifier(window_seconds=0)
        with pytest.raises(ValueError):
            GameTitleClassifier(confidence_threshold=2.0)
        with pytest.raises(ValueError):
            GameTitleClassifier(feature_mode="bogus")
        with pytest.raises(ValueError):
            GameTitleClassifier(feature_aggregate="bogus")


class TestPlayerActivityClassifier:
    @pytest.fixture(scope="class")
    def trained(self, small_gameplay_corpus):
        classifier = PlayerActivityClassifier(
            model=RandomForestClassifier(n_estimators=40, max_depth=10, random_state=0),
            random_state=0,
        )
        sessions = small_gameplay_corpus.sessions
        classifier.fit(
            [s.packets for s in sessions],
            [s.slot_ground_truth(1.0) for s in sessions],
        )
        return classifier

    def test_in_sample_accuracy(self, trained, small_gameplay_corpus):
        sessions = small_gameplay_corpus.sessions
        evaluation = trained.evaluate(
            [s.packets for s in sessions],
            [s.slot_ground_truth(1.0) for s in sessions],
        )
        assert evaluation["overall"] > 0.85

    def test_predict_slots_returns_player_stages(self, trained, fortnite_session):
        (stages,) = trained.predict_raw_slots_many(
            [raw_slot_matrix(fortnite_session.packets, trained.slot_duration)]
        )
        assert stages
        assert all(isinstance(stage, PlayerStage) for stage in stages)
        assert all(stage is not PlayerStage.LAUNCH for stage in stages)

    def test_label_alignment_skips_launch(self, trained, fortnite_session):
        X, y = trained.corpus_features_and_labels(
            [fortnite_session.packets], [fortnite_session.slot_ground_truth(1.0)]
        )
        assert X.shape[0] == y.shape[0]
        assert "launch" not in set(y.tolist())

    def test_mismatched_corpus_rejected(self, trained, fortnite_session):
        with pytest.raises(ValueError):
            trained.corpus_features_and_labels([fortnite_session.packets], [])


class TestGameplayPatternClassifier:
    @pytest.fixture(scope="class")
    def sequences(self, small_gameplay_corpus):
        data = [
            (s.slot_ground_truth(1.0), s.pattern) for s in small_gameplay_corpus.sessions
        ]
        return [d[0] for d in data], [d[1] for d in data]

    def test_fit_and_evaluate(self, sequences):
        stage_sequences, patterns = sequences
        classifier = GameplayPatternClassifier(
            model=RandomForestClassifier(n_estimators=40, max_depth=10, random_state=0),
            random_state=0,
        )
        classifier.fit_stage_sequences(stage_sequences, patterns)
        result = classifier.evaluate(stage_sequences, patterns)
        assert result["overall"] > 0.7

    def test_short_sequence_is_undecided(self, sequences):
        stage_sequences, patterns = sequences
        classifier = GameplayPatternClassifier(min_slots=30, random_state=0)
        classifier.fit_stage_sequences(stage_sequences, patterns)
        ((prediction, slots),) = classifier.predict_incremental_many(
            [[PlayerStage.ACTIVE] * 5]
        )
        assert prediction.pattern is None
        assert not prediction.confident
        assert slots == 5

    def test_incremental_prediction_reports_slots(self, sequences):
        stage_sequences, patterns = sequences
        classifier = GameplayPatternClassifier(
            confidence_threshold=0.6,
            model=RandomForestClassifier(n_estimators=40, max_depth=10, random_state=0),
            random_state=0,
        )
        classifier.fit_stage_sequences(stage_sequences, patterns)
        ((prediction, slots_needed),) = classifier.predict_incremental_many(
            stage_sequences[:1]
        )
        assert slots_needed >= classifier.min_slots
        assert prediction.slots_observed == slots_needed or not prediction.confident

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GameplayPatternClassifier(confidence_threshold=1.5)
        with pytest.raises(ValueError):
            GameplayPatternClassifier(min_slots=0)

    def test_mismatched_labels_rejected(self):
        classifier = GameplayPatternClassifier()
        with pytest.raises(ValueError):
            classifier.fit_stage_sequences([[PlayerStage.ACTIVE]], [])
