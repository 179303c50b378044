"""Equivalence tests for the batched corpus classification engine.

The batch engine (``ContextClassificationPipeline.process_many`` and the
per-stage ``*_many`` methods underneath it) must produce, for every session,
exactly what a one-element call produces — same titles, same stage
timelines, same pattern gates, same QoE levels, bit-for-bit equal
confidences.  The batched forms are the classifiers' only entry points; the
slot-by-slot replays they vectorise live here as oracles: the transition
modeler :func:`transition_replay` and the pattern gate
:func:`sequential_incremental`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.features import launch_feature_matrix
from repro.core.pattern_classifier import GameplayPatternClassifier, PatternPrediction
from repro.core.pipeline import ContextClassificationPipeline
from repro.core.reducers import raw_slot_matrix
from repro.core.title_classifier import GameTitleClassifier
from repro.core.transition import (
    STAGE_ORDER,
    prefix_transition_features,
    transition_features_from_stages,
)
from repro.ml.forest import RandomForestClassifier
from repro.simulation.catalog import ActivityPattern, PlayerStage


_STAGE_ROW = {stage: index for index, stage in enumerate(STAGE_ORDER)}


def transition_replay(stages):
    """Oracle: the §4.3.2 stage transition modeler, one slot at a time.

    Yields, after each slot, the nine transition attributes so far (the 3×3
    counts over their total; zeros before the first transition) and the
    gameplay slots seen.  A launch or unknown slot breaks the chain without
    counting.
    """
    counts = np.zeros((3, 3))
    previous = None
    seen = 0
    for stage in stages:
        if stage in _STAGE_ROW:
            seen += 1
            if previous is not None:
                counts[_STAGE_ROW[previous], _STAGE_ROW[stage]] += 1
            previous = stage
        else:
            previous = None
        total = counts.sum()
        yield (counts / total if total else np.zeros((3, 3))).reshape(-1), seen


def sequential_incremental(classifier, stages):
    """Oracle: the slot-by-slot replay ``predict_incremental_many`` vectorises.

    The transition modeler consumes one slot at a time; from ``min_slots``
    gameplay slots on, every slot's attribute vector goes through its own
    ``predict_proba`` call, and the first confident one is returned with the
    gameplay slots it needed.  Otherwise the last evaluated (undecided)
    prediction and the total gameplay-slot count are returned.
    """
    gameplay_seen = 0
    last = PatternPrediction(pattern=None, confidence=0.0, confident=False, slots_observed=0)
    for features, gameplay_seen in transition_replay(stages):
        if gameplay_seen < classifier.min_slots:
            continue
        proba = classifier.model.predict_proba(features.reshape(1, -1))[0]
        best = int(np.argmax(proba))
        confidence = float(proba[best])
        confident = confidence >= classifier.confidence_threshold
        last = PatternPrediction(
            pattern=ActivityPattern(str(classifier.model.classes_[best])) if confident else None,
            confidence=confidence,
            confident=confident,
            slots_observed=gameplay_seen,
        )
        if confident:
            return last, gameplay_seen
    return last, gameplay_seen


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
        assert classifier.predict_streams([]) == []
        for stream, got in zip(streams, batched):
            assert got == classifier.predict_streams([stream])[0]

    def test_title_feature_matrix_matches_per_stream_extraction(self, small_gameplay_corpus):
        streams = [s.packets for s in small_gameplay_corpus.sessions[:4]]
        for feature_mode in ("packet-group", "flow-volumetric"):
            classifier = GameTitleClassifier(feature_mode=feature_mode)
            matrix = classifier.feature_matrix(streams)
            assert matrix.shape == (4, len(classifier.feature_names()))
            for row, stream in zip(matrix, streams):
                np.testing.assert_array_equal(row, classifier.feature_matrix([stream])[0])

    def test_launch_feature_matrix_concat_aggregate(self, small_gameplay_corpus):
        streams = [s.packets for s in small_gameplay_corpus.sessions[:3]]
        matrix = launch_feature_matrix(streams, window_seconds=5.0, aggregate="concat")
        assert matrix.shape == (3, 51 * 5)
        for row, stream in zip(matrix, streams):
            np.testing.assert_array_equal(
                row, launch_feature_matrix([stream], window_seconds=5.0, aggregate="concat")[0]
            )

    def test_activity_predict_slots_many_matches_per_session(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        # the stage verdict's one entry point, predict_raw_slots_many: a
        # session's timeline does not depend on the batch it is classified in
        classifier = fitted_pipeline.activity_classifier
        raw = [raw_slot_matrix(s.packets, 1.0) for s in small_gameplay_corpus.sessions[:6]]
        batched = classifier.predict_raw_slots_many(raw)
        assert classifier.predict_raw_slots_many([]) == []
        for matrix, got in zip(raw, batched):
            assert got == classifier.predict_raw_slots_many([matrix])[0]

    def test_pattern_predict_incremental_many_matches_sequential(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        classifier = fitted_pipeline.pattern_classifier
        timelines = fitted_pipeline.activity_classifier.predict_raw_slots_many(
            [raw_slot_matrix(s.packets, 1.0) for s in small_gameplay_corpus.sessions]
        )
        # add edge cases: too short to open the gate, empty, launch-only
        timelines.append([PlayerStage.ACTIVE] * (classifier.min_slots - 1))
        timelines.append([])
        timelines.append([PlayerStage.LAUNCH] * 40)
        batched = classifier.predict_incremental_many(timelines)
        for timeline, got in zip(timelines, batched):
            assert got == sequential_incremental(classifier, timeline)


class _GateStub:
    """A pattern model whose confidence crosses the gate at a drawn slot.

    It answers from the attribute row alone, as a forest does: each prefix
    row of the timelines under test is looked up (by value) in a table of
    the gameplay-slot counts at which it occurs, built with the sequential
    modeler.  A row is confident when its smallest count reaches
    ``open_at``; below that its confidence still varies with the count, so
    the undecided result's confidence is checked too.
    """

    classes_ = np.array([pattern.value for pattern in ActivityPattern])

    def __init__(self, timelines, open_at):
        self.open_at = open_at
        self.calls = 0
        self.seen = {}
        for stages in timelines:
            for features, gameplay in transition_replay(stages):
                key = tuple(features.tolist())
                self.seen[key] = min(self.seen.get(key, gameplay), gameplay)

    def predict_proba(self, X):
        self.calls += 1
        seen = np.array([self.seen[tuple(row)] for row in np.asarray(X).tolist()])
        first = np.where(seen >= self.open_at, 0.95, 0.5 + 1e-4 * seen)
        return np.column_stack([first, 1.0 - first])


def _gated(timelines, open_at, min_slots, threshold=0.75):
    classifier = GameplayPatternClassifier(
        confidence_threshold=threshold, min_slots=min_slots
    )
    classifier.model = _GateStub(timelines, open_at)
    return classifier


_A, _P, _I, _L = PlayerStage.ACTIVE, PlayerStage.PASSIVE, PlayerStage.IDLE, PlayerStage.LAUNCH
#: a passive slot, then active ones: every prefix row differs from the
#: others, so the gate opens at exactly the drawn gameplay-slot count
_DISTINCT = [_P] + [_A] * 99


class TestIncrementalGateProperty:
    """``predict_incremental_many`` equals the sequential oracle field for field."""

    # with min_slots 5, eligible row j of _DISTINCT has 5 + j gameplay slots:
    # rows 15 / 16 straddle the first 16-row round, 79 / 80 the x4 round
    @pytest.mark.parametrize("row, calls", [(15, 1), (16, 2), (79, 2), (80, 3)])
    def test_gate_opens_on_chunk_edges(self, row, calls):
        classifier = _gated([_DISTINCT], open_at=5 + row, min_slots=5)
        ((prediction, needed),) = classifier.predict_incremental_many([_DISTINCT])
        assert prediction.confident and needed == 5 + row
        assert classifier.model.calls == calls
        assert (prediction, needed) == sequential_incremental(classifier, _DISTINCT)

    @settings(max_examples=80, deadline=None)
    @given(
        timelines=st.lists(
            st.lists(st.sampled_from([_A, _A, _A, _P, _I, _L]), max_size=110),
            min_size=1,
            max_size=4,
        ),
        open_at=st.integers(1, 120),
        min_slots=st.sampled_from([1, 5, 30]),
        threshold=st.sampled_from([0.6, 0.75, 0.9]),
    )
    # gate on either side of the first and the x4 round edge, in one batch
    # with a session that never opens and one too short to be eligible
    @example(
        timelines=[_DISTINCT, [_I] * 100, [_A] * 4], open_at=20, min_slots=5, threshold=0.75
    )
    @example(
        timelines=[_DISTINCT, [_I] * 100, [_A] * 4], open_at=21, min_slots=5, threshold=0.75
    )
    @example(timelines=[_DISTINCT, [_L] * 40], open_at=84, min_slots=5, threshold=0.75)
    @example(timelines=[_DISTINCT, []], open_at=85, min_slots=5, threshold=0.75)
    # never opening; launch slots breaking the chain; empty timelines only
    @example(timelines=[_DISTINCT], open_at=120, min_slots=5, threshold=0.75)
    @example(
        timelines=[[_L, _P] + [_A] * 20 + [_L] + [_I, _A] * 20], open_at=30, min_slots=5,
        threshold=0.6,
    )
    @example(timelines=[[], []], open_at=1, min_slots=1, threshold=0.75)
    def test_equals_sequential_oracle(self, timelines, open_at, min_slots, threshold):
        classifier = _gated(timelines, open_at, min_slots, threshold)
        batched = classifier.predict_incremental_many(timelines)
        assert len(batched) == len(timelines)
        for stages, got in zip(timelines, batched):
            expected = sequential_incremental(classifier, stages)
            assert got == expected
            assert type(got[1]) is int and type(got[0].confidence) is float


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
            for slot, (expected, seen) in enumerate(transition_replay(sequence)):
                np.testing.assert_array_equal(features[slot], expected)
                assert gameplay_seen[slot] == seen

    @settings(max_examples=200, deadline=None)
    @given(
        stages=st.lists(
            st.sampled_from([_A, _A, _P, _I, _I, _L, None]), max_size=400
        )
    )
    @example(stages=[])
    @example(stages=[_L] * 30)
    @example(stages=[_A])
    @example(stages=[_L, _A, _A, _L, _I, _P, _L, _L, _A])
    def test_whole_sequence_attributes_equal_the_replay(self, stages):
        """``transition_features_from_stages`` is the replay's final vector.

        ``None`` stands for an unknown label, which breaks the chain like a
        launch slot.
        """
        got = transition_features_from_stages(stages)
        expected = np.zeros(9)
        for expected, _seen in transition_replay(stages):
            pass
        assert got.shape == (9,) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


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
        timelines = fitted_pipeline.activity_classifier.predict_raw_slots_many(
            [raw_slot_matrix(s.packets, 1.0) for s in small_gameplay_corpus.sessions[:4]]
        )
        reference = classifier.predict_incremental_many(timelines)
        original = GameplayPatternClassifier._BATCH_CHUNK
        try:
            GameplayPatternClassifier._BATCH_CHUNK = 1
            tiny_chunks = classifier.predict_incremental_many(timelines)
        finally:
            GameplayPatternClassifier._BATCH_CHUNK = original
        assert tiny_chunks == reference
