"""Tests for QoE estimation, effective-QoE calibration and the full pipeline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import qoe as qoe_module
from repro.core import reducers as reducers_module
from repro.core.pipeline import ContextClassificationPipeline
from repro.core.qoe import (
    EffectiveQoECalibrator,
    ObjectiveQoEEstimator,
    QoELevel,
    QoEMetrics,
    QoEThresholds,
    qoe_level_from_metrics,
)
from repro.core.transition import stage_codes
from repro.ml.forest import RandomForestClassifier
from repro.net.packet import RTP_NONE, Direction
from repro.simulation.catalog import ActivityPattern, PlayerStage


def estimate_stream(estimator, stream, latency_ms=None):
    """Session-average QoE of a sorted stream: ``estimate_arrays`` over its views.

    The downstream views of a time-sorted stream are exactly the columns the
    cascade's QoE reducer retains, so this is what a report's metrics are.
    """
    down = stream.direction_indices(Direction.DOWNSTREAM)
    columns = stream.columns()

    def rtp(column):
        if column is None:
            return np.array([], dtype=np.int64)
        values = column[down]
        return values[values != RTP_NONE]

    return estimator.estimate_arrays(
        duration_s=stream.duration,
        down_times=columns.timestamps[down],
        down_payload_bytes=float(columns.payload_sizes[down].sum()),
        rtp_timestamps=rtp(columns.rtp_timestamp),
        rtp_sequences=rtp(columns.rtp_sequence),
        latency_ms=latency_ms,
    )


def metrics(frame_rate=60.0, throughput=20.0, latency=10.0, loss=0.001):
    return QoEMetrics(
        frame_rate=frame_rate,
        throughput_mbps=throughput,
        latency_ms=latency,
        loss_rate=loss,
    )


class TestObjectiveQoELevels:
    def test_good_session(self):
        assert qoe_level_from_metrics(metrics()) is QoELevel.GOOD

    def test_low_frame_rate_is_bad(self):
        assert qoe_level_from_metrics(metrics(frame_rate=20.0)) is QoELevel.BAD

    def test_low_throughput_is_bad(self):
        assert qoe_level_from_metrics(metrics(throughput=5.0)) is QoELevel.BAD

    def test_high_latency_is_bad(self):
        assert qoe_level_from_metrics(metrics(latency=120.0)) is QoELevel.BAD

    def test_medium_band(self):
        assert qoe_level_from_metrics(metrics(frame_rate=40.0)) is QoELevel.MEDIUM

    def test_worst_verdict_wins(self):
        assert (
            qoe_level_from_metrics(metrics(frame_rate=40.0, loss=0.05)) is QoELevel.BAD
        )

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            QoEThresholds(frame_rate_good=20.0, frame_rate_bad=30.0)
        with pytest.raises(ValueError):
            QoEThresholds(latency_good_ms=100.0, latency_bad_ms=50.0)


class TestObjectiveQoEEstimator:
    def test_estimates_on_synthetic_session(self, fortnite_session):
        estimator = ObjectiveQoEEstimator()
        result = estimate_stream(estimator, fortnite_session.packets, latency_ms=8.0)
        assert result.throughput_mbps > 0
        assert result.frame_rate > 0
        assert result.latency_ms == pytest.approx(8.0)
        assert 0.0 <= result.loss_rate < 0.05

    def test_loss_detected_from_sequence_gaps(self, cyberpunk_session):
        from repro.net.conditions import NetworkConditions, apply_conditions_columns
        from repro.net.packet import PacketStream

        lossy = apply_conditions_columns(
            cyberpunk_session.packets.columns(),
            NetworkConditions(latency_ms=5, jitter_ms=1, loss_rate=0.05),
            rng=np.random.default_rng(0),
        )
        estimator = ObjectiveQoEEstimator()
        clean = estimate_stream(estimator, cyberpunk_session.packets)
        degraded = estimate_stream(estimator, PacketStream.from_columns(lossy))
        assert degraded.loss_rate > clean.loss_rate

    def test_invalid_slot_duration(self):
        with pytest.raises(ValueError):
            ObjectiveQoEEstimator(slot_duration=0)


class TestEffectiveQoECalibrator:
    def test_low_demand_title_corrected_to_good(self):
        calibrator = EffectiveQoECalibrator()
        low_demand = metrics(frame_rate=28.0, throughput=6.0)
        assert calibrator.objective_level(low_demand) is QoELevel.BAD
        assert (
            calibrator.effective_level(low_demand, title_name="Hearthstone")
            is QoELevel.GOOD
        )

    def test_high_demand_title_not_over_corrected(self):
        calibrator = EffectiveQoECalibrator()
        weak = metrics(frame_rate=20.0, throughput=4.0)
        assert calibrator.effective_level(weak, title_name="Fortnite") in (
            QoELevel.MEDIUM,
            QoELevel.BAD,
        )

    def test_latency_and_loss_expectations_unchanged(self):
        calibrator = EffectiveQoECalibrator()
        congested = metrics(latency=150.0)
        assert calibrator.objective_level(congested) is QoELevel.BAD
        assert (
            calibrator.effective_level(congested, title_name="Hearthstone")
            is QoELevel.BAD
        )

    def test_idle_heavy_stage_mix_relaxes_expectations(self):
        calibrator = EffectiveQoECalibrator()
        stage_mix = {
            PlayerStage.IDLE: 0.7,
            PlayerStage.PASSIVE: 0.2,
            PlayerStage.ACTIVE: 0.1,
        }
        borderline = metrics(frame_rate=33.0, throughput=7.0)
        assert calibrator.objective_level(borderline) is not QoELevel.GOOD
        assert (
            calibrator.effective_level(
                borderline, title_name="Cyberpunk 2077", stage_fractions=stage_mix
            )
            is QoELevel.GOOD
        )

    def test_pattern_fallback_for_unknown_titles(self):
        calibrator = EffectiveQoECalibrator()
        borderline = metrics(frame_rate=45.0, throughput=10.0)
        effective = calibrator.effective_level(
            borderline, pattern=ActivityPattern.CONTINUOUS_PLAY
        )
        assert effective is QoELevel.GOOD

    def test_fps_setting_caps_frame_rate_expectation(self):
        calibrator = EffectiveQoECalibrator()
        thirty_fps_user = metrics(frame_rate=29.0, throughput=20.0)
        assert (
            calibrator.effective_level(
                thirty_fps_user, title_name="Fortnite", fps_setting=30
            )
            is QoELevel.GOOD
        )

    def test_calibrated_thresholds_never_exceed_base(self):
        calibrator = EffectiveQoECalibrator()
        calibrated = calibrator.calibrated_thresholds(title_name="Hearthstone")
        base = calibrator.base_thresholds
        assert calibrated.frame_rate_bad <= base.frame_rate_bad
        assert calibrated.throughput_bad_mbps <= base.throughput_bad_mbps
        assert calibrated.latency_bad_ms == base.latency_bad_ms
        assert calibrated.loss_bad == base.loss_bad


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def fitted_pipeline(self, small_gameplay_corpus):
        pipeline = ContextClassificationPipeline(random_state=3)
        # shrink the forests to keep the integration test fast
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

    def test_process_returns_complete_report(self, fitted_pipeline, small_gameplay_corpus):
        report = fitted_pipeline.process(small_gameplay_corpus.sessions[0])
        assert report.platform == "GeForce NOW"
        assert report.title.title
        assert report.stage_timeline
        assert report.objective_qoe in QoELevel
        assert report.effective_qoe in QoELevel
        assert abs(sum(report.stage_fractions.values()) - 1.0) < 1e-6

    def test_known_titles_mostly_recognised_in_sample(
        self, fitted_pipeline, small_gameplay_corpus
    ):
        sessions = small_gameplay_corpus.sessions
        correct = sum(
            fitted_pipeline.process(s).title.title == s.title_name for s in sessions
        )
        assert correct / len(sessions) > 0.7

    def test_unfitted_pipeline_raises(self, small_gameplay_corpus):
        pipeline = ContextClassificationPipeline()
        with pytest.raises(RuntimeError, match="not fitted"):
            pipeline.process(small_gameplay_corpus.sessions[0])

    def test_fit_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ContextClassificationPipeline().fit([])

    def test_process_accepts_raw_packets(self, fitted_pipeline, fortnite_session):
        # reduced-fidelity synthetic sessions fall below the physical-scale
        # bitrate signature, so the detector may not tag a platform; the
        # pipeline must still produce a full report from raw packets
        report = fitted_pipeline.process(fortnite_session.packets.columns())
        assert report.platform in (None, "GeForce NOW")
        assert report.title.title
        assert report.stage_timeline

    @pytest.fixture(scope="class")
    def tap_flows(self):
        """Two physical-scale GeForce NOW flows of different size + UDP noise."""
        import dataclasses

        from repro.net.flow import FlowKey, flow_addresses
        from repro.net.packet import UPSTREAM_CODE, Direction, PacketColumns
        from repro.simulation.session import SessionConfig, SessionGenerator

        def flow(title, seconds, client_port):
            session = SessionGenerator(random_state=client_port).generate(
                title,
                SessionConfig(launch_only=True, launch_duration_s=seconds, rate_scale=1.0),
            )
            columns = session.packets.columns()
            up, down = flow_addresses(
                FlowKey(session.client_ip, client_port, session.server_ip, 49004)
            )
            addresses = np.empty(len(columns), dtype=object)
            addresses[:] = [
                up if code == UPSTREAM_CODE else down for code in columns.directions
            ]
            return dataclasses.replace(columns, addresses=addresses)

        noise = PacketColumns.uniform(
            timestamps=np.arange(0.0, 12.0, 0.05),
            payload_sizes=np.full(240, 300.0),
            direction=Direction.DOWNSTREAM,
            address=("8.8.8.8", "192.168.1.10", 443, 40000, "udp"),
        )
        return flow("Dota 2", 6.0, 51001), flow("CS:GO/CS2", 14.0, 51002), noise

    def test_capture_selects_largest_gaming_flow_on_columns(
        self, fitted_pipeline, tap_flows, tmp_path
    ):
        from repro.net.packet import PacketColumns, PacketStream
        from repro.net.pcap import read_pcap_stream, write_pcap
        from test_runtime import assert_report_identical

        small, large, noise = tap_flows
        assert small.payload_sizes.sum() < large.payload_sizes.sum()
        capture, alone = tmp_path / "tap.pcap", tmp_path / "large.pcap"
        write_pcap(capture, PacketColumns.concat([small, noise, large]))
        write_pcap(alone, large)
        tap = read_pcap_stream(capture, client_ip="192.168.1.10")
        assert len(tap) == len(small) + len(large) + len(noise)
        detected = fitted_pipeline.detector.detect(tap)
        assert [session.key.client_port for session in detected] == [51001, 51002]

        cascade = fitted_pipeline.new_cascade()
        cascade.absorb_stream(read_pcap_stream(alone, client_ip="192.168.1.10"))
        (expected,) = fitted_pipeline.finalize_cascades(
            [cascade], platforms=["GeForce NOW"]
        )
        assert expected.platform == "GeForce NOW"
        assert_report_identical(fitted_pipeline.process(tap), expected)
        # a bare columnar batch takes the same route
        assert_report_identical(fitted_pipeline.process(tap.columns()), expected)
        batched = fitted_pipeline.process_many([tap, PacketStream(noise), tap])
        assert_report_identical(batched[0], expected)
        assert_report_identical(batched[2], expected)
        assert batched[1].platform is None

    def test_noise_only_capture_falls_back_to_whole_stream(
        self, fitted_pipeline, tap_flows, tmp_path
    ):
        from repro.net.pcap import read_pcap_stream, write_pcap
        from test_runtime import assert_report_identical

        noise = tap_flows[2]
        path = tmp_path / "noise.pcap"
        write_pcap(path, noise)
        tap = read_pcap_stream(path, client_ip="192.168.1.10")
        assert fitted_pipeline.detector.detect(tap) == []
        report = fitted_pipeline.process(tap)
        assert report.platform is None
        cascade = fitted_pipeline.new_cascade()
        cascade.absorb_stream(tap)
        (whole,) = fitted_pipeline.finalize_cascades([cascade], platforms=[None])
        assert_report_identical(report, whole)

    def test_context_label_for_known_title(self, fitted_pipeline, small_gameplay_corpus):
        report = fitted_pipeline.process(small_gameplay_corpus.sessions[0])
        if not report.title.is_unknown:
            assert report.context_label == report.title.title
        else:
            assert "unknown title" in report.context_label


# ---------------------------------------------------------------------------
# the lag percentile spelled out (DESIGN.md §7 "What a sealed window costs")
# ---------------------------------------------------------------------------
_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
#: sizes where the virtual index ``(n - 1) * 0.95`` is integral (1, 21, 41,
#: 101) or the weight is exactly one half (11), then anything up to 2 000
_SIZES = st.one_of(st.sampled_from([1, 11, 21, 41, 101]), st.integers(1, 2000))


@st.composite
def _percentile_inputs(draw):
    size = draw(_SIZES)
    element = draw(
        st.sampled_from(
            [
                # few distinct values: ties
                st.sampled_from(draw(st.lists(_FINITE, min_size=1, max_size=8))),
                st.sampled_from([1e300, -1e300, 1e-300, 5e-324, 0.0, 1.0]),
                st.floats(0.002, 5.0),  # what a window's frame gaps look like
            ]
        )
    )
    values = draw(st.lists(element, min_size=size, max_size=size))
    # -0.0 and 0.0 compare equal, so which of them a sort or a partition
    # leaves at an index is not defined; adding 0.0 leaves only +0.0
    return np.array(values, dtype=float) + 0.0


@settings(max_examples=150, deadline=None)
@given(values=_percentile_inputs())
def test_percentile_95_is_numpys_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.percentile(values, 95))
    assert qoe_module._percentile_95(values).hex() == expected.hex()


@settings(max_examples=30, deadline=None)
@given(values=_percentile_inputs(), where=st.integers(0, 1999))
def test_percentile_95_of_a_nan_anywhere_is_nan(values, where):
    values[where % values.size] = np.nan
    assert math.isnan(qoe_module._percentile_95(values))


def _window(n_gaps=500, seed=3):
    """Downstream columns of one captured-size window: ``n_gaps`` frame gaps."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum(rng.uniform(0.012, 0.022, size=n_gaps + 1))
    times = np.repeat(starts, 2)
    times[1::2] += 0.0002  # two packets per frame burst
    frames = np.repeat(np.arange(n_gaps + 1, dtype=np.int64) * 1500, 2)
    sequences = np.arange(times.size, dtype=np.int64)
    # three second-of-burst packets lost: sequence gaps, same frame gaps
    keep = np.ones(times.size, dtype=bool)
    keep[[41, 43, 301]] = False
    return times[keep], frames[keep], sequences[keep]


def test_window_estimate_costs_its_arithmetic(profile_events):
    """Cost as a count: the general-purpose percentile alone raised 93 events."""
    estimator = ObjectiveQoEEstimator()
    times, frames, sequences = _window()
    assert np.count_nonzero(np.diff(times) > 0.002) == 500
    assert profile_events(lambda: qoe_module.lag_from_bursts(times)) <= 15
    assert (
        profile_events(
            lambda: estimator.estimate_arrays(
                duration_s=10.0,
                down_times=times,
                down_payload_bytes=1200.0 * times.size,
                rtp_timestamps=frames,
                rtp_sequences=sequences,
            )
        )
        <= 80
    )


# ---------------------------------------------------------------------------
# the batched close's reductions, pinned to the bodies they replaced
# ---------------------------------------------------------------------------
def oracle_distinct_count(values: np.ndarray) -> int:
    """``_distinct_count`` before its sort became stable."""
    if values.size == 0:
        return 0
    ordered = np.sort(values)
    return int(1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def oracle_loss_from_sequences(sequences: np.ndarray) -> float:
    """``ObjectiveQoEEstimator._loss_from_sequences`` with its boolean masks."""
    if sequences.size < 2:
        return 0.0
    received = int(sequences.size)
    gaps = (sequences[1:] - sequences[:-1] - 1) & 0xFFFF
    candidate = (gaps > 0) & (gaps < 200)
    lost = 0
    if candidate.any():
        gap_sizes = gaps[candidate]
        gap_starts = sequences[:-1][candidate]
        offsets = np.arange(int(gap_sizes.sum())) - np.repeat(
            np.cumsum(gap_sizes) - gap_sizes, gap_sizes
        )
        skipped = (np.repeat(gap_starts, gap_sizes) + offsets + 1) & 0xFFFF
        if sequences.min() >= 0 and sequences.max() <= 0xFFFF:
            seen_mask = np.zeros(0x10000, dtype=bool)
            seen_mask[sequences] = True
            lost = int(np.count_nonzero(~seen_mask[skipped]))
        else:
            lost = int(np.count_nonzero(~np.isin(skipped, np.unique(sequences))))
    total = received + lost
    return lost / total if total else 0.0


def oracle_rtp_values(column):
    """``core.reducers._rtp_values`` when it masked every column."""
    return np.zeros(0, dtype=np.int64) if column is None else column[column != RTP_NONE]


def oracle_stage_fractions(stages):
    """``ContextClassificationPipeline._stage_fractions`` by filter and sum."""
    gameplay = [s for s in stages if s in PlayerStage.gameplay_stages()]
    if not gameplay:
        return {stage: 0.0 for stage in PlayerStage.gameplay_stages()}
    return {
        stage: sum(1 for s in gameplay if s is stage) / len(gameplay)
        for stage in PlayerStage.gameplay_stages()
    }


#: in order, duplicates, gaps, reorder bursts, and both sides of the
#: 200-sequence reset rule; then anything a jittery capture can do
_SEQUENCE_STEPS = st.one_of(
    st.sampled_from([1, 1, 1, 0, 2, 3, -1, -2, -5, 199, 200, 201]),
    st.integers(-400, 400),
)
_OUT_OF_RANGE = st.one_of(st.integers(-(2**20), -1), st.integers(0x10000, 2**20))


@st.composite
def _rtp_sequences(draw):
    # starts just below 0xFFFF wrap within a few steps
    start = draw(st.one_of(st.sampled_from([0, 0xFFFF - 3, 0xFFFF]), st.integers(0, 0xFFFF)))
    steps = draw(st.lists(_SEQUENCE_STEPS, max_size=300))
    sequences = (start + np.cumsum([0] + steps, dtype=np.int64)) & 0xFFFF
    for at in draw(st.lists(st.integers(0, sequences.size - 1), max_size=3)):
        sequences[at] = draw(_OUT_OF_RANGE)  # the np.isin fallback
    return sequences


@settings(max_examples=300, deadline=None)
@given(sequences=_rtp_sequences())
@example(sequences=np.array([7, 207, 208], dtype=np.int64))  # a gap of 199
@example(sequences=np.array([7, 208, 209], dtype=np.int64))  # a gap of 200
@example(sequences=np.array([0xFFFF - 99, 100, 101], dtype=np.int64))  # 199 over a wrap
@example(sequences=np.array([0xFFFE, 1, 1, 0], dtype=np.int64))
def test_loss_from_sequences_is_its_former_body(sequences):
    got = ObjectiveQoEEstimator()._loss_from_sequences(sequences)
    assert got.hex() == oracle_loss_from_sequences(sequences).hex()


@st.composite
def _rtp_clock(draw):
    """RTP timestamps as they arrive: rising with repeats, some bursts reordered."""
    steps = draw(st.lists(st.sampled_from([0, 0, 1500, 1500, 3000]), max_size=400))
    values = np.cumsum([draw(st.integers(-(2**33), 2**33))] + steps, dtype=np.int64)
    for at in draw(st.lists(st.integers(0, values.size - 1), max_size=6)):
        width = draw(st.integers(2, 8))
        values[at : at + width] = values[at : at + width][::-1].copy()
    if draw(st.booleans()):
        values = draw(st.permutations(values.tolist()))
        values = np.array(values, dtype=np.int64)
    return values


@settings(max_examples=200, deadline=None)
@given(values=_rtp_clock())
def test_distinct_count_is_its_former_body(values):
    assert qoe_module._distinct_count(values) == oracle_distinct_count(values)
    assert oracle_distinct_count(values) == np.unique(values).size


_RTP_COLUMNS = {
    "no sentinel": st.integers(0, 2**32 - 1),
    "only sentinels": st.just(RTP_NONE),
    "a mix": st.one_of(st.just(RTP_NONE), st.integers(0, 2**32 - 1)),
    "values below the sentinel": st.one_of(
        st.just(RTP_NONE), st.integers(-(2**40), RTP_NONE - 1), st.integers(0, 2**16)
    ),
    "below the sentinel, none of it": st.one_of(
        st.integers(-(2**40), RTP_NONE - 1), st.integers(0, 2**16)
    ),
}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_RTP_COLUMNS)), data=st.data())
def test_rtp_values_are_its_former_body(kind, data):
    column = np.array(data.draw(st.lists(_RTP_COLUMNS[kind], max_size=60)), dtype=np.int64)
    got = reducers_module._rtp_values(column)
    expected = oracle_rtp_values(column)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    if column.size and bool((column > RTP_NONE).all()):
        assert got is column  # nothing to drop: no copy
    none = reducers_module._rtp_values(None)
    assert none.dtype == np.int64 and none.size == 0


_TIMELINES = st.lists(st.sampled_from(list(PlayerStage)), max_size=300)


@settings(max_examples=200, deadline=None)
@given(
    stages=st.one_of(
        _TIMELINES,
        _TIMELINES.map(tuple),
        st.lists(st.just(PlayerStage.LAUNCH), max_size=20),
        st.just([]),
    )
)
def test_stage_fractions_are_its_former_body(stages):
    got = ContextClassificationPipeline._stage_fractions(stage_codes(stages))
    expected = oracle_stage_fractions(stages)
    assert list(got) == list(expected)
    assert [value.hex() for value in got.values()] == [
        value.hex() for value in expected.values()
    ]
