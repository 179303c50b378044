"""The approximate QoE tier: O(intervals) state, pinned reports, error bounds.

ISSUE 5 guarantees: ``session_mode="approx"`` close reports are *identical*
between the streaming runtime and offline ``process(..., qoe_mode="approx")``
— across feed batch sizes and within-batch shuffles — and carry an explicit
``qoe_approximate=True`` flag; context fields (platform, title, stages,
pattern) stay exact; per-metric error bounds versus the exact tier hold on
real corpora; and per-session state is flat in the packet rate (the
O(intervals) claim, also gated by the memory benchmark).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qoe import ObjectiveQoEEstimator
from repro.core.reducers import (
    ApproxQoEIntervalReducer,
    SessionReducerCascade,
    _ReservoirSampler,
)
from repro.net.packet import (
    DOWNSTREAM_CODE,
    RTP_NONE,
    Direction,
    PacketColumns,
)
from repro.runtime import (
    QoEInterval,
    SessionFeed,
    SessionReport,
    ShardedEngine,
    StreamingEngine,
)

from test_runtime import reports_by_client_port


@pytest.fixture(scope="module")
def offline_approx_reports(fitted_pipeline, runtime_sessions):
    return [
        fitted_pipeline.process(session, qoe_mode="approx")
        for session in runtime_sessions
    ]


def assert_approx_report_identical(got, expected):
    """Field-for-field equality including the qoe_approximate flag."""
    assert got.qoe_approximate and expected.qoe_approximate
    assert got == expected


# ---------------------------------------------------------------------------
# pinning: streaming approx == offline approx, any batching
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_seconds", [0.5, 2.0, 7.5])
def test_approx_streaming_equals_offline_across_batch_sizes(
    fitted_pipeline, runtime_sessions, offline_approx_reports, batch_seconds
):
    feed = SessionFeed(runtime_sessions, batch_seconds=batch_seconds)
    engine = StreamingEngine(fitted_pipeline, session_mode="approx")
    reports = reports_by_client_port(engine.run(feed))
    assert len(reports) == len(runtime_sessions)
    for index, expected in enumerate(offline_approx_reports):
        assert_approx_report_identical(reports[52000 + index], expected)


def test_approx_streaming_equals_offline_on_shuffled_feed(
    fitted_pipeline, runtime_sessions, offline_approx_reports
):
    feed = SessionFeed(
        runtime_sessions,
        batch_seconds=2.0,
        shuffle_within_batch=True,
        random_state=3,
    )
    engine = StreamingEngine(fitted_pipeline, session_mode="approx")
    reports = reports_by_client_port(engine.run(feed))
    for index, expected in enumerate(offline_approx_reports):
        assert_approx_report_identical(reports[52000 + index], expected)


def test_approx_sharded_serial_equals_single_process(
    fitted_pipeline, runtime_sessions, offline_approx_reports
):
    sharded = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="serial", session_mode="approx"
    )
    reports = reports_by_client_port(
        sharded.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    )
    for index, expected in enumerate(offline_approx_reports):
        assert_approx_report_identical(reports[52000 + index], expected)


def test_approx_process_many_equals_per_session_process(
    fitted_pipeline, runtime_sessions, offline_approx_reports
):
    batch = fitted_pipeline.process_many(runtime_sessions, qoe_mode="approx")
    assert batch == offline_approx_reports


def test_approx_reports_survive_pipeline_persistence(
    fitted_pipeline, runtime_sessions, offline_approx_reports, tmp_path
):
    """A reloaded pipeline produces identical approx reports (no refit)."""
    from repro.runtime import load_pipeline, save_pipeline

    save_pipeline(fitted_pipeline, tmp_path / "model")
    loaded = load_pipeline(tmp_path / "model")
    assert (
        loaded.process_many(runtime_sessions, qoe_mode="approx")
        == offline_approx_reports
    )


# ---------------------------------------------------------------------------
# the flag and the exactness of the context stages
# ---------------------------------------------------------------------------
def test_approx_flag_and_exact_context(
    fitted_pipeline, runtime_sessions, runtime_offline_reports, offline_approx_reports
):
    for exact, approx in zip(runtime_offline_reports, offline_approx_reports):
        assert not exact.qoe_approximate
        assert approx.qoe_approximate
        # only the QoE stage has a lossy tier: everything upstream of it is
        # bit-identical to the exact report
        assert approx.platform == exact.platform
        assert approx.title == exact.title
        assert approx.stage_timeline == exact.stage_timeline
        assert approx.stage_fractions == exact.stage_fractions
        assert approx.pattern == exact.pattern


def test_approx_error_bounds_vs_exact(
    runtime_offline_reports, offline_approx_reports
):
    """The documented per-metric error bounds on the runtime corpus."""
    for exact, approx in zip(runtime_offline_reports, offline_approx_reports):
        me, ma = exact.objective_metrics, approx.objective_metrics
        # throughput is exact: integral byte sums over the same duration
        assert ma.throughput_mbps == me.throughput_mbps
        # record-high frame counting never overcounts and loses only
        # cross-batch interleaved frames
        assert ma.frame_rate <= me.frame_rate
        assert ma.frame_rate == pytest.approx(me.frame_rate, rel=0.02)
        # counting-set loss: exact up to skipped-and-never-seen multiplicity
        assert ma.loss_rate == pytest.approx(me.loss_rate, abs=2e-4)
        # p95 inter-frame gap from the fixed-seed reservoir
        assert ma.streaming_lag_ms == pytest.approx(me.streaming_lag_ms, rel=0.15)


def test_approx_loss_exact_on_clean_single_wrap_stream():
    """Dropped packets from one contiguous sequence stream: loss is exact."""
    rng = np.random.default_rng(42)
    n = 30_000
    timestamps = np.sort(rng.uniform(0.0, 150.0, n))
    sizes = rng.integers(200, 1400, n).astype(float)
    rtp_ts = ((timestamps * 60).astype(np.int64)) * 1500
    sequences = np.arange(n, dtype=np.int64) & 0xFFFF
    keep = rng.random(n) > 0.01  # 1% loss
    timestamps, sizes = timestamps[keep], sizes[keep]
    rtp_ts, sequences = rtp_ts[keep], sequences[keep]

    estimator = ObjectiveQoEEstimator()
    duration = float(timestamps[-1] - timestamps[0])
    exact = estimator.estimate_arrays(
        duration_s=duration,
        down_times=timestamps,
        down_payload_bytes=float(sizes.sum()),
        rtp_timestamps=rtp_ts,
        rtp_sequences=sequences,
    )
    reducer = ApproxQoEIntervalReducer(10.0)
    for start in range(0, timestamps.size, 3333):
        chunk = slice(start, start + 3333)
        reducer.absorb_arrays(
            timestamps[chunk],
            sizes[chunk],
            sequences[chunk],
            rtp_ts[chunk],
            float(timestamps[0]),
        )
    approx = estimator.estimate_approx(
        duration_s=duration,
        down_payload_bytes=float(sizes.sum()),
        **reducer.final_aggregates(),
    )
    assert approx.loss_rate == exact.loss_rate
    assert approx.frame_rate == exact.frame_rate
    assert approx.throughput_mbps == exact.throughput_mbps


# ---------------------------------------------------------------------------
# O(intervals): state flat in the packet rate
# ---------------------------------------------------------------------------
def test_approx_qoe_state_flat_in_packet_rate(fitted_pipeline):
    """4x the packets over the same duration: approx QoE bytes unchanged,
    bounded QoE bytes ~4x."""
    address = ("203.0.113.9", "192.168.7.2", 49004, 53123, "udp")

    def qoe_bytes(mode, n):
        columns = PacketColumns.uniform(
            np.linspace(0.0, 60.0, n),
            np.full(n, 900.0),
            Direction.DOWNSTREAM,
            address=address,
            rtp_ssrc=5,
            rtp_sequence=np.arange(n) & 0xFFFF,
            rtp_timestamp=(np.arange(n) * 1500) & 0xFFFFFFFF,
        )
        engine = StreamingEngine(fitted_pipeline, session_mode=mode)
        for start in range(0, n, 2000):
            engine.ingest(columns.take(slice(start, start + 2000)))
        (state,) = engine._states.values()
        return state.cascade.qoe.nbytes()

    approx_low, approx_high = qoe_bytes("approx", 4000), qoe_bytes("approx", 16000)
    bounded_low, bounded_high = qoe_bytes("bounded", 4000), qoe_bytes("bounded", 16000)
    assert approx_high == approx_low  # flat: aggregates only
    assert bounded_high >= 3 * bounded_low  # ~24 B per downstream packet
    assert approx_high < bounded_high


def test_approx_sealed_interval_stores_are_freed():
    """Sealing drops a window's store: live state tracks *open* windows,
    not the session lifetime."""
    reducer = ApproxQoEIntervalReducer(10.0)
    n = 6000
    timestamps = np.linspace(0.0, 600.0, n)  # 60 windows
    sizes = np.full(n, 900.0)
    for start in range(0, n, 500):
        chunk = slice(start, start + 500)
        reducer.absorb_arrays(timestamps[chunk], sizes[chunk], None, None, 0.0)
        reducer.advance(clock=float(timestamps[chunk][-1]), origin=0.0)
    # everything sealed so far has been freed; only the open tail remains
    assert len(reducer._stores) <= 2
    baseline = reducer.nbytes()
    sealed = reducer.flush(origin=0.0, last_ts=600.0)
    assert sealed[-1].partial
    assert reducer.nbytes() <= baseline


def test_approx_late_rows_do_not_reopen_sealed_windows():
    """A row arriving after its window sealed folds into the session
    aggregates only: no store comes back for a window that never seals
    again, so state stays bounded by the open windows."""
    import pickle

    width, n_windows = 10.0, 60
    rng = np.random.default_rng(5)
    on_time = [np.sort(rng.uniform(k * width, (k + 1) * width, 100)) for k in range(n_windows)]

    def batch(k, late):
        timestamps = on_time[k]
        sequences = (np.arange(100, dtype=np.int64) + 100 * k) & 0xFFFF
        rtp_times = (timestamps * 90_000).astype(np.int64)
        if late and k:
            # a duplicate of the previous window's last row, without RTP:
            # the gap stream, frames and loss are those of the feed without it
            timestamps = np.concatenate(([on_time[k - 1][-1]], timestamps))
            sequences = np.concatenate(([RTP_NONE], sequences))
            rtp_times = np.concatenate(([RTP_NONE], rtp_times))
        return timestamps, np.full(timestamps.size, 900.0), sequences, rtp_times

    def feed(late, seal):
        reducer, sealed, sizes = ApproxQoEIntervalReducer(width), [], []
        for k in range(n_windows):
            reducer.absorb_arrays(*batch(k, late), 0.0)
            if seal:
                sealed += reducer.advance(clock=(k + 1) * width, origin=0.0)
                assert len(reducer._stores) <= 1  # the open window at most
                sizes.append(reducer.nbytes())
        return reducer, sealed, sizes

    reducer, sealed, sizes = feed(late=True, seal=True)
    assert len(sealed) == n_windows
    assert sizes == [sizes[0]] * n_windows  # flat: late rows add no store
    # sealed windows are those of the same feed without the late rows ...
    _, expected, _ = feed(late=False, seal=True)
    assert pickle.dumps(sealed) == pickle.dumps(expected)
    # ... and the late rows still count in the session aggregates, which
    # do not depend on when windows seal
    unsealed, _, _ = feed(late=True, seal=False)
    aggregates = reducer.final_aggregates()
    assert aggregates["n_down_packets"] == n_windows * 100 + n_windows - 1
    assert pickle.dumps(aggregates) == pickle.dumps(unsealed.final_aggregates())


def test_approx_cascade_rejects_history_and_bad_mode():
    with pytest.raises(ValueError, match="qoe_mode"):
        SessionReducerCascade(
            slot_duration=1.0, alpha=0.5, window_seconds=5.0, qoe_mode="sloppy"
        )
    with pytest.raises(ValueError, match="keep_history"):
        SessionReducerCascade(
            slot_duration=1.0,
            alpha=0.5,
            window_seconds=5.0,
            qoe_mode="approx",
            keep_history=True,
        )
    cascade = SessionReducerCascade(
        slot_duration=1.0, alpha=0.5, window_seconds=5.0, qoe_mode="approx"
    )
    with pytest.raises(RuntimeError, match="approx"):
        cascade.qoe_arrays()
    exact = SessionReducerCascade(slot_duration=1.0, alpha=0.5, window_seconds=5.0)
    with pytest.raises(RuntimeError, match="approx-mode only"):
        exact.qoe_approx_arrays()


# ---------------------------------------------------------------------------
# provisional approx windows: flags and freeze detection
# ---------------------------------------------------------------------------
def test_approx_provisional_intervals_flagged(fitted_pipeline, runtime_sessions):
    feed = SessionFeed([runtime_sessions[0]], batch_seconds=1.0)
    engine = StreamingEngine(fitted_pipeline, session_mode="approx")
    events = list(engine.run(feed))
    intervals = [e for e in events if isinstance(e, QoEInterval)]
    (report,) = [e for e in events if isinstance(e, SessionReport)]
    assert intervals
    assert all(e.approximate for e in intervals)
    assert [e.interval_index for e in intervals] == list(range(len(intervals)))
    assert intervals[-1].partial
    assert report.report.qoe_approximate
    # windows partition the downstream packets exactly like the exact tier
    columns = runtime_sessions[0].packets.columns()
    n_down = int(np.count_nonzero(columns.directions == DOWNSTREAM_CODE))
    assert sum(e.n_packets for e in intervals) == n_down


def test_approx_freeze_detection():
    """A window whose RTP clock never advances is flagged frozen."""
    n = 1200
    timestamps = np.linspace(0.0, 30.0, n)
    rtp_ts = (timestamps * 90000).astype(np.int64)
    # freeze the image during [10 s, 20 s): the RTP timestamp stops moving
    frozen_window = (timestamps >= 10.0) & (timestamps < 20.0)
    rtp_ts[frozen_window] = rtp_ts[np.flatnonzero(frozen_window)[0] - 1]
    reducer = ApproxQoEIntervalReducer(10.0)
    reducer.absorb_arrays(
        timestamps,
        np.full(n, 900.0),
        np.arange(n, dtype=np.int64) & 0xFFFF,
        rtp_ts,
        0.0,
    )
    sealed = reducer.advance(clock=30.0, origin=0.0)
    assert [window.index for window in sealed] == [0, 1, 2]
    assert not sealed[0].frozen
    assert sealed[1].frozen and sealed[1].n_new_frames == 0
    assert not sealed[2].frozen


# ---------------------------------------------------------------------------
# the deterministic reservoir
# ---------------------------------------------------------------------------
def test_reservoir_is_chunking_invariant():
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 1.0, 10_000)
    one_shot = _ReservoirSampler(256, seed=7)
    one_shot.add(values)
    chunked = _ReservoirSampler(256, seed=7)
    position = 0
    while position < values.size:
        step = int(rng.integers(1, 700))
        chunked.add(values[position : position + step])
        position += step
    assert np.array_equal(one_shot.sample(), chunked.sample())
    assert one_shot.seen == chunked.seen == values.size


def test_reservoir_keeps_everything_below_capacity():
    sampler = _ReservoirSampler(64, seed=1)
    sampler.add(np.arange(10.0))
    sampler.add(np.arange(10.0, 40.0))
    assert np.array_equal(sampler.sample(), np.arange(40.0))
