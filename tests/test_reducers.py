"""Reducer cascade: bounded-memory session state, QoE windows, title events.

The ISSUE 4 guarantees: the default **bounded** ``SessionState`` holds no
packet history yet closes with reports bit-identical to offline
``process()`` (across batch sizes, shuffled batches and pcap feeds, and
equal to full-history mode); provisional ``QoEInterval`` events are
consistent with the close report; short sessions classify their title at
close and late window packets re-classify it; the double-buffered fork feed
is pinned equal to the serial backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qoe import ObjectiveQoEEstimator
from repro.core.reducers import SessionReducerCascade
from repro.net.flow import flow_summary
from repro.net.packet import (
    DOWNSTREAM_CODE,
    RTP_NONE,
    Direction,
    PacketColumns,
    PacketStream,
)
from repro.runtime import (
    QoEInterval,
    SessionFeed,
    SessionReport,
    ShardedEngine,
    StreamingEngine,
    TitleClassified,
    TitleReclassified,
    canonical_flow_key,
)
from repro.runtime.state import SessionState

from test_runtime import assert_report_identical, reports_by_client_port


def title_events(events, kinds=(TitleClassified, TitleReclassified)):
    return [event for event in events if isinstance(event, kinds)]


# ---------------------------------------------------------------------------
# bounded-mode equality: the load-bearing ISSUE 4 guarantee
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_seconds", [0.5, 2.0, 7.5])
def test_bounded_reports_equal_offline_across_batch_sizes(
    fitted_pipeline, runtime_sessions, runtime_offline_reports, batch_seconds
):
    feed = SessionFeed(runtime_sessions, batch_seconds=batch_seconds)
    engine = StreamingEngine(fitted_pipeline, session_mode="bounded")
    reports = reports_by_client_port(engine.run(feed))
    assert len(reports) == len(runtime_sessions)
    for index, expected in enumerate(runtime_offline_reports):
        assert_report_identical(reports[52000 + index], expected)


def test_bounded_equals_full_history_mode_on_shuffled_feed(
    fitted_pipeline, runtime_sessions, runtime_offline_reports
):
    def drain(mode):
        feed = SessionFeed(
            runtime_sessions,
            batch_seconds=2.0,
            shuffle_within_batch=True,
            random_state=3,
        )
        engine = StreamingEngine(fitted_pipeline, session_mode=mode)
        return reports_by_client_port(engine.run(feed))

    bounded, full = drain("bounded"), drain("full")
    assert bounded.keys() == full.keys()
    for port, expected in full.items():
        assert_report_identical(bounded[port], expected)
    for index, expected in enumerate(runtime_offline_reports):
        assert_report_identical(bounded[52000 + index], expected)


def test_bounded_pcap_feed_matches_offline(fitted_pipeline, runtime_sessions, tmp_path):
    """A real chunked capture replay closes offline-identical in bounded mode."""
    from repro.net.pcap import read_pcap_columns, write_pcap
    from repro.runtime import pcap_feed

    session = runtime_sessions[1]  # the shortest of the three
    path = tmp_path / "session.pcap"
    write_pcap(path, session.packets)
    columns = read_pcap_columns(path, client_ip=session.client_ip)
    expected = fitted_pipeline.process(columns)

    engine = StreamingEngine(fitted_pipeline, session_mode="bounded")
    events = list(
        engine.run(pcap_feed(path, batch_packets=3000, client_ip=session.client_ip))
    )
    reports = [e.report for e in events if isinstance(e, SessionReport)]
    assert len(reports) == 1
    assert_report_identical(reports[0], expected)


def test_bounded_state_holds_no_packet_history(fitted_pipeline, runtime_sessions):
    feed = SessionFeed([runtime_sessions[0]], batch_seconds=1.0)
    bounded = StreamingEngine(fitted_pipeline, session_mode="bounded")
    full = StreamingEngine(fitted_pipeline, session_mode="full")

    batches = list(feed)
    for batch in batches:
        bounded.ingest(batch)
        full.ingest(batch)
    (bounded_state,) = [bounded._states[k] for k in bounded.live_flows]
    (full_state,) = [full._states[k] for k in full.live_flows]

    assert not bounded_state.cascade.keeps_history
    with pytest.raises(RuntimeError, match="bounded mode"):
        bounded_state.cascade.assembled_stream()
    # the bounded state is a small fraction of the full history footprint
    assert bounded_state.state_nbytes() < full_state.state_nbytes() / 2
    # and both close bit-identically
    (bounded_report,) = [
        e.report for e in bounded.close_all() if isinstance(e, SessionReport)
    ]
    (full_report,) = [
        e.report for e in full.close_all() if isinstance(e, SessionReport)
    ]
    assert_report_identical(bounded_report, full_report)


def test_flow_summary_matches_stream_backed_flow(rng):
    """Bounded platform detection reads the same metadata bits as the
    stream-backed summary the offline detector evaluates."""
    n = 4000
    timestamps = np.sort(rng.uniform(10.0, 25.0, n))
    sizes = rng.integers(60, 1432, n).astype(float)
    directions = np.where(rng.random(n) < 0.93, DOWNSTREAM_CODE, 1).astype(np.int8)
    columns = PacketColumns(
        timestamps=timestamps,
        payload_sizes=sizes,
        directions=directions,
        rtp_ssrc=np.full(n, 7, dtype=np.int64),
    )
    key = canonical_flow_key(("203.0.113.9", "192.168.7.2", 49004, 53123, "udp"),
                             DOWNSTREAM_CODE)
    state = SessionState(key, slot_duration=1.0, alpha=0.5)
    for start in range(0, n, 900):
        state.cascade.absorb(columns.take(slice(start, start + 900)))

    expected = flow_summary(key, PacketStream.from_columns(columns))
    assert expected["downstream_mbps"] > 0 and 0 < expected["downstream_fraction"] < 1
    assert state.cascade.flow_summary(key.server_port) == expected


# ---------------------------------------------------------------------------
# provisional QoE windows
# ---------------------------------------------------------------------------
def test_qoe_intervals_consistent_with_close_report(
    fitted_pipeline, runtime_sessions
):
    """Every emitted window equals an offline recomputation on its packets,
    windows partition the session, and the final window is the partial one."""
    session = runtime_sessions[0]
    feed = SessionFeed([session], batch_seconds=1.0)
    engine = StreamingEngine(fitted_pipeline, session_mode="bounded")
    events = list(engine.run(feed))
    intervals = [e for e in events if isinstance(e, QoEInterval)]
    (report_event,) = [e for e in events if isinstance(e, SessionReport)]

    assert intervals, "a 150 s session must emit provisional QoE windows"
    assert [e.interval_index for e in intervals] == list(range(len(intervals)))
    assert all(not e.partial for e in intervals[:-1])
    assert intervals[-1].partial

    columns = session.packets.columns()
    origin = float(columns.timestamps[0])
    last_ts = float(columns.timestamps[-1])
    down = columns.directions == DOWNSTREAM_CODE
    down_times = columns.timestamps[down]
    down_sizes = columns.payload_sizes[down]
    down_seq = columns.rtp_sequence[down]
    down_rts = columns.rtp_timestamp[down]
    estimator = ObjectiveQoEEstimator()

    assert intervals[-1].end_s == last_ts
    assert sum(e.n_packets for e in intervals) == int(down.sum())
    for event in intervals:
        assert event.start_s == origin + event.interval_index * 10.0
        mask = (down_times >= event.start_s) & (
            down_times <= event.end_s
            if event.partial
            else down_times < event.end_s
        )
        seq = down_seq[mask]
        rts = down_rts[mask]
        expected = estimator.estimate_arrays(
            duration_s=max(event.end_s - event.start_s, 1e-3),
            down_times=down_times[mask],
            down_payload_bytes=float(down_sizes[mask].sum()),
            rtp_timestamps=rts[rts != RTP_NONE],
            rtp_sequences=seq[seq != RTP_NONE],
        )
        assert event.n_packets == int(mask.sum())
        assert event.metrics.frame_rate == expected.frame_rate
        assert event.metrics.loss_rate == expected.loss_rate
        assert event.metrics.streaming_lag_ms == expected.streaming_lag_ms
        # throughput is rescaled to physical scale exactly like the report
        assert event.metrics.throughput_mbps == pytest.approx(
            expected.throughput_mbps / session.rate_scale, rel=0, abs=0
        )

    # prefix consistency with the close report: the windows' downstream
    # columns reassemble into exactly what the final QoE metrics consumed
    assert report_event.report.objective_metrics == fitted_pipeline.process(
        session
    ).objective_metrics


def test_qoe_interval_emitted_for_silent_window(fitted_pipeline):
    """A window with no downstream traffic still reports (objective bad)."""
    address = ("203.0.113.9", "192.168.7.2", 49004, 53123, "udp")
    early = PacketColumns.uniform(
        np.linspace(0.0, 2.0, 300), np.full(300, 900.0),
        Direction.DOWNSTREAM, address=address,
    )
    late = PacketColumns.uniform(
        np.linspace(25.0, 30.0, 300), np.full(300, 900.0),
        Direction.DOWNSTREAM, address=address,
    )
    engine = StreamingEngine(fitted_pipeline, session_mode="bounded")
    events = engine.ingest(early)
    events += engine.ingest(late)
    events += engine.close_all()
    intervals = [e for e in events if isinstance(e, QoEInterval)]
    # the packet at exactly t=30.0 opens interval 3, flushed partial at close
    assert [e.interval_index for e in intervals] == [0, 1, 2, 3]
    assert intervals[-1].partial
    silent = intervals[1]  # covers [10 s, 20 s): no packets
    assert silent.n_packets == 0
    assert silent.metrics.throughput_mbps == 0.0
    assert silent.objective.value == "bad"


def test_invalid_session_mode_rejected_at_construction(fitted_pipeline):
    with pytest.raises(ValueError, match="session_mode"):
        StreamingEngine(fitted_pipeline, session_mode="unbounded")


def test_full_mode_refold_does_not_duplicate_qoe_intervals(fitted_pipeline):
    """An origin-shifting refold must not re-emit already-sealed windows."""
    address = ("203.0.113.9", "192.168.7.2", 49004, 53123, "udp")
    main = PacketColumns.uniform(
        np.linspace(5.0, 35.0, 900), np.full(900, 900.0),
        Direction.DOWNSTREAM, address=address,
    )
    pre_origin = PacketColumns.uniform(
        np.array([2.0]), np.array([900.0]),
        Direction.DOWNSTREAM, address=address,
    )
    engine = StreamingEngine(fitted_pipeline, session_mode="full")
    events = engine.ingest(main)           # seals windows 0..2 (origin 5.0)
    events += engine.ingest(pre_origin)    # older packet: exact refold
    events += engine.close_all()
    indices = [e.interval_index for e in events if isinstance(e, QoEInterval)]
    assert len(indices) == len(set(indices)), f"duplicate windows: {indices}"


def test_infinite_qoe_interval_disables_provisional_windows(fitted_pipeline):
    """The inf sentinel yields one whole-session window with finite metrics."""
    address = ("203.0.113.9", "192.168.7.2", 49004, 53123, "udp")
    columns = PacketColumns.uniform(
        np.linspace(0.0, 30.0, 600), np.full(600, 900.0),
        Direction.DOWNSTREAM, address=address,
    )
    engine = StreamingEngine(
        fitted_pipeline, session_mode="bounded", qoe_interval_s=float("inf")
    )
    events = engine.ingest(columns)
    assert not [e for e in events if isinstance(e, QoEInterval)]
    events += engine.close_all()
    intervals = [e for e in events if isinstance(e, QoEInterval)]
    assert len(intervals) == 1
    (interval,) = intervals
    assert interval.partial and interval.interval_index == 0
    assert interval.start_s == 0.0 and interval.end_s == 30.0
    assert np.isfinite(interval.metrics.throughput_mbps)
    assert np.isfinite(interval.metrics.frame_rate)


# ---------------------------------------------------------------------------
# online title classification: short sessions + late window packets
# ---------------------------------------------------------------------------
def test_short_session_title_classified_at_close(fitted_pipeline, runtime_sessions):
    """A flow whose 5 s window never fills classifies at flow close."""
    columns = runtime_sessions[0].packets.columns()
    cutoff = int(np.searchsorted(columns.timestamps,
                                 float(columns.timestamps[0]) + 3.0))
    short = columns.take(slice(0, cutoff))
    expected = fitted_pipeline.process(short)

    engine = StreamingEngine(fitted_pipeline, session_mode="bounded")
    events = engine.ingest(short)
    assert not title_events(events)  # the gate never opened mid-feed
    events += engine.close_all()
    titles = title_events(events)
    assert len(titles) == 1
    assert isinstance(titles[0], TitleClassified)
    (report,) = [e.report for e in events if isinstance(e, SessionReport)]
    assert titles[0].prediction == report.title
    assert_report_identical(report, expected)


@pytest.mark.parametrize("mode", ["bounded", "full"])
def test_late_window_packets_reclassify_title(
    fitted_pipeline, runtime_sessions, mode
):
    """Window packets arriving after the gate re-run the classifier, and the
    last title event always agrees with the close report."""
    columns = runtime_sessions[0].packets.columns()
    origin = float(columns.timestamps[0])
    in_window = (columns.timestamps > origin + 0.5) & (
        columns.timestamps < origin + 4.5
    )
    held_back = np.flatnonzero(in_window)[::2]  # every other window packet
    late = columns.take(held_back)
    kept = np.setdiff1d(np.arange(len(columns)), held_back)
    prompt = columns.take(kept)
    split = int(np.searchsorted(prompt.timestamps, origin + 8.0))

    engine = StreamingEngine(fitted_pipeline, session_mode=mode)
    events = engine.ingest(prompt.take(slice(0, split)))      # gate fires
    first = title_events(events)
    assert len(first) == 1 and isinstance(first[0], TitleClassified)
    events += engine.ingest(late)                             # late window rows
    events += engine.ingest(prompt.take(slice(split, None)))
    events += engine.close_all()

    expected = fitted_pipeline.process(columns)
    (report,) = [e.report for e in events if isinstance(e, SessionReport)]
    assert_report_identical(report, expected)

    titles = title_events(events)
    for event in titles[1:]:
        assert isinstance(event, TitleReclassified)
        assert event.previous == titles[titles.index(event) - 1].prediction
    # the stream of title verdicts ends consistent with the final report
    assert titles[-1].prediction == report.title


# ---------------------------------------------------------------------------
# batched raw-counter classification
# ---------------------------------------------------------------------------
def test_predict_raw_slots_many_matches_stream_path(
    fitted_pipeline, runtime_sessions
):
    classifier = fitted_pipeline.activity_classifier
    streams = [s.packets for s in runtime_sessions]
    raw = [classifier.generator.raw_slot_matrix(s) for s in streams]
    assert classifier.predict_raw_slots_many(raw) == classifier.predict_slots_many(
        streams
    )
    assert classifier.predict_raw_slots_many([]) == []
    assert classifier.predict_raw_slots_many([np.zeros((0, 4))]) == [[]]


# ---------------------------------------------------------------------------
# double-buffered sharded feed
# ---------------------------------------------------------------------------
def test_double_buffered_fork_feed_matches_serial(
    fitted_pipeline, runtime_sessions
):
    """The pipelined fork protocol yields the same per-flow event sequences
    and bit-identical reports as the serial reference backend."""

    def per_flow(events):
        grouped = {}
        for event in events:
            grouped.setdefault(event.flow, []).append(event)
        return grouped

    serial = per_flow(
        ShardedEngine(fitted_pipeline, n_workers=2, backend="serial").run_feed(
            SessionFeed(runtime_sessions, batch_seconds=4.0)
        )
    )
    forked = per_flow(
        ShardedEngine(fitted_pipeline, n_workers=2, backend="fork").run_feed(
            SessionFeed(runtime_sessions, batch_seconds=4.0)
        )
    )
    assert serial.keys() == forked.keys()
    for key in serial:
        assert [type(e).__name__ for e in forked[key]] == [
            type(e).__name__ for e in serial[key]
        ]
        assert isinstance(serial[key][-1], SessionReport)
        assert_report_identical(forked[key][-1].report, serial[key][-1].report)


# ---------------------------------------------------------------------------
# the fold's shortcuts vs the general reducers (property test)
# ---------------------------------------------------------------------------
def bincount_slots(slots, timestamps, sizes, down, origin) -> None:
    """Oracle: ``SlotStageReducer.absorb`` as it ran before straddling spans
    were bucketed once per tick — one pair of ``bincount`` adds per batch."""
    indices = np.floor((timestamps - origin) / slots.slot_duration).astype(np.int64)
    np.maximum(indices, 0, out=indices)
    top = int(indices.max())
    slots._ensure_capacity(top)
    slots._max_slot = max(slots._max_slot, top)
    length = top + 1
    bins = indices * 2 + ~down
    counters = slots._raw[:length]
    counters[:, 0::2] += np.bincount(bins, weights=sizes, minlength=2 * length).reshape(
        length, 2
    )
    counters[:, 1::2] += np.bincount(bins, minlength=2 * length).reshape(length, 2)


class GeneralFoldCascade(SessionReducerCascade):
    """Oracle: every batch through the general reducers, whatever its span —
    :func:`bincount_slots`, ``absorb_arrays`` and
    ``LaunchWindowReducer.absorb`` only, with the batch's facts computed from
    its own rows (the fold before it learnt to spot a batch inside one slot /
    one QoE interval / past the title window, and before the facts were
    pre-reduced per tick)."""

    __slots__ = ()

    def _fold(self, facts, flow):
        columns = facts.rows(flow)
        timestamps = columns.timestamps
        self.last_ts = max(self.last_ts, float(timestamps.max()))
        self.n_packets += len(columns)
        down = columns.directions == DOWNSTREAM_CODE
        sizes = columns.payload_sizes
        down_times = timestamps[down]
        down_sizes = sizes[down]
        if down_times.size:
            self.has_downstream = True
            down_sum = float(down_sizes.sum())
            self.down_bytes += down_sum
            self.up_bytes += float(sizes.sum()) - down_sum
        else:
            self.up_bytes += float(sizes.sum())
        ssrc = columns.rtp_ssrc
        if not self.has_rtp and ssrc is not None and bool(np.any(ssrc != RTP_NONE)):
            self.has_rtp = True
        new_window_rows = self.launch.absorb(columns, self.origin)
        bincount_slots(self.slots, timestamps, sizes, down, self.origin)
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        self.qoe.absorb_arrays(
            down_times,
            down_sizes,
            sequences[down] if sequences is not None else None,
            rtp_times[down] if rtp_times is not None else None,
            self.origin,
        )
        return new_window_rows


#: Timestamps sit on a 1/8 s grid from a base that is exact in binary, so
#: rows land exactly on slot, QoE-interval and title-window edges all the time.
_GRID_S = 0.125
_BASE_S = 1000.0


@st.composite
def _sub_batches(draw):
    batches = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(st.integers(1, 9))
        # 0 .. 50 s in any order (late and pre-origin batches), whole seconds
        # over-represented so batches start exactly on the origin's edges
        start = draw(
            st.one_of(st.integers(0, 400), st.integers(0, 12).map(lambda s: 8 * s))
        )
        spread = draw(st.sampled_from([0, 2, 7, 8, 40, 90]))
        ticks = draw(st.lists(st.integers(0, spread), min_size=n, max_size=n))
        if draw(st.booleans()):
            ticks.sort()
        side = draw(st.sampled_from(["mixed", "down", "up"]))
        if side == "mixed":
            down = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        else:
            down = [side == "down"] * n
        rtp = draw(st.sampled_from(["none", "all", "some"]))
        if rtp == "none":
            sequence = rtp_clock = ssrc = None
        else:
            carried = [
                rtp == "all" or draw(st.booleans()) for _ in range(n)
            ]
            sequence = np.array(
                [draw(st.integers(0, 0xFFFF)) if c else RTP_NONE for c in carried]
            )
            rtp_clock = np.array(
                [90_000 * (start + tick) // 8 if c else RTP_NONE
                 for c, tick in zip(carried, ticks)]
            )
            ssrc = np.where(carried, 77, RTP_NONE)
        batches.append(
            PacketColumns(
                timestamps=_BASE_S + _GRID_S * (start + np.array(ticks)),
                payload_sizes=np.array(
                    draw(st.lists(st.integers(40, 1400), min_size=n, max_size=n)),
                    dtype=float,
                ),
                directions=np.where(down, DOWNSTREAM_CODE, 1 - DOWNSTREAM_CODE),
                rtp_payload_type=None if ssrc is None else np.where(carried, 96, RTP_NONE),
                rtp_ssrc=ssrc,
                rtp_sequence=sequence,
                rtp_timestamp=rtp_clock,
            )
        )
    return batches


def _state_bytes(cascade) -> bytes:
    """The cascade's snapshot, pickled."""
    import pickle

    return pickle.dumps(cascade.snapshot())


@settings(max_examples=150, deadline=None)
@given(
    batches=_sub_batches(),
    tier=st.sampled_from(["bounded", "approx", "full"]),
    qoe_interval_seconds=st.sampled_from([float("inf"), 10.0, 1.5]),
)
def test_fold_shortcuts_equal_general_reducers(
    fitted_pipeline, batches, tier, qoe_interval_seconds
):
    geometry = dict(
        slot_duration=fitted_pipeline.activity_classifier.slot_duration,
        alpha=fitted_pipeline.activity_classifier.alpha,
        window_seconds=fitted_pipeline.title_classifier.window_seconds,
        qoe_interval_seconds=qoe_interval_seconds,
        keep_history=tier == "full",
        qoe_mode="approx" if tier == "approx" else "exact",
    )
    cascade = SessionReducerCascade(**geometry)
    reference = GeneralFoldCascade(**geometry)
    for batch in batches:
        assert cascade.absorb(batch) == reference.absorb(batch)
        # the provisional gates move the slot cursor and the seal watermark
        clock = float(batch.timestamps.max())
        for folded in (cascade, reference):
            folded.advance_slots(clock)
            folded.advance_qoe(clock)
        assert _state_bytes(cascade) == _state_bytes(reference)
    (got,) = fitted_pipeline.finalize_cascades([cascade])
    (expected,) = fitted_pipeline.finalize_cascades([reference])
    assert_report_identical(got, expected)


def test_equal_approx_states_pickle_to_equal_bytes(fitted_pipeline, runtime_sessions):
    """Approx-tier checkpoints are deterministic: no slot of a snapshot
    holds memory the fold never wrote."""
    columns = runtime_sessions[0].packets.columns()

    def folded():
        cascade = fitted_pipeline.new_cascade(
            qoe_interval_seconds=10.0, qoe_mode="approx"
        )
        for start in range(0, len(columns), 5000):
            cascade.absorb(columns.take(slice(start, start + 5000)))
        return cascade

    first, second = folded(), folded()
    assert _state_bytes(first) == _state_bytes(second)
    restored = SessionReducerCascade.from_snapshot(first.snapshot())
    assert _state_bytes(restored) == _state_bytes(first)

    def samplers(node):
        if isinstance(node, dict):
            if "rng_state" in node:
                yield node
            for value in node.values():
                yield from samplers(value)

    found = list(samplers(first.snapshot()))
    assert found
    for sampler in found:
        assert not sampler["samples"][sampler["seen"]:].any()

