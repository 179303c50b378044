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

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.qoe import ObjectiveQoEEstimator
from repro.core.reducers import (
    QoEIntervalReducer,
    SessionReducerCascade,
    TickFacts,
    raw_slot_matrix,
)
from repro.net.flow import flow_summary
from repro.net.packet import (
    DOWNSTREAM_CODE,
    RTP_NONE,
    UPSTREAM_CODE,
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


def absorb(cascade, columns):
    """Fold one batch as a tick of a single flow; return its new window rows.

    What the live engine does per flow of a tick (``fold``, then the tick's
    ``flush``), for a tick that holds one flow.
    """
    if not len(columns):
        return 0
    facts = TickFacts.of_batch(columns)
    new_window_rows = cascade.fold(facts, 0)
    facts.flush()
    return new_window_rows


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
    write_pcap(path, session.packets.columns())
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
        absorb(state.cascade, columns.take(slice(start, start + 900)))

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
    """A stream's ``raw_slot_matrix`` is the bincount oracle's matrix and the
    closing counters of a cascade fed the stream in random live ticks, so all
    three classify to one timeline."""
    classifier = fitted_pipeline.activity_classifier
    width = classifier.slot_duration
    streams = [s.packets for s in runtime_sessions]
    raw = [raw_slot_matrix(s, width) for s in streams]
    rng = np.random.default_rng(11)
    live = []
    for stream, matrix in zip(streams, raw):
        assert np.array_equal(matrix, bincount_raw_slot_matrix(stream, width))
        columns = stream.columns()
        cascade = SessionReducerCascade(slot_duration=width, alpha=0.5, window_seconds=5.0)
        cuts = np.sort(rng.choice(np.arange(1, len(columns)), 40, replace=False))
        for rows in np.split(np.arange(len(columns)), cuts):
            absorb(cascade, columns.take(rows))
        live.append(cascade.final_raw_matrix())
        assert np.array_equal(live[-1], matrix)
    timelines = classifier.predict_raw_slots_many(raw)
    assert all(timeline.size for timeline in timelines)
    for got, expected in zip(classifier.predict_raw_slots_many(live), timelines, strict=True):
        assert np.array_equal(got, expected)
    assert classifier.predict_raw_slots_many([]) == []
    (empty,) = classifier.predict_raw_slots_many([np.zeros((0, 4))])
    assert empty.shape == (0,)


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
# one slot count: raw_slot_matrix vs the generator's bincount (property test)
# ---------------------------------------------------------------------------
def bincount_raw_slot_matrix(stream, slot_duration, n_slots=None):
    """Oracle: ``raw_slot_matrix`` as the volumetric generator computed it
    before the slot reducer's fold became the one slot count — its own
    direction split and one ``bincount`` pair per direction."""
    origin = stream.start_time
    all_times = stream.timestamps()
    if n_slots is None:
        duration = float(all_times.max() - origin) if all_times.size else 0.0
        n_slots = math.ceil(duration / slot_duration)
    n_slots = max(1, n_slots)

    matrix = np.zeros((n_slots, 4))
    for column, direction in ((0, Direction.DOWNSTREAM), (2, Direction.UPSTREAM)):
        times = stream.timestamps(direction)
        sizes = stream.payload_sizes(direction)
        if not times.size:
            continue
        indices = np.floor((times - origin) / slot_duration).astype(int)
        valid = (indices >= 0) & (indices < n_slots)
        indices = indices[valid]
        byte_sum = np.bincount(indices, weights=sizes[valid], minlength=n_slots)
        pkt_count = np.bincount(indices, minlength=n_slots)
        if direction is Direction.DOWNSTREAM:
            matrix[:, 0] = byte_sum * 8 / slot_duration / 1e6
            matrix[:, 1] = pkt_count / slot_duration
        else:
            matrix[:, 2] = byte_sum * 8 / slot_duration / 1e3
            matrix[:, 3] = pkt_count / slot_duration
    return matrix


@st.composite
def slotted_streams(draw):
    """A sorted session for the one slot count: ``(width, columns, n_slots,
    cuts)``.  Timestamps mix quarter-slot multiples (duplicates, rows on
    ``k * width`` edges, a last row exactly on the final edge) with free
    offsets; a stream may carry one direction only, or one packet."""
    width = draw(st.sampled_from([0.1, 0.5, 1.0]))
    origin = draw(st.sampled_from([0.0, 100.0, 1234.5678]))
    quarters = draw(st.lists(st.integers(0, 120), min_size=1, max_size=60))
    offsets = draw(st.lists(st.floats(0.0, 30.0), max_size=20))
    timestamps = np.sort(
        np.array([origin + q * width / 4 for q in quarters] + [origin + x for x in offsets])
    )
    n = timestamps.size
    mode = draw(st.sampled_from(["both", "down", "up"]))
    if mode == "both":
        down = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        down = np.full(n, mode == "down")
    sizes = np.array(draw(st.lists(st.integers(0, 1500), min_size=n, max_size=n)), dtype=float)
    columns = PacketColumns(
        timestamps=timestamps,
        payload_sizes=sizes,
        directions=np.where(down, DOWNSTREAM_CODE, UPSTREAM_CODE).astype(np.int8),
    )
    span = math.ceil((timestamps[-1] - timestamps[0]) / width)
    n_slots = draw(st.sampled_from([None, 0, 1, max(span - 2, 0), span + 3]))
    cuts = sorted(draw(st.sets(st.integers(1, n), max_size=8))) if n > 1 else []
    return width, columns, n_slots, cuts


def _columns(timestamps, down):
    timestamps = np.asarray(timestamps, dtype=float)
    down = np.asarray(down, dtype=bool)
    return PacketColumns(
        timestamps=timestamps,
        payload_sizes=np.full(timestamps.size, 100.0),
        directions=np.where(down, DOWNSTREAM_CODE, UPSTREAM_CODE).astype(np.int8),
    )


@settings(max_examples=200, deadline=None)
@given(slotted_streams())
@example((1.0, _columns([5.0], [True]), None, []))  # one packet
@example((0.5, _columns([0.0, 0.25, 0.5, 0.5, 1.0], [True] * 5), None, [2]))  # last on the edge
@example((0.5, _columns([0.0, 0.5, 1.0], [False] * 3), 1, [1]))  # upstream only, cut short
def test_raw_slot_matrix_is_the_reducer_count(case):
    """Property: ``raw_slot_matrix`` equals the moved bincount oracle bit for
    bit on any grid, and a cascade fed the same rows in randomly cut
    ``absorb`` batches closes on the same matrix."""
    width, columns, n_slots, cuts = case
    stream = PacketStream.from_columns(columns)
    got = raw_slot_matrix(stream, width, n_slots)
    expected = bincount_raw_slot_matrix(stream, width, n_slots)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()

    whole = raw_slot_matrix(stream, width)
    cascade = SessionReducerCascade(slot_duration=width, alpha=0.5, window_seconds=5.0)
    ordered = stream.columns()
    for rows in np.split(np.arange(len(ordered)), cuts):
        absorb(cascade, ordered.take(rows))
    assert cascade.final_raw_matrix().tobytes() == whole.tobytes()


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


def directional_slots(slots, down_times, down_sizes, up_times, up_sizes, origin) -> None:
    """Oracle: ``SlotStageReducer.absorb_directional`` — pre-split per-direction
    rows bucketed with one ``bincount`` pair per direction (the offline
    whole-session slot fold before it went through ``TickFacts.flush``)."""
    top = -1
    per_direction = []
    for times, sizes in ((down_times, down_sizes), (up_times, up_sizes)):
        if times.size:
            indices = np.floor((times - origin) / slots.slot_duration).astype(np.int64)
            np.maximum(indices, 0, out=indices)
            top = max(top, int(indices.max()))
            per_direction.append((indices, sizes))
        else:
            per_direction.append(None)
    if top < 0:
        return
    slots._ensure_capacity(top)
    slots._max_slot = max(slots._max_slot, top)
    length = top + 1
    for column, entry in ((0, per_direction[0]), (2, per_direction[1])):
        if entry is None:
            continue
        indices, sizes = entry
        slots._raw[:length, column] += np.bincount(indices, weights=sizes, minlength=length)
        slots._raw[:length, column + 1] += np.bincount(indices, minlength=length)


class StreamFoldCascade(SessionReducerCascade):
    """Oracle: ``absorb_stream`` as its own fold body — session aggregates,
    launch window, :func:`directional_slots` and ``absorb_arrays`` read
    straight from the stream's per-direction views (the offline path before
    it folded through ``fold`` / ``TickFacts.of_stream``).  Valid as the
    first fold of the cascade only."""

    __slots__ = ()

    def absorb_stream(self, stream):
        columns = stream.columns()
        if not len(columns):
            return 0
        assert self.origin is None, "the oracle folds a whole session once"
        timestamps = columns.timestamps
        self.origin = float(timestamps[0])  # sorted stream
        self.last_ts = float(timestamps[-1])
        self.n_packets = len(columns)
        if self._history is not None:
            self._history.append(columns)
        down_times = stream.timestamps(Direction.DOWNSTREAM)
        down_sizes = stream.payload_sizes(Direction.DOWNSTREAM)
        up_times = stream.timestamps(Direction.UPSTREAM)
        up_sizes = stream.payload_sizes(Direction.UPSTREAM)
        if down_times.size:
            self.has_downstream = True
            self.down_bytes += float(down_sizes.sum())
        self.up_bytes += float(up_sizes.sum())
        ssrc = columns.rtp_ssrc
        if ssrc is not None and bool(np.any(ssrc != RTP_NONE)):
            self.has_rtp = True
        new_window_rows = self.launch.absorb(columns, self.origin)
        directional_slots(
            self.slots, down_times, down_sizes, up_times, up_sizes, self.origin
        )
        down_rows = stream.direction_indices(Direction.DOWNSTREAM)
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        self.qoe.absorb_arrays(
            down_times,
            down_sizes,
            sequences[down_rows] if sequences is not None else None,
            rtp_times[down_rows] if rtp_times is not None else None,
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


def _geometry(pipeline, tier="bounded", qoe_interval_seconds=float("inf")) -> dict:
    """Cascade arguments in the pipeline's geometry, for one tier."""
    return dict(
        slot_duration=pipeline.activity_classifier.slot_duration,
        alpha=pipeline.activity_classifier.alpha,
        window_seconds=pipeline.title_classifier.window_seconds,
        qoe_interval_seconds=qoe_interval_seconds,
        keep_history=tier == "full",
        qoe_mode="approx" if tier == "approx" else "exact",
    )


_TIERS = st.sampled_from(["bounded", "approx", "full"])
_QOE_WIDTHS = st.sampled_from([float("inf"), 10.0, 1.5])


@settings(max_examples=150, deadline=None)
@given(batches=_sub_batches(), tier=_TIERS, qoe_interval_seconds=_QOE_WIDTHS)
def test_fold_shortcuts_equal_general_reducers(
    fitted_pipeline, batches, tier, qoe_interval_seconds
):
    geometry = _geometry(fitted_pipeline, tier, qoe_interval_seconds)
    cascade = SessionReducerCascade(**geometry)
    reference = GeneralFoldCascade(**geometry)
    for batch in batches:
        assert absorb(cascade, batch) == absorb(reference, batch)
        # the provisional gates move the slot cursor and the seal watermark
        clock = float(batch.timestamps.max())
        for folded in (cascade, reference):
            folded.advance_slots(clock)
            folded.advance_qoe(clock)
        assert _state_bytes(cascade) == _state_bytes(reference)
    (got,) = fitted_pipeline.finalize_cascades([cascade])
    (expected,) = fitted_pipeline.finalize_cascades([reference])
    assert_report_identical(got, expected)


# ---------------------------------------------------------------------------
# the offline whole-session fold vs its own former body (property test)
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(batches=_sub_batches(), tier=_TIERS, qoe_interval_seconds=_QOE_WIDTHS)
def test_absorb_stream_equals_stream_fold_oracle(
    fitted_pipeline, batches, tier, qoe_interval_seconds
):
    stream = PacketStream.from_columns(PacketColumns.concat(batches))
    geometry = _geometry(fitted_pipeline, tier, qoe_interval_seconds)
    cascade = SessionReducerCascade(**geometry)
    reference = StreamFoldCascade(**geometry)
    assert cascade.absorb_stream(stream) == reference.absorb_stream(stream)
    assert _state_bytes(cascade) == _state_bytes(reference)
    got, expected = fitted_pipeline.finalize_cascades([cascade, reference])
    assert_report_identical(got, expected)


@settings(max_examples=60, deadline=None)
@given(batches=_sub_batches())
def test_stream_facts_equal_batch_facts(batches):
    stream = PacketStream.from_columns(PacketColumns.concat(batches))
    got = TickFacts.of_stream(stream)
    expected = TickFacts.of_batch(stream.columns())
    for name in TickFacts.__slots__:
        value, wanted = getattr(got, name), getattr(expected, name)
        if isinstance(wanted, np.ndarray):
            assert value.dtype == wanted.dtype and np.array_equal(value, wanted), name
        else:
            assert value == wanted, name


def _edge_stream(case) -> PacketStream:
    """A capture the flow detector matches nothing in (so it is classified
    whole): no rows, upstream rows only, or rows without RTP columns."""
    if case == "empty":
        return PacketStream()
    n = 400
    timestamps = _BASE_S + np.linspace(0.0, 30.0, n)
    sizes = np.full(n, 700.0)
    if case == "upstream_only":
        return PacketStream.from_arrays(timestamps, sizes, Direction.UPSTREAM)
    directions = np.where(np.arange(n) % 5, DOWNSTREAM_CODE, 1 - DOWNSTREAM_CODE)
    return PacketStream.from_arrays(timestamps, sizes, directions)


@pytest.mark.parametrize("case", ["empty", "upstream_only", "no_rtp"])
@pytest.mark.parametrize("tier", ["bounded", "approx"])
def test_offline_entry_points_equal_stream_fold_oracle(fitted_pipeline, case, tier):
    stream = _edge_stream(case)
    qoe_mode = "approx" if tier == "approx" else "exact"
    reference = StreamFoldCascade(**_geometry(fitted_pipeline, tier))
    reference.absorb_stream(stream)
    (expected,) = fitted_pipeline.finalize_cascades([reference])
    assert expected.platform is None
    assert_report_identical(fitted_pipeline.process(stream, qoe_mode=qoe_mode), expected)
    for report in fitted_pipeline.process_many([stream, stream], qoe_mode=qoe_mode):
        assert_report_identical(report, expected)


def test_equal_approx_states_pickle_to_equal_bytes(fitted_pipeline, runtime_sessions):
    """Approx-tier checkpoints are deterministic: no slot of a snapshot
    holds memory the fold never wrote."""
    columns = runtime_sessions[0].packets.columns()

    def folded():
        cascade = fitted_pipeline.new_cascade(
            qoe_interval_seconds=10.0, qoe_mode="approx"
        )
        for start in range(0, len(columns), 5000):
            absorb(cascade, columns.take(slice(start, start + 5000)))
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



# ---------------------------------------------------------------------------
# the exact QoE reducer: sorted by window first, the offline views exactly
# ---------------------------------------------------------------------------
@st.composite
def _downstream_batches(draw):
    """Shuffled downstream rows with duplicate timestamps, cut at random points.

    Each batch carries its RTP columns, lacks them, or carries them on some
    rows only; rows without RTP read as ``RTP_NONE``.
    """
    n = draw(st.integers(1, 60))
    ticks = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=6, unique=True)))
    timestamps = _BASE_S + 0.25 * np.array(ticks, dtype=float)[order]
    sizes = np.array(draw(st.lists(st.integers(40, 1400), min_size=n, max_size=n)), dtype=float)
    sequences = np.array(draw(st.lists(st.integers(0, 0xFFFF), min_size=n, max_size=n)))
    rtp_times = np.array(draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)))
    batches = []
    for start, stop in zip([0] + cuts, cuts + [n]):
        if start >= stop:
            continue
        rows = slice(start, stop)
        seq, rts = sequences[rows].copy(), rtp_times[rows].copy()
        rtp = draw(st.sampled_from(["all", "none", "some"]))
        if rtp == "some":
            absent = np.array(draw(st.lists(st.booleans(), min_size=stop - start, max_size=stop - start)))
            seq[absent] = RTP_NONE
            rts[absent] = RTP_NONE
        batches.append(
            (timestamps[rows], sizes[rows], None if rtp == "none" else seq, None if rtp == "none" else rts)
        )
    return batches


@settings(max_examples=200, deadline=None)
@given(batches=_downstream_batches(), width=st.sampled_from([float("inf"), 10.0, 2.5, 0.75]))
def test_exact_interval_reducer_equals_sorted_offline_views(batches, width):
    """Every sealed window and the close-time columns are the stably
    time-sorted downstream views of the rows that arrived by then, whatever
    the batch order, cut points and RTP columns."""
    origin = min(float(ts.min()) for ts, _, _, _ in batches)
    reducer = QoEIntervalReducer(width)
    arrived = []

    def offline(rows):
        """Stable time sort of the concatenation in arrival order."""
        times = np.concatenate([ts for ts, _, _, _ in rows])
        fill = [np.full(ts.size, RTP_NONE, dtype=np.int64) for ts, _, _, _ in rows]
        seq = np.concatenate([f if s is None else s for (_, _, s, _), f in zip(rows, fill)])
        rts = np.concatenate([f if r is None else r for (_, _, _, r), f in zip(rows, fill)])
        order = np.argsort(times, kind="stable")
        times, seq, rts = times[order], seq[order], rts[order]
        window = np.maximum(np.floor((times - origin) / width), 0)
        return times, seq, rts, window

    def check(sealed):
        times, seq, rts, window = offline(arrived)
        for view in sealed:
            mine = window == view.index
            np.testing.assert_array_equal(view.down_times, times[mine])
            np.testing.assert_array_equal(view.rtp_sequences, seq[mine][seq[mine] != RTP_NONE])
            np.testing.assert_array_equal(view.rtp_timestamps, rts[mine][rts[mine] != RTP_NONE])
            assert view.n_packets == int(np.count_nonzero(mine))

    for batch in batches:
        timestamps, sizes, sequences, rtp_times = batch
        reducer.absorb_arrays(timestamps, sizes, sequences, rtp_times, origin)
        arrived.append(batch)
        check(reducer.advance(float(timestamps.max()), origin))
    last_ts = max(float(ts.max()) for ts, _, _, _ in batches)
    check(reducer.flush(origin, last_ts))
    times, seq, rts, _ = offline(arrived)
    down_times, rtp_timestamps, rtp_sequences = reducer.final_columns()
    np.testing.assert_array_equal(down_times, times)
    np.testing.assert_array_equal(rtp_sequences, seq[seq != RTP_NONE])
    np.testing.assert_array_equal(rtp_timestamps, rts[rts != RTP_NONE])
