"""Streaming runtime: demux, online cascade, streaming-vs-offline equality.

The load-bearing guarantee (ISSUE 3 acceptance): the final
``SessionContextReport`` of every flow closed by the streaming engine is
**bit-identical** to offline ``process()`` on the same session — across
feed batch sizes, with packets shuffled out of order within a batch, and
for raw (context-free) packet feeds that go through signature-based
platform detection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.transition import (
    PrefixTransitionTracker,
    prefix_transition_features,
    stage_codes,
)
from repro.net.packet import (
    DOWNSTREAM_CODE,
    Direction,
    PacketColumns,
    PacketStream,
    UPSTREAM_CODE,
)
from repro.runtime import (
    FlowDemux,
    PatternInferred,
    SessionFeed,
    SessionReport,
    SessionStarted,
    StageUpdate,
    StreamingEngine,
    TitleClassified,
    canonical_flow_key,
)
from repro.runtime.state import SessionState
from repro.simulation.catalog import PlayerStage


def assert_report_identical(got, expected):
    """Field-for-field bit equality of two session context reports."""
    assert got.platform == expected.platform
    assert got.title == expected.title
    assert got.stage_timeline == expected.stage_timeline
    assert got.stage_fractions == expected.stage_fractions
    assert got.pattern == expected.pattern
    assert got.objective_metrics == expected.objective_metrics
    assert got.objective_qoe is expected.objective_qoe
    assert got.effective_qoe is expected.effective_qoe
    assert got.qoe_approximate == expected.qoe_approximate


def reports_by_client_port(events):
    return {
        event.flow.client_port: event.report
        for event in events
        if isinstance(event, SessionReport)
    }


# ---------------------------------------------------------------------------
# streaming-vs-offline equivalence
# ---------------------------------------------------------------------------
#: Property-style sweep inputs: 10 generator seeds (not hand-picked — a
#: contiguous range), titles cycling through mixed activity patterns, and
#: varying session lengths.  Equality must hold for every (seed, batch,
#: session-mode) combination, not just the lucky ones.
SWEEP_SEEDS = tuple(range(200, 210))
_SWEEP_TITLES = (
    "Fortnite", "Hearthstone", "CS:GO/CS2", "Cyberpunk 2077", "Rocket League",
)


@pytest.fixture(scope="module")
def sweep_sessions():
    from repro.simulation.session import SessionConfig, SessionGenerator

    sessions = []
    for position, seed in enumerate(SWEEP_SEEDS):
        generator = SessionGenerator(random_state=seed)
        sessions.append(generator.generate(
            _SWEEP_TITLES[position % len(_SWEEP_TITLES)],
            SessionConfig(
                gameplay_duration_s=60.0 + 5.0 * position,
                rate_scale=0.03,
            ),
        ))
    return sessions


@pytest.fixture(scope="module")
def sweep_offline_reports(fitted_pipeline, sweep_sessions):
    return {
        "exact": [fitted_pipeline.process(s) for s in sweep_sessions],
        "approx": [
            fitted_pipeline.process(s, qoe_mode="approx") for s in sweep_sessions
        ],
    }


@pytest.mark.parametrize("session_mode", ["bounded", "full", "approx"])
@pytest.mark.parametrize("batch_seconds", [1.5, 6.0])
def test_streaming_reports_equal_offline_across_seed_sweep(
    fitted_pipeline, sweep_sessions, sweep_offline_reports,
    session_mode, batch_seconds,
):
    expected_reports = sweep_offline_reports[
        "approx" if session_mode == "approx" else "exact"
    ]
    feed = SessionFeed(sweep_sessions, batch_seconds=batch_seconds)
    engine = StreamingEngine(fitted_pipeline, session_mode=session_mode)
    events = list(engine.run(feed))
    reports = reports_by_client_port(events)
    assert len(reports) == len(sweep_sessions)
    for index, expected in enumerate(expected_reports):
        assert_report_identical(reports[52000 + index], expected)


def test_streaming_reports_equal_offline_with_shuffled_batches(
    fitted_pipeline, runtime_sessions, runtime_offline_reports
):
    """Out-of-order arrivals within a batch do not change the final reports.

    Nor do they shift a session's origin: ``origin_shifts`` counts only
    packets that arrive a whole batch late (the pre-origin test below).
    """
    feed = SessionFeed(
        runtime_sessions,
        batch_seconds=2.0,
        shuffle_within_batch=True,
        random_state=3,
    )
    engine = StreamingEngine(fitted_pipeline)
    events = list(engine.run(feed))
    reports = reports_by_client_port(events)
    for index, expected in enumerate(runtime_offline_reports):
        assert_report_identical(reports[52000 + index], expected)
    assert [e.origin_shifts for e in events if isinstance(e, SessionReport)] == [0] * len(
        runtime_sessions
    )


@pytest.mark.parametrize("late_seconds", [0.3, 2.5])
def test_full_tier_is_the_exact_one_under_cross_batch_pre_origin_arrival(
    fitted_pipeline, sweep_sessions, sweep_offline_reports, late_seconds
):
    """The input ``session_mode="full"`` exists for (ROADMAP collapse (d)).

    The first ``late_seconds`` of a 60 s session reach the engine one batch
    after the packets that follow them.  ``"full"`` refolds its history and
    closes bit-identical to offline; ``"bounded"`` keeps the late anchor —
    its report deviates, and ``origin_shifts`` on the close event says so.
    """
    session, offline = sweep_sessions[0], sweep_offline_reports["exact"][0]
    feed = SessionFeed([session], batch_seconds=3.0)
    first, *later = list(feed)
    cut = first.timestamps.min() + late_seconds
    batches = [
        first.take(np.nonzero(first.timestamps >= cut)[0]),
        first.take(np.nonzero(first.timestamps < cut)[0]),
        *later,
    ]
    closes = {}
    for session_mode in ("full", "bounded"):
        engine = StreamingEngine(fitted_pipeline, session_mode=session_mode)
        for key, context in feed.flow_contexts.items():
            engine.set_flow_context(key, context)
        events = [event for batch in batches for event in engine.ingest(batch)]
        events += engine.close_all()
        (closes[session_mode],) = (e for e in events if isinstance(e, SessionReport))

    assert_report_identical(closes["full"].report, offline)
    assert closes["full"].origin_shifts == 1
    assert closes["full"].duration_s == session.packets.duration

    bounded = closes["bounded"]
    assert bounded.origin_shifts >= 1
    assert bounded.duration_s < closes["full"].duration_s  # anchored late
    assert bounded.report.objective_metrics != offline.objective_metrics
    assert bounded.report.stage_timeline != offline.stage_timeline


def test_pipeline_with_a_non_forest_title_model(small_gameplay_corpus, tmp_path):
    """The Fig. 14/15 comparison end to end: a 1-NN title stage fits and runs.

    ``compile_kernels`` used to touch ``model.kernel`` on every fitted
    model and died in ``fit`` for anything but a forest.
    """
    from repro.core.pipeline import ContextClassificationPipeline
    from repro.core.title_classifier import GameTitleClassifier
    from repro.ml import KNeighborsClassifier, RandomForestClassifier
    from repro.runtime import pipeline_digest, save_pipeline

    pipeline = ContextClassificationPipeline(random_state=3)
    pipeline.title_classifier = GameTitleClassifier(
        model=KNeighborsClassifier(n_neighbors=1)
    )
    for stage in (pipeline.activity_classifier, pipeline.pattern_classifier):
        stage.model = RandomForestClassifier(n_estimators=10, max_depth=10, random_state=3)
    sessions = small_gameplay_corpus.sessions
    pipeline.fit(sessions)

    offline = pipeline.process(sessions[0])
    assert offline.title.title == sessions[0].title_name  # 1-NN on a training row
    reports = reports_by_client_port(
        StreamingEngine(pipeline).run(SessionFeed(sessions[:1], batch_seconds=2.0))
    )
    assert_report_identical(reports[52000], offline)

    for persist in (pipeline_digest, lambda p: save_pipeline(p, tmp_path / "model")):
        with pytest.raises(TypeError, match="title stage uses a KNeighborsClassifier"):
            persist(pipeline)


def test_raw_packet_feed_matches_offline_process(fitted_pipeline, runtime_sessions):
    """A context-free packet feed reproduces offline ``process(packets)``.

    The offline path runs the cloud-gaming detector over the packets; the
    runtime detects the platform per flow with the same signatures, so the
    reports agree even on the platform field (None here: the reduced-
    fidelity session streams below the signatures' bitrate floor).
    """
    session = runtime_sessions[0]
    expected = fitted_pipeline.process(session.packets)
    engine = StreamingEngine(fitted_pipeline)
    columns = session.packets.columns()
    events = []
    for start in range(0, len(columns), 4000):
        events += engine.ingest(columns.take(slice(start, start + 4000)))
    events += engine.close_all()
    reports = [e.report for e in events if isinstance(e, SessionReport)]
    assert len(reports) == 1
    assert_report_identical(reports[0], expected)


def test_platform_detection_on_full_rate_flow(fitted_pipeline):
    """A flow matching the GeForce NOW signature is detected at close."""
    rng = np.random.default_rng(7)
    n = 12_000
    address_down = ("203.0.113.9", "192.168.7.2", 49004, 53123, "udp")
    address_up = ("192.168.7.2", "203.0.113.9", 53123, 49004, "udp")
    down = PacketColumns.uniform(
        np.sort(rng.uniform(0, 12, n)),
        np.full(n, 1200.0),
        Direction.DOWNSTREAM,
        address=address_down,
        rtp_ssrc=5,
        rtp_sequence=np.arange(n) & 0xFFFF,
        rtp_timestamp=(np.arange(n) * 1500) & 0xFFFFFFFF,
    )
    up = PacketColumns.uniform(
        np.sort(rng.uniform(0, 12, 600)),
        np.full(600, 100.0),
        Direction.UPSTREAM,
        address=address_up,
    )
    columns = PacketColumns.concat([down, up]).sorted_by_time()
    expected = fitted_pipeline.process(columns)
    assert expected.platform == "GeForce NOW"

    engine = StreamingEngine(fitted_pipeline)
    events = []
    for start in range(0, len(columns), 3000):
        events += engine.ingest(columns.take(slice(start, start + 3000)))
    events += engine.close_all()
    reports = [e.report for e in events if isinstance(e, SessionReport)]
    assert len(reports) == 1
    assert reports[0].platform == "GeForce NOW"
    assert_report_identical(reports[0], expected)


# ---------------------------------------------------------------------------
# event stream structure
# ---------------------------------------------------------------------------
def test_event_stream_structure(fitted_pipeline, runtime_sessions):
    feed = SessionFeed(runtime_sessions, batch_seconds=1.0)
    engine = StreamingEngine(fitted_pipeline)
    events = list(engine.run(feed))

    by_flow = {}
    for event in events:
        by_flow.setdefault(event.flow, []).append(event)
    assert len(by_flow) == len(runtime_sessions)

    window = fitted_pipeline.title_classifier.window_seconds
    for flow, flow_events in by_flow.items():
        kinds = [type(event) for event in flow_events]
        # lifecycle: starts first, report last, exactly one of each
        assert kinds[0] is SessionStarted
        assert kinds[-1] is SessionReport
        assert kinds.count(SessionStarted) == 1
        assert kinds.count(SessionReport) == 1
        # exactly one title classification, stamped at the end of the window
        titles = [e for e in flow_events if isinstance(e, TitleClassified)]
        assert len(titles) == 1
        # stamped at origin + window; the session's first packet lands
        # shortly after feed time 0
        assert window <= titles[0].time <= window + 1.0
        # stage updates cover every slot in order
        slots = [e.slot_index for e in flow_events if isinstance(e, StageUpdate)]
        assert slots == list(range(len(slots)))
        assert all(
            e.stage in PlayerStage.gameplay_stages()
            for e in flow_events
            if isinstance(e, StageUpdate)
        )
        # at most one confident pattern inference
        patterns = [e for e in flow_events if isinstance(e, PatternInferred)]
        assert len(patterns) <= 1
        for event in patterns:
            assert event.prediction.confident
            assert (
                event.prediction.confidence
                >= fitted_pipeline.pattern_classifier.confidence_threshold
            )
        # the provisional timeline spans the whole session
        report = flow_events[-1]
        assert len(slots) == max(
            1, int(np.ceil(report.duration_s / engine.slot_duration))
        )


# ---------------------------------------------------------------------------
# mode mismatch handling: unknown session modes fail fast at construction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bad_mode", ["unbounded", "exact", "", "BOUNDED"])
def test_streaming_engine_rejects_unknown_session_mode(fitted_pipeline, bad_mode):
    with pytest.raises(ValueError, match="session_mode"):
        StreamingEngine(fitted_pipeline, session_mode=bad_mode)


@pytest.mark.parametrize("bad_mode", ["unbounded", "exact", "", "BOUNDED"])
def test_sharded_engine_rejects_unknown_session_mode(fitted_pipeline, bad_mode):
    """The sharded front end validates at construction too — deferring the
    check would kill a forked worker and surface only as an EOFError."""
    from repro.runtime import ShardedEngine

    with pytest.raises(ValueError, match="session_mode"):
        ShardedEngine(fitted_pipeline, n_workers=2, session_mode=bad_mode)


@pytest.mark.parametrize("bad_count", [0, -1])
def test_sharded_engine_rejects_non_positive_worker_counts(fitted_pipeline, bad_count):
    """0 is a mistake like -1, not a request for the default core count."""
    from repro.runtime import ShardedEngine

    with pytest.raises(ValueError, match="n_workers"):
        ShardedEngine(fitted_pipeline, n_workers=bad_count)


@pytest.mark.parametrize("mode", ["bounded", "full", "approx"])
def test_every_session_mode_constructs(fitted_pipeline, mode):
    from repro.runtime import ShardedEngine

    assert StreamingEngine(fitted_pipeline, session_mode=mode).session_mode == mode
    assert (
        ShardedEngine(fitted_pipeline, n_workers=2, session_mode=mode).session_mode
        == mode
    )


def test_idle_timeout_closes_quiet_flows(fitted_pipeline, runtime_sessions):
    short, long = runtime_sessions[1], runtime_sessions[0]  # 120 s vs 150 s
    feed = SessionFeed([short, long], batch_seconds=5.0)
    engine = StreamingEngine(fitted_pipeline, idle_timeout_s=10.0)
    events = list(engine.run(feed))
    reasons = {
        event.flow.client_port: event.reason
        for event in events
        if isinstance(event, SessionReport)
    }
    assert reasons[52000] == "idle"  # the short session times out mid-feed
    assert reasons[52001] == "eof"


# ---------------------------------------------------------------------------
# demux
# ---------------------------------------------------------------------------
def test_demux_partitions_by_canonical_flow(rng):
    address_a_down = ("10.0.0.1", "10.9.9.1", 49004, 50001, "udp")
    address_a_up = ("10.9.9.1", "10.0.0.1", 50001, 49004, "udp")
    address_b_down = ("10.0.0.2", "10.9.9.2", 49005, 50002, "udp")
    address_b_up = ("10.9.9.2", "10.0.0.2", 50002, 49005, "udp")
    n = 400
    timestamps = np.sort(rng.uniform(0, 5, n))
    directions = np.where(rng.random(n) < 0.7, DOWNSTREAM_CODE, UPSTREAM_CODE).astype(
        np.int8
    )
    addresses = np.empty(n, dtype=object)
    flow_b = rng.random(n) < 0.4
    for row in range(n):
        upstream = directions[row] == UPSTREAM_CODE
        if flow_b[row]:
            addresses[row] = address_b_up if upstream else address_b_down
        else:
            addresses[row] = address_a_up if upstream else address_a_down
    columns = PacketColumns(
        timestamps=timestamps,
        payload_sizes=np.full(n, 100.0),
        directions=directions,
        addresses=addresses,
    )
    parts = dict(FlowDemux().split(columns))
    # split_indices hands every flow its batch positions in ascending order
    for _key, rows in FlowDemux().split_indices(columns):
        assert np.all(np.diff(rows) > 0)
    key_a = canonical_flow_key(address_a_down, DOWNSTREAM_CODE)
    key_b = canonical_flow_key(address_b_down, DOWNSTREAM_CODE)
    # both directions of flow A canonicalise to one key
    assert canonical_flow_key(address_a_up, UPSTREAM_CODE) == key_a
    assert set(parts) == {key_a, key_b}
    assert len(parts[key_a]) + len(parts[key_b]) == n
    # row order within each flow is preserved
    for key, expected_rows in (
        (key_a, timestamps[~flow_b]),
        (key_b, timestamps[flow_b]),
    ):
        assert np.array_equal(parts[key].timestamps, expected_rows)
    # client/server orientation
    assert key_a.client_ip == "10.9.9.1" and key_a.server_port == 49004


def test_demux_keeps_no_per_flow_state_over_many_flows():
    """100 k flows through one long-lived demux: nothing is kept between
    batches, and every answer equals a fresh demux's."""
    long_lived = FlowDemux()
    per_batch = 500
    for batch_index in range(200):
        base = batch_index * per_batch
        addresses = np.empty(2 * per_batch, dtype=object)
        for flow in range(per_batch):
            number = base + flow
            client = f"10.{number >> 16 & 255}.{number >> 8 & 255}.{number & 255}"
            addresses[2 * flow] = ("198.51.100.7", client, 49004, 50000, "udp")
            addresses[2 * flow + 1] = (client, "198.51.100.7", 50000, 49004, "udp")
        columns = PacketColumns(
            timestamps=np.arange(2 * per_batch, dtype=float),
            payload_sizes=np.full(2 * per_batch, 100.0),
            directions=np.tile([DOWNSTREAM_CODE, UPSTREAM_CODE], per_batch),
            addresses=addresses,
        )
        got = long_lived.split_indices(columns)
        assert vars(long_lived) == {}
        assert len(got) == per_batch
        if batch_index % 10 == 9:
            fresh = FlowDemux().split_indices(columns)
            assert [key for key, _ in got] == [key for key, _ in fresh]
            for (_, got_rows), (_, fresh_rows) in zip(got, fresh):
                assert np.array_equal(got_rows, fresh_rows)


# ---------------------------------------------------------------------------
# incremental state invariants
# ---------------------------------------------------------------------------
def test_prefix_transition_tracker_matches_batch_prefixes(rng):
    stages = [
        (PlayerStage.LAUNCH, PlayerStage.IDLE, PlayerStage.PASSIVE, PlayerStage.ACTIVE)[
            int(code)
        ]
        for code in rng.integers(0, 4, 400)
    ]
    expected_features, expected_seen = prefix_transition_features(stage_codes(stages))
    tracker = PrefixTransitionTracker()
    features, seen = [], []
    position = 0
    while position < len(stages):
        step = int(rng.integers(1, 13))
        block_features, block_seen = tracker.extend(stages[position : position + step])
        features.append(block_features)
        seen.append(block_seen)
        position += step
    assert np.array_equal(np.vstack(features), expected_features)
    assert np.array_equal(np.concatenate(seen), expected_seen)
    assert tracker.snapshot()["gameplay_seen"] == int(expected_seen[-1])


def test_session_state_slot_accumulator_matches_offline_raw_matrix(rng):
    """The incremental per-slot counters equal the bincount oracle exactly."""
    n = 5000
    timestamps = np.sort(rng.uniform(100.0, 187.3, n))
    sizes = rng.integers(40, 1400, n).astype(float)
    directions = np.where(rng.random(n) < 0.8, DOWNSTREAM_CODE, UPSTREAM_CODE).astype(
        np.int8
    )
    columns = PacketColumns(
        timestamps=timestamps, payload_sizes=sizes, directions=directions
    )
    key = canonical_flow_key(("0.0.0.0", "0.0.0.0", 0, 0, "udp"), DOWNSTREAM_CODE)
    from test_reducers import absorb, bincount_raw_slot_matrix  # it imports this module

    state = SessionState(key, slot_duration=1.0, alpha=0.5)
    for start in range(0, n, 700):
        absorb(state.cascade, columns.take(slice(start, start + 700)))

    expected = bincount_raw_slot_matrix(PacketStream.from_columns(columns), 1.0)
    n_slots = expected.shape[0]
    assert state.cascade.total_slots() == n_slots
    assert np.array_equal(state.cascade.final_raw_matrix(), expected)


def test_session_feed_reassembles_to_original_stream(runtime_sessions):
    session = runtime_sessions[0]
    feed = SessionFeed([session], batch_seconds=3.0)
    batches = list(feed)
    assert len(batches) > 10
    merged = PacketColumns.concat(batches).sorted_by_time()
    original = session.packets.columns()
    assert np.array_equal(merged.timestamps, original.timestamps)
    assert np.array_equal(merged.payload_sizes, original.payload_sizes)
    assert np.array_equal(merged.directions, original.directions)
    if original.rtp_sequence is not None:
        assert np.array_equal(merged.rtp_sequence, original.rtp_sequence)
    # every row was re-addressed to the feed's unique client endpoint
    key = next(iter(feed.flow_contexts))
    assert key.client_port == 52000
    assert feed.flow_contexts[key].rate_scale == session.rate_scale
