"""Fleet analytics tier: sketch algebra, rollup identity, region threading.

The tier's contract (DESIGN.md §10) is *bit-identity*: the same corpus
folded offline, through a single-process streaming engine, or across a
sharded fleet — with or without seeded worker crashes — yields
byte-identical rollup state.  The sketch algebra tests pin the substrate
(order/chunking-invariant merges), the identity tests pin the three fold
paths against each other and the offline fold, which folds window facts,
to the oracle that folds every window's full event, and the fault-matrix
test (``pytest -m faults``) pins exactly-once folding through SIGKILLed
workers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    DEFAULT_REGION,
    CentroidSketch,
    FleetAggregator,
    LogBucketHistogram,
    StatsAccumulator,
    fold_corpus,
)
from repro.analytics.fleet import (
    _LAG_SKETCH,
    _LOSS_SKETCH,
    _THROUGHPUT_SKETCH,
    event_window_facts,
    sealed_window_facts,
)
from repro.core.qoe import has_frame_evidence
from repro.core.reducers import ApproxQoEIntervalReducer, QoEIntervalReducer
from repro.net.flow import FlowKey
from repro.net.packet import RTP_NONE, Direction
from repro.runtime import (
    FaultPlan,
    KillWorker,
    SessionFeed,
    ShardedEngine,
    StreamingEngine,
)
from repro.runtime.engine import build_qoe_interval_event
from repro.runtime.events import SessionReport
from repro.runtime.state import FlowContext
from repro.simulation.isp import _REGION_MIX, ISPDeploymentSimulator

SKETCHES = {
    "stats": StatsAccumulator,
    "histogram": LogBucketHistogram,
    "centroid": CentroidSketch,
}


def _values(seed, size=4000):
    rng = np.random.default_rng(seed)
    # span underflow, in-range and overflow against the default layouts
    return np.concatenate(
        [
            rng.lognormal(mean=2.0, sigma=1.5, size=size // 2),
            rng.uniform(0.0, 5e5, size=size // 4),
            rng.uniform(0.0, 1e-4, size=size // 4),
        ]
    )


def fold(sketch, values):
    """``sketch`` after ``add`` of every value in order (the one fold body)."""
    for value in values:
        sketch.add(float(value))
    return sketch


# ---------------------------------------------------------------------------
# sketch algebra: merge is associative, commutative, chunking-invariant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SKETCHES))
@pytest.mark.parametrize("seed", [3, 17, 92])
def test_sketch_fold_is_order_and_chunking_invariant(kind, seed):
    values = _values(seed)
    cls = SKETCHES[kind]

    serial = fold(cls(), values)
    reference = serial.digest()

    # one value at a time, shuffled
    shuffled = cls()
    for value in np.random.default_rng(seed + 1).permutation(values):
        shuffled.add(float(value))
    assert shuffled.digest() == reference

    # uneven chunks, in reverse order, folded into one sketch
    chunked = cls()
    for chunk in reversed(np.array_split(values, 13)):
        fold(chunked, chunk)
    assert chunked.digest() == reference

    # per-chunk sketches merged as a binary tree
    leaves = [fold(cls(), chunk) for chunk in np.array_split(values, 8)]
    while len(leaves) > 1:
        merged = leaves.pop(0)
        merged.merge(leaves.pop(0))
        leaves.append(merged)
    assert leaves[0].digest() == reference
    assert leaves[0] == serial  # __eq__ compares canonical state


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_sketch_merge_is_commutative(kind):
    cls = SKETCHES[kind]
    a_values, b_values = _values(5, 1000), _values(6, 700)
    a, b = fold(cls(), a_values), fold(cls(), b_values)
    ab, ba = fold(cls(), a_values), fold(cls(), b_values)
    ab.merge(b)
    ba.merge(a)
    assert ab.digest() == ba.digest()


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_sketch_snapshot_round_trip_is_exact(kind):
    cls = SKETCHES[kind]
    sketch = fold(cls(), _values(9))
    clone = cls.from_snapshot(pickle.loads(pickle.dumps(sketch.snapshot())))
    assert clone.digest() == sketch.digest()
    # the clone keeps folding identically
    fold(sketch, _values(10, 500))
    fold(clone, _values(10, 500))
    assert clone.digest() == sketch.digest()


def test_sketch_merge_rejects_layout_mismatch():
    a = LogBucketHistogram(min_value=1e-3, max_value=1e6, growth=1.08)
    b = LogBucketHistogram(min_value=1e-3, max_value=1e6, growth=1.10)
    with pytest.raises(ValueError, match="different"):
        a.merge(b)
    with pytest.raises(TypeError):
        a.merge(CentroidSketch())


# ---------------------------------------------------------------------------
# the one fold body on bin edges (DESIGN.md §10 "One value at a time")
# ---------------------------------------------------------------------------
#: the three layouts production folds into, and the constructors' defaults
LAYOUTS = {
    "lag": _LAG_SKETCH,
    "throughput": _THROUGHPUT_SKETCH,
    "loss": _LOSS_SKETCH,
    "default": (1e-3, 1e6, 1.08),
}
N_BINS = {name: CentroidSketch(*layout).layout.n_bins for name, layout in LAYOUTS.items()}
_TIE = 2.0**-21  # half of one fixed-point step: where ``rint`` breaks ties


@st.composite
def _edge_values(draw, min_size=1, max_size=40):
    """A layout and values on, and one float either side of, what decides a slot."""
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    min_value, max_value, growth = LAYOUTS[name]
    edge = st.integers(0, N_BINS[name] + 2).map(lambda k: min_value * growth**k)
    value = st.one_of(
        edge,
        edge.map(lambda v: float(np.nextafter(v, np.inf))),
        edge.map(lambda v: float(np.nextafter(v, -np.inf))),
        st.floats(0.0, min_value),
        # both zeros: the extremes must not keep whichever one came first
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e6, 0.0),
        st.floats(max_value, 1e12),
        st.integers(-8, 2**24).map(lambda k: k * _TIE),
        st.floats(min_value, max_value),
    )
    return name, draw(st.lists(value, min_size=min_size, max_size=max_size))


def _sketches(name):
    layout = LAYOUTS[name]
    return [StatsAccumulator, lambda: LogBucketHistogram(*layout), lambda: CentroidSketch(*layout)]


@settings(max_examples=300, deadline=None)
@given(case=_edge_values(max_size=1))
def test_add_bins_a_value_where_numpys_log_puts_it(case):
    """A value's cell is ``floor((log v - log min) / log growth) + 1``, clipped,
    with numpy's logarithm: ``math.log`` can differ from it in the last place,
    which moves a value on a bin edge, and the pinned digests used numpy's."""
    name, (value,) = case
    for make in _sketches(name)[1:]:
        sketch = make()
        sketch.add(value)
        layout = sketch.layout
        if value > layout.min_value:
            raw = np.floor(
                (np.log(np.array([value])) - layout._log_min) / layout._log_growth
            )
            slot = int(np.clip(raw.astype(np.int64) + 1, 1, layout.n_bins + 1)[0])
        else:
            slot = 0
        assert np.flatnonzero(sketch.counts).tolist() == [slot], value.hex()
        # the fixed point rounds half to even, like np.rint did in bulk
        fixed = int(np.rint(value * 2.0**20))
        assert sketch.stats.scaled_sum == fixed, value.hex()


@settings(max_examples=150, deadline=None)
@given(case=_edge_values(min_size=2), data=st.data())
def test_any_fold_order_and_any_merge_tree_have_one_digest(case, data):
    name, values = case
    shuffled = data.draw(st.permutations(values))
    # a random merge tree: leaves are the runs between drawn cuts, folded one
    # value at a time; then random pairs merge, either way round, until one is left
    cuts = sorted(data.draw(st.sets(st.integers(1, len(values) - 1), max_size=6)))
    runs = [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]
    for make in _sketches(name):
        reference = fold(make(), values)
        serial = fold(make(), shuffled)
        assert serial.digest() == reference.digest()
        leaves = []
        for run in runs:
            leaf = make()
            for value in run:
                leaf.add(value)
            leaves.append(leaf)
        while len(leaves) > 1:
            a = leaves.pop(data.draw(st.integers(0, len(leaves) - 1)))
            b = leaves.pop(data.draw(st.integers(0, len(leaves) - 1)))
            a.merge(b)
            leaves.append(a)
        assert leaves[0].digest() == reference.digest()


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_a_signed_zero_does_not_make_the_digest_depend_on_fold_order(kind):
    """``0.0 == -0.0``, so an extreme used to keep whichever zero came first:
    equal states, different digests."""
    make = SKETCHES[kind]
    up, down = fold(make(), (0.0, -0.0)), fold(make(), (-0.0, 0.0))
    assert up.digest() == down.digest()
    merged = []
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        into, other = make(), make()
        into.add(first)
        other.add(second)
        into.merge(other)
        merged.append(into.digest())
    assert merged == [up.digest(), up.digest()]
    stats = up if kind == "stats" else up.stats
    assert stats.min.hex() == stats.max.hex() == (0.0).hex()


# a value the fixed point cannot hold used to be *added* as INT64_MIN
@pytest.mark.parametrize("kind", sorted(SKETCHES))
@pytest.mark.parametrize("value", [1e300, -1e300, np.inf, -np.inf, np.nan, 2.0**43])
def test_sketch_refuses_what_its_fixed_point_cannot_hold(kind, value):
    sketch = SKETCHES[kind](0.1, 1e5, 1.05) if kind != "stats" else SKETCHES[kind]()
    sketch.add(5.0)
    before = sketch.state()
    with np.errstate(all="raise"):  # the refusal is a check, not a caught warning
        with pytest.raises(ValueError, match="cannot fold"):
            sketch.add(value)
    assert sketch.state() == before
    sketch.add(7.0)  # and it keeps folding
    assert sketch.count == 2


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_largest_holdable_value_folds_exactly(kind):
    top = 2.0**43 - 1.0
    one = fold(SKETCHES[kind](), (top, -top, 1.0))
    assert one.state() == fold(SKETCHES[kind](), (1.0, -top, top)).state()
    stats = one if kind == "stats" else one.stats
    assert (stats.scaled_sum, stats.min, stats.max) == (1 << 20, -top, top)
    if kind == "centroid":  # +top in the overflow cell, -top in the underflow
        assert one.scaled_sums[-1] == (2**43 - 1) << 20
        assert one.scaled_sums[0] == -((2**43 - 1) << 20)


def test_scalar_add_costs_its_arithmetic(profile_events, alloc_peak):
    """Cost as a count: through the one-element-array wrapper, 43 events and 5.8 KB."""
    sketch = CentroidSketch(*_LAG_SKETCH)
    sketch.add(17.25)  # anything lazy is allocated before the measurement
    assert profile_events(lambda: sketch.add(23.5)) <= 20
    assert alloc_peak(lambda: sketch.add(31.75)) < 1024


# ---------------------------------------------------------------------------
# quantile error bounds vs numpy percentiles
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["histogram", "centroid"])
@pytest.mark.parametrize(
    "distribution", ["lognormal", "uniform"]
)
def test_quantile_relative_error_within_bin_bound(kind, distribution):
    rng = np.random.default_rng(42)
    if distribution == "lognormal":
        values = rng.lognormal(mean=3.0, sigma=1.0, size=20_000)
    else:
        values = rng.uniform(1.0, 1000.0, size=20_000)
    growth = 1.08
    sketch = fold(SKETCHES[kind](min_value=1e-3, max_value=1e6, growth=growth), values)
    # documented bound: relative error at most sqrt(growth) - 1 for values
    # inside [min_value, max_value] (plus float slack)
    bound = np.sqrt(growth) - 1.0 + 1e-9
    for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        expected = float(np.percentile(values, q * 100.0))
        got = sketch.quantile(q)
        assert abs(got - expected) <= bound * expected, (kind, q, got, expected)


def test_stats_accumulator_exact_moments():
    values = _values(11)
    stats = fold(StatsAccumulator(), values)
    assert stats.count == values.size
    assert stats.min == float(values.min())
    assert stats.max == float(values.max())
    # fixed-point sum: exact to the 2**-20 rounding of each value
    assert abs(stats.sum - float(values.sum())) <= values.size * 2.0**-20


# ---------------------------------------------------------------------------
# rollup identity: offline fold == streaming == sharded serial
# ---------------------------------------------------------------------------
REGIONS = ["eu-central", None, "us-east"]


def fold_corpus_events(
    pipeline,
    sessions,
    *,
    reports=None,
    regions=None,
    latency_ms=None,
    qoe_mode="exact",
    qoe_interval_s=10.0,
    client_port_base=52000,
    aggregator=None,
):
    """Oracle: ``fold_corpus`` as it was, one full ``QoEInterval`` per window.

    Every sealed window becomes the event the streaming engine emits
    (``build_qoe_interval_event``: loss, frame rate, resolution and
    objective level included) and is folded through ``observe``.
    ``fold_corpus`` folds each window's rollup facts straight from the
    sealed window instead and must leave the same aggregator behind.
    """
    sessions = list(sessions)
    if reports is None:
        reports = pipeline.process_many(sessions, latency_ms, qoe_mode=qoe_mode)
    if aggregator is None:
        aggregator = FleetAggregator()
    streams = [session.packets for session in sessions]
    ends = [
        float(stream.columns().timestamps[-1])
        for stream in streams
        if len(stream.columns())
    ]
    if not ends:
        return aggregator
    clock_end = max(ends)
    for index, (session, stream, report) in enumerate(
        zip(sessions, streams, reports)
    ):
        columns = stream.columns()
        if not len(columns):
            continue
        origin = float(columns.timestamps[0])
        last_ts = float(columns.timestamps[-1])
        key = FlowKey(
            client_ip=session.client_ip,
            client_port=client_port_base + index,
            server_ip=session.server_ip,
            server_port=49004,
        )
        context = FlowContext(
            platform="GeForce NOW",
            rate_scale=session.rate_scale,
            region=regions[index] if regions is not None else None,
        )
        if qoe_mode == "approx":
            reducer = ApproxQoEIntervalReducer(qoe_interval_s)
        else:
            reducer = QoEIntervalReducer(qoe_interval_s)
        down_times = stream.timestamps(Direction.DOWNSTREAM)
        down_sizes = stream.payload_sizes(Direction.DOWNSTREAM)
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        if sequences is not None or rtp_times is not None:
            down_rows = stream.direction_indices(Direction.DOWNSTREAM)
        reducer.absorb_arrays(
            down_times,
            down_sizes,
            sequences[down_rows] if sequences is not None else None,
            rtp_times[down_rows] if rtp_times is not None else None,
            origin,
        )
        sealed = reducer.advance(clock_end, origin)
        sealed.extend(reducer.flush(origin, last_ts))
        contexts = {key: context}
        for interval in sealed:
            aggregator.observe(
                build_qoe_interval_event(
                    pipeline, key, context, interval, latency_ms=latency_ms
                ),
                contexts,
            )
        aggregator.observe(
            SessionReport(
                flow=key,
                time=clock_end,
                report=report,
                reason="eof",
                n_packets=len(columns),
                duration_s=last_ts - origin,
            ),
            contexts,
        )
    return aggregator


def _physical_scale(session):
    """``session`` relabelled as physical scale: same packets, no rescaling."""
    return dataclasses.replace(session, rate_scale=1.0)


@pytest.mark.parametrize("qoe_mode", ["exact", "approx"])
@pytest.mark.parametrize(
    "regions, latency_ms, physical",
    [(None, None, False), (REGIONS, 35.0, False), (REGIONS, None, True)],
    ids=["plain", "regions-latency", "rate-scale-1"],
)
def test_corpus_fold_equals_the_event_fold_oracle(
    fitted_pipeline, runtime_sessions, qoe_mode, regions, latency_ms, physical
):
    """Every counter and sketch bin equals the oracle's: a window folded
    twice, or skipped, moves ``n_windows`` and the digest."""
    sessions = list(runtime_sessions)
    if physical:
        sessions[1] = _physical_scale(sessions[1])  # one session unscaled
    reports = fitted_pipeline.process_many(sessions, latency_ms, qoe_mode=qoe_mode)
    kwargs = dict(
        reports=reports, regions=regions, latency_ms=latency_ms, qoe_mode=qoe_mode
    )
    lean = fold_corpus(fitted_pipeline, sessions, **kwargs)
    oracle = fold_corpus_events(fitted_pipeline, sessions, **kwargs)
    assert lean.state() == oracle.state()
    assert pickle.dumps(lean.snapshot()) == pickle.dumps(oracle.snapshot())
    assert lean.n_intervals == oracle.n_intervals > len(sessions)

    # folding into an aggregator that already holds rollups of the same keys
    assert (
        fold_corpus(fitted_pipeline, sessions, aggregator=lean, **kwargs).digest()
        == fold_corpus_events(
            fitted_pipeline, sessions, aggregator=oracle, **kwargs
        ).digest()
    )


_WINDOW_SECONDS = 10.0


@st.composite
def _sealed_windows(draw):
    """Sealed windows of one random flow: empty, one-row, RTP-less and RTP."""
    approx = draw(st.booleans())
    n = draw(st.integers(0, 40))
    times = np.sort(
        np.array(
            draw(st.lists(st.floats(0.0, 29.99), min_size=n, max_size=n)), dtype=float
        )
    )
    if n and draw(st.booleans()):
        # bursts: rows packed closer than the frame and burst gaps
        times = times[0] + np.cumsum(
            draw(st.lists(st.sampled_from([0.0, 0.001, 0.003, 0.02, 1.5]),
                          min_size=n, max_size=n))
        )
    sizes = np.array(
        draw(st.lists(st.integers(0, 1432), min_size=n, max_size=n)), dtype=float
    )
    rtp = draw(st.sampled_from(["none", "all", "some"]))
    if rtp == "none":
        sequences = rtp_times = None
    else:
        sequences = np.array(
            draw(st.lists(st.integers(0, 0xFFFF), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        rtp_times = np.array(
            draw(st.lists(st.integers(0, 2**20), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        if rtp == "some":
            missing = np.array(
                draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
            )
            sequences[missing] = RTP_NONE
            rtp_times[missing] = RTP_NONE
    reducer = (ApproxQoEIntervalReducer if approx else QoEIntervalReducer)(
        _WINDOW_SECONDS
    )
    origin = float(times[0]) if n else 0.0
    reducer.absorb_arrays(times, sizes, sequences, rtp_times, origin)
    last_ts = float(times[-1]) if n else origin
    clock = last_ts + draw(st.sampled_from([0.0, 4.0, 25.0]))
    sealed = reducer.advance(clock, origin)
    sealed.extend(reducer.flush(origin, last_ts))
    return sealed


@settings(max_examples=300, deadline=None)
@given(
    sealed=_sealed_windows(),
    rate_scale=st.sampled_from([1.0, 0.05, 0.37, 2.0]),
    latency_ms=st.sampled_from([None, 0.0, 35.0]),
)
def test_sealed_window_facts_equal_the_event_facts(
    fitted_pipeline, sealed, rate_scale, latency_ms
):
    """The facts ``fold_corpus`` folds are the facts ``observe`` takes from
    the engine's event for the same window, and an exact window's zero frame
    rate is exactly ``has_frame_evidence`` failing."""
    key = FlowKey("10.0.0.2", 52000, "10.0.0.1", 49004)
    context = FlowContext(platform="GeForce NOW", rate_scale=rate_scale)
    for interval in sealed:
        event = build_qoe_interval_event(
            fitted_pipeline, key, context, interval, latency_ms=latency_ms
        )
        assert sealed_window_facts(interval, rate_scale) == event_window_facts(event)
        if not event.approximate:
            # no RTP timestamp and at most one downstream row: no frame rate
            no_frames = interval.rtp_timestamps.size == 0 and interval.down_times.size <= 1
            assert (event.metrics.frame_rate == 0.0) == no_frames
            assert has_frame_evidence(
                interval.rtp_timestamps.size, interval.down_times.size
            ) == (not no_frames)


@pytest.mark.parametrize("qoe_mode", ["exact", "approx"])
def test_rollups_bit_identical_across_fold_paths(
    fitted_pipeline, runtime_sessions, qoe_mode
):
    offline = fold_corpus(
        fitted_pipeline, runtime_sessions, regions=REGIONS, qoe_mode=qoe_mode
    )
    reference = offline.digest()

    session_mode = "approx" if qoe_mode == "approx" else "bounded"
    engine = StreamingEngine(
        fitted_pipeline, session_mode=session_mode, analytics=True
    )
    feed = SessionFeed(runtime_sessions, batch_seconds=4.0, regions=REGIONS)
    for _ in engine.run(feed):
        pass
    assert engine.analytics.digest() == reference

    sharded = ShardedEngine(
        fitted_pipeline,
        n_workers=2,
        backend="serial",
        session_mode=session_mode,
        analytics=True,
    )
    feed = SessionFeed(runtime_sessions, batch_seconds=4.0, regions=REGIONS)
    for _ in sharded.run_feed(feed):
        pass
    assert sharded.analytics.digest() == reference

    # every region key landed where its tag said (one title per session here)
    regions_seen = {region for region, _title, _mode in offline.keys()}
    assert "eu-central" in regions_seen and "us-east" in regions_seen
    assert DEFAULT_REGION in regions_seen  # the untagged session
    assert {mode for _r, _t, mode in offline.keys()} == {qoe_mode}


#: read at the commit before the window chain was re-spelled (PR 20) and
#: committed: one bit of one window's metrics, of one report or of one sketch
#: cell moves a hash.  The fold paths above are pinned to each other; this
#: pins them to what they produced before.  The report and rollup hashes were
#: read again when the default forests were resized (DESIGN.md §11 "Forest
#: sizes"): a new model moves stage timelines and patterns, never a window.
GOLDEN = {
    "exact": {
        "digest": "ce3fa38bf7abb66084a8a161d877062935ac495bfdc387a521408ac36e7d85ea",
        "windows": "eded03d1439593ccaf2ab8a63c78171f8f79ecd34f7290d6ac58cdd631c5029f",
        "reports": "041563bd5ce64de39f6e87a6cb8c55df26d437c7567239939b6f8dbd41dcdbac",
    },
    "approx": {
        "digest": "2f945d1da8dc30ecd5ba5b46e7624cd39c3d4c12d9342b0a04a028107150285d",
        "windows": "1adb1c0a3830fe113f1bff36b384c51327a09aa7cbd4d878822a0de2676e39a2",
        "reports": "f3b5cc8b994b6314f4a766e94c7642d6e1e4bacdbcd2ebba9fcdf4cb3d16bf77",
    },
}


class _WindowRecorder(FleetAggregator):
    """A fleet aggregator that also hashes the ``repr`` of every window event."""

    def __init__(self):
        super().__init__()
        self.windows = hashlib.sha256()

    def observe(self, event, contexts=None):
        if not hasattr(event, "report"):
            self.windows.update(repr(event).encode())
        super().observe(event, contexts)


@pytest.mark.parametrize("qoe_mode", ["exact", "approx"])
def test_window_chain_golden(fitted_pipeline, runtime_sessions, qoe_mode):
    """Window events come from ``build_qoe_interval_event`` (through the
    oracle); the rollup from ``fold_corpus`` itself, which builds no events."""
    reports = fitted_pipeline.process_many(runtime_sessions, qoe_mode=qoe_mode)
    kwargs = dict(reports=reports, regions=REGIONS, qoe_mode=qoe_mode)
    events = fold_corpus_events(
        fitted_pipeline, runtime_sessions, aggregator=_WindowRecorder(), **kwargs
    )
    fleet = fold_corpus(fitted_pipeline, runtime_sessions, **kwargs)
    assert events.digest() == fleet.digest()
    got = {
        "digest": fleet.digest(),
        "windows": events.windows.hexdigest(),
        "reports": hashlib.sha256(repr(reports).encode()).hexdigest(),
    }
    assert got == GOLDEN[qoe_mode]


def test_rollups_are_independent_of_batch_granularity(
    fitted_pipeline, runtime_sessions
):
    digests = set()
    for batch_seconds in (2.0, 4.0, 16.0):
        engine = StreamingEngine(
            fitted_pipeline, session_mode="approx", analytics=True
        )
        feed = SessionFeed(runtime_sessions, batch_seconds=batch_seconds)
        for _ in engine.run(feed):
            pass
        digests.add(engine.analytics.digest())
    assert len(digests) == 1


def test_aggregator_retains_no_per_session_state(
    fitted_pipeline, runtime_sessions
):
    engine = StreamingEngine(fitted_pipeline, session_mode="approx", analytics=True)
    feed = SessionFeed(runtime_sessions, batch_seconds=8.0)
    for _ in engine.run(feed):
        pass
    fleet = engine.analytics
    # all pending (per-flow) state dropped at close
    assert fleet.n_live_flows == 0
    assert fleet.n_reports == len(runtime_sessions)

    # per-key state is O(1) in session count: folding the corpus twice more
    # (same keys, 3x the sessions) must not grow the retained bytes
    before = fleet.nbytes()
    fold_corpus(fitted_pipeline, runtime_sessions, qoe_mode="approx",
                aggregator=fleet)
    fold_corpus(fitted_pipeline, runtime_sessions, qoe_mode="approx",
                aggregator=fleet)
    assert fleet.n_reports == 3 * len(runtime_sessions)
    assert fleet.nbytes() == before


def test_aggregator_snapshot_round_trip_mid_run(fitted_pipeline, runtime_sessions):
    engine = StreamingEngine(fitted_pipeline, session_mode="approx", analytics=True)
    batches = list(SessionFeed(runtime_sessions, batch_seconds=4.0))
    cut = len(batches) // 2
    for batch in batches[:cut]:
        engine.ingest(batch)
    # mid-run: live flows hold pending state; it must survive the pickle
    # round-trip exactly (this is what crosses the supervisor's pipe)
    fleet = engine.analytics
    assert fleet.n_live_flows > 0
    clone = FleetAggregator.from_snapshot(
        pickle.loads(pickle.dumps(fleet.snapshot()))
    )
    assert clone.digest() == fleet.digest()


# ---------------------------------------------------------------------------
# candidate-gap ledger (approx tier, per sealed window)
# ---------------------------------------------------------------------------
def _absorb(reducer, timestamps, sequences, origin=0.0):
    timestamps = np.asarray(timestamps, dtype=float)
    sizes = np.full(timestamps.size, 1200.0)
    sequences = np.asarray(sequences, dtype=np.int64)
    rtp_times = np.arange(timestamps.size, dtype=np.int64) * 1500
    reducer.absorb_arrays(timestamps, sizes, sequences, rtp_times, origin)


def test_candidate_gap_ledger_localises_to_revealing_window():
    reducer = ApproxQoEIntervalReducer(10.0)
    # window 0: seq 0..9 contiguous; window 1: 10..12 then a 5-wide gap
    # revealed by seq 18 at t=15; window 2: contiguous again
    times = list(np.linspace(0.0, 9.0, 10)) + [11.0, 12.0, 13.0, 15.0] + [21.0, 22.0]
    seqs = list(range(10)) + [10, 11, 12, 18] + [19, 20]
    _absorb(reducer, times, seqs)
    sealed = reducer.advance(30.0, 0.0)
    by_index = {interval.index: interval for interval in sealed}
    assert by_index[0].candidate_gap_packets == 0
    assert by_index[1].candidate_gap_packets == 5  # seqs 13..17
    assert by_index[2].candidate_gap_packets == 0


def test_candidate_gap_ledger_is_chunking_invariant():
    rng = np.random.default_rng(8)
    times = np.sort(rng.uniform(0.0, 50.0, 400))
    seqs = np.arange(400, dtype=np.int64)
    # knock out a few runs to create gaps revealed mid-stream
    keep = np.ones(400, dtype=bool)
    keep[50:55] = False
    keep[200:203] = False
    keep[333] = False
    times, seqs = times[keep], seqs[keep]

    whole = ApproxQoEIntervalReducer(10.0)
    _absorb(whole, times, seqs)
    chunked = ApproxQoEIntervalReducer(10.0)
    for span in np.array_split(np.arange(times.size), 7):
        _absorb(chunked, times[span], seqs[span])
    sealed_whole = whole.advance(60.0, 0.0)
    sealed_chunked = chunked.advance(60.0, 0.0)
    ledger_whole = [i.candidate_gap_packets for i in sealed_whole]
    ledger_chunked = [i.candidate_gap_packets for i in sealed_chunked]
    assert ledger_whole == ledger_chunked
    assert sum(ledger_whole) == 5 + 3 + 1


def test_candidate_gap_ledger_survives_snapshot():
    reducer = ApproxQoEIntervalReducer(10.0)
    _absorb(reducer, [0.0, 1.0, 2.0], [0, 1, 5])
    restored = ApproxQoEIntervalReducer(10.0)
    restored.restore(pickle.loads(pickle.dumps(reducer.snapshot())))
    for target in (reducer, restored):
        _absorb(target, [11.0, 12.0], [6, 10], origin=0.0)
        sealed = target.advance(30.0, 0.0)
        assert [i.candidate_gap_packets for i in sealed] == [3, 3, 0]


def test_exact_tier_reports_zero_candidate_gaps(fitted_pipeline, runtime_sessions):
    fleet = fold_corpus(fitted_pipeline, runtime_sessions[:1], qoe_mode="exact")
    (key,) = fleet.keys()
    assert fleet.rollup(key).candidate_gap_packets == 0


# ---------------------------------------------------------------------------
# region threading
# ---------------------------------------------------------------------------
def test_session_feed_rejects_region_length_mismatch(runtime_sessions):
    with pytest.raises(ValueError, match="regions"):
        SessionFeed(runtime_sessions, regions=["eu-central"])


def test_isp_records_carry_regions_and_stay_deterministic():
    records = ISPDeploymentSimulator(random_state=5).generate_records(300)
    mix = {region for region, _weight in _REGION_MIX}
    assert {record.region for record in records} <= mix
    assert len({record.region for record in records}) > 1
    # same seed => identical records, region included
    again = ISPDeploymentSimulator(random_state=5).generate_records(300)
    assert [r.region for r in again] == [r.region for r in records]
    assert [r.avg_downstream_mbps for r in again] == [
        r.avg_downstream_mbps for r in records
    ]


# ---------------------------------------------------------------------------
# fault matrix: exactly-once rollups through SIGKILLed workers
# ---------------------------------------------------------------------------
@pytest.mark.faults
@pytest.mark.parametrize("seed", [101, 303])
def test_rollups_exactly_once_through_worker_kills(fitted_pipeline, seed):
    from repro.simulation.session import SessionConfig, SessionGenerator

    generator = SessionGenerator(random_state=21)
    titles = ("Fortnite", "Hearthstone", "Cyberpunk 2077")
    sessions = [
        generator.generate(
            titles[index % len(titles)],
            SessionConfig(gameplay_duration_s=30.0 + 2.0 * (index % 5),
                          rate_scale=0.02),
        )
        for index in range(24)
    ]
    regions = [REGIONS[index % len(REGIONS)] for index in range(24)]

    def feed():
        return SessionFeed(sessions, batch_seconds=8.0, regions=regions)

    n_ticks = sum(1 for _ in feed())
    reference = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="serial",
        session_mode="approx", analytics=True,
    )
    for _ in reference.run_feed(feed()):
        pass

    plan = FaultPlan.random(
        seed, n_ticks=n_ticks, n_shards=2, n_kills=2, n_duplicates=1, n_delays=1
    )
    faulted = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="fork",
        session_mode="approx", analytics=True,
        snapshot_every_ticks=3, recv_timeout_s=60.0,
    )
    for _ in faulted.run_feed(feed(), fault_plan=plan):
        pass
    assert faulted.last_feed_stats["n_restarts"] == sum(
        isinstance(action, KillWorker) for action in plan.actions
    )
    assert faulted.analytics.digest() == reference.analytics.digest()
