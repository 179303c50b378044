"""The tick fold (DESIGN.md §6 / §7): one fold per tick, not one per (flow, tick).

The live path folds the *tick* — one demux, one gather, per-flow facts
pre-reduced with ``reduceat``, gates checked as scalars.  Everything it
replaced is kept here as the oracle:

* the address-group loop ``FlowDemux.split_indices`` ran before
  (:class:`LoopDemux`), pair for pair equal to the one-``unique`` demux on
  random batches, and the flow-sorted tick equal to the concatenated
  per-flow ``take``; the ``frompyfunc(id)`` gather, equal to the address
  column's pointer buffer;
* one ``bincount`` per straddling flow (:class:`PerFlowBincountCascade`),
  counter for counter equal to the tick-wide bucketing of every straddling
  span at once, and the refold that must not count a queued span twice;
* an engine that folds every flow's share of a tick on its own as a
  single-batch tick (``test_reducers.absorb``; :class:`PerFlowEngine`, the
  engine loop before): equal events, array-equal snapshots after every tick
  and equal close reports, across batch boundaries, in-batch shuffles,
  session tiers and a batch that surfaces rows older than a flow's origin;
* the array bodies of ``OnlineVolumetricTracker.step`` and the prefix
  transition rows, against their python-float replacements, and the
  per-column EMA (:func:`smooth_columns`) that
  ``VolumetricAttributeGenerator.smooth_many`` and the tracker rows must
  equal.

Producer flow ids (the pcap decoder's, ``SessionFeed``'s) are checked the
same way: every batch they emit, and every ``take`` / ``slice_view`` /
``concat`` of one, splits exactly like its addresses say, and a feed with
ids leaves state, snapshots, checkpoints and the wire byte-identical to the
same feed without them.

Plus the cost model as a count (work per tick must not scale with flows that
have nothing due), and the two defects fixed on the way: retained rows pin
only what ``state_nbytes()`` accounts, and a non-finite clock completes no
slot.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.reducers import SessionReducerCascade, SlotStageReducer, TickFacts
from repro.core.transition import PrefixTransitionTracker, prefix_transition_features
from repro.core.volumetric import (
    OnlineVolumetricTracker,
    VolumetricAttributeGenerator,
    exponential_moving_average,
)
from repro.net.flow import FlowDemux, FlowKey, FlowTick, _object_ids, canonical_flow_key
from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    UPSTREAM_CODE,
    Direction,
    PacketColumns,
)
from repro.net.pcap import iter_pcap_column_batches, write_pcap
from repro.runtime import (
    SessionFeed,
    SessionReport,
    SessionStarted,
    ShardedEngine,
    ShardSupervisor,
    ShmColumnRing,
    StageUpdate,
    StreamingEngine,
)
from repro.simulation.catalog import PlayerStage
from repro.simulation.session import SessionConfig, SessionGenerator

from packet_rows import PacketRow, columns_of
from test_reducers import absorb, bincount_slots
from test_runtime import assert_report_identical
from test_shm_ring import assert_columns_identical

_ID_OF = np.frompyfunc(id, 1, 1)


# ---------------------------------------------------------------------------
# demux: the one-unique split vs the address-group loop it replaced
# ---------------------------------------------------------------------------
class LoopDemux(FlowDemux):
    """Oracle: ``split_indices`` as it ran before the tick fold — a stable
    argsort of the address ids, then a python loop over address groups that
    masks each group by direction code and merges the parts per key."""

    def split_indices(self, columns):
        n = len(columns)
        if n == 0:
            return []
        directions = columns.directions
        groups: Dict[FlowKey, List[np.ndarray]] = {}
        addresses = columns.addresses
        if addresses is None:
            for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
                rows = np.flatnonzero(directions == code)
                if rows.size:
                    groups.setdefault(canonical_flow_key(DEFAULT_ADDRESS, code), []).append(rows)
        else:
            ids = _ID_OF(addresses).astype(np.int64)
            unique_ids, first_rows = np.unique(ids, return_index=True)
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            starts = np.searchsorted(sorted_ids, unique_ids, side="left")
            ends = np.searchsorted(sorted_ids, unique_ids, side="right")
            for group in np.argsort(first_rows, kind="stable"):
                rows = order[starts[group] : ends[group]]
                address = addresses[int(first_rows[group])]
                codes = directions[rows]
                for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
                    selected = rows[codes == code]
                    if selected.size:
                        groups.setdefault(canonical_flow_key(address, code), []).append(
                            selected
                        )
        out = []
        for key, parts in groups.items():
            rows = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            out.append((key, rows))
        return out


def _flow_addresses(flow: int) -> Tuple[tuple, tuple]:
    upstream = (f"10.0.{flow >> 8}.{flow & 255}", "198.51.100.7", 40000 + flow, 443, "udp")
    return upstream, (upstream[1], upstream[0], upstream[3], upstream[2], upstream[4])


def _demux_batch(flows, ups, crossed, addressing) -> PacketColumns:
    """Rows of ``flows[i]`` in direction ``ups[i]``; a ``crossed`` row keeps
    its direction code but carries the *other* direction's address tuple, so
    one tuple carries both codes (and the row canonicalises to another flow).
    """
    n = len(flows)
    rng = np.random.default_rng(n)
    addresses = None
    if addressing != "none":
        interned = {}
        addresses = np.empty(n, dtype=object)
        for row, (flow, up, cross) in enumerate(zip(flows, ups, crossed)):
            upstream, downstream = _flow_addresses(flow)
            address = upstream if up != cross else downstream
            # "fresh": value-equal tuples, a new object per row
            addresses[row] = (
                interned.setdefault(address, address)
                if addressing == "interned"
                else tuple(list(address))
            )
    return PacketColumns(
        timestamps=rng.permutation(n).astype(float),
        payload_sizes=rng.integers(40, 1400, n).astype(float),
        directions=np.where(ups, UPSTREAM_CODE, DOWNSTREAM_CODE).astype(np.int8),
        rtp_sequence=np.arange(n, dtype=np.int64),
        addresses=addresses,
    )


def _check_demux(columns: PacketColumns) -> None:
    got = FlowDemux().split_indices(columns)
    expected = LoopDemux().split_indices(columns)
    assert [key for key, _ in got] == [key for key, _ in expected]
    for (_, got_rows), (_, expected_rows) in zip(got, expected):
        assert np.array_equal(got_rows, expected_rows)
    tick = FlowTick.gather(columns, got)
    assert tick.keys == [key for key, _ in expected]
    assert tick.bounds.tolist() == np.cumsum(
        [0] + [rows.size for _, rows in expected]
    ).tolist()
    assert_columns_identical(
        tick.columns,
        PacketColumns.concat([columns.take(rows) for _, rows in expected]),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_indices_equals_address_group_loop(data):
    n = data.draw(st.integers(0, 400), label="rows")
    n_flows = data.draw(st.integers(1, 40), label="flows")
    addressing = data.draw(st.sampled_from(["interned", "fresh", "none"]))
    flows = data.draw(st.lists(st.integers(0, n_flows - 1), min_size=n, max_size=n))
    ups = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    crossed = data.draw(
        st.one_of(
            st.just([False] * n), st.lists(st.booleans(), min_size=n, max_size=n)
        )
    )
    _check_demux(_demux_batch(flows, ups, crossed, addressing))


@pytest.mark.parametrize(
    "flows, ups, crossed, addressing",
    [
        ([], [], [], "interned"),  # empty batch
        ([0], [True], [False], "none"),  # one upstream row on the default address
        ([0, 0], [True, False], [False, False], "none"),  # default address, up first
        # the upstream row comes first, yet the downstream-coded key of the
        # same tuple registers first (group order, then code order)
        ([3, 3], [True, False], [False, True], "interned"),
        # value-equal tuples that are distinct objects merge into one flow
        ([1, 1, 1], [False, False, True], [False, False, False], "fresh"),
        # flow 2's first row arrives after flow 5's: first-appearance order
        ([5, 2, 5, 2], [False, True, True, False], [False] * 4, "interned"),
    ],
)
def test_split_indices_pinned_cases(flows, ups, crossed, addressing):
    _check_demux(_demux_batch(flows, ups, crossed, addressing))


# ---------------------------------------------------------------------------
# producer flow ids: every batch splits exactly like its ids stripped
# ---------------------------------------------------------------------------
def _check_producer_ids(batch: PacketColumns) -> None:
    """The ids path and the derived path both equal the address oracle."""
    assert batch.flow_ids is not None
    assert len(set(batch.flow_keys)) == len(batch.flow_keys)  # canonical table
    stripped = batch.without_flow_ids()
    assert stripped.flow_ids is None and batch.flow_ids is not None  # a copy
    _check_demux(batch)
    _check_demux(stripped)
    # the ids stop at the demux: no tick and no retained copy carries them
    assert FlowTick.gather(batch, FlowDemux().split_indices(batch)).columns.flow_ids is None
    assert batch.owned().flow_ids is None


def _reshaped(batches, data) -> List[PacketColumns]:
    """``take``, ``slice_view`` and ``concat`` of the batches, as drawn."""
    out = []
    for batch in batches:
        n = len(batch)
        rows = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n if n else 0))
        out.append(batch.take(np.array(rows, dtype=np.intp)))
        start = data.draw(st.integers(0, n))
        out.append(batch.slice_view(start, data.draw(st.integers(start, n))))
    for _ in range(3):
        picked = data.draw(st.lists(st.sampled_from(batches), min_size=1, max_size=4))
        out.append(PacketColumns.concat(picked))
    return [batch for batch in out if len(batch)]


_CLIENTS = ("10.0.0.1", "10.0.0.2")
_SERVERS = ("198.51.100.7", "203.0.113.4")


@st.composite
def _capture_packets(draw):
    """Records of a few conversations in both directions, rows of the
    default address, and traffic between two servers (no client at all)."""
    n = draw(st.integers(1, 120))
    gaps = draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))
    packets = []
    for when in np.cumsum(gaps).tolist():
        kind = draw(st.sampled_from(["up", "down", "down", "default", "servers"]))
        client, server = draw(st.sampled_from(_CLIENTS)), draw(st.sampled_from(_SERVERS))
        port = 50000 + draw(st.integers(0, 2))
        size = draw(st.integers(20, 400))
        if kind == "default":
            packets.append(PacketRow(when, Direction.DOWNSTREAM, size))
        elif kind == "servers":
            packets.append(PacketRow(when, Direction.DOWNSTREAM, size, *_SERVERS, 49004, port))
        elif kind == "up":
            packets.append(PacketRow(when, Direction.UPSTREAM, size, client, server, port, 49004))
        else:
            packets.append(PacketRow(when, Direction.DOWNSTREAM, size, server, client, 49004, port))
    return columns_of(packets)


@settings(max_examples=60, deadline=None)
@given(packets=_capture_packets(), data=st.data())
def test_pcap_flow_ids_split_like_their_addresses(packets, data):
    client_ip = data.draw(st.sampled_from([None, _CLIENTS[0]]), label="client_ip")
    by_seconds = data.draw(st.one_of(st.none(), st.sampled_from([0.05, 0.5, 3.0])))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "capture.pcap"
        write_pcap(path, packets)
        batches = list(
            iter_pcap_column_batches(
                path,
                batch_packets=data.draw(st.integers(1, 50), label="batch_packets"),
                batch_seconds=by_seconds,
                client_ip=client_ip,
            )
        )
    for batch in batches + _reshaped(batches, data):
        _check_producer_ids(batch)


@settings(max_examples=15, deadline=None)
@given(
    batch_seconds=st.sampled_from([0.25, 1.0, 4.0]),
    offsets=st.lists(st.floats(0.0, 6.0), min_size=3, max_size=3),
    shuffle=st.booleans(),
    data=st.data(),
)
def test_session_feed_flow_ids_split_like_their_addresses(
    tick_sessions, batch_seconds, offsets, shuffle, data
):
    feed = SessionFeed(
        tick_sessions, batch_seconds=batch_seconds, start_offsets=offsets,
        shuffle_within_batch=shuffle, random_state=5,
    )
    batches = list(feed)
    assert all(batch.flow_keys == tuple(feed.flow_contexts) for batch in batches)
    for batch in batches + _reshaped(batches, data):
        _check_producer_ids(batch)


def test_concat_remaps_ids_only_across_different_key_tables(tick_sessions, tmp_path):
    feed = SessionFeed(tick_sessions, batch_seconds=2.0)
    first, second = list(feed)[:2]
    same = PacketColumns.concat([first, second])
    assert same.flow_keys is first.flow_keys  # one table: ids concatenated as they are
    packets = [
        PacketRow(0.01 * row, Direction.UPSTREAM, 100, "10.0.0.9", "198.51.100.7", 50000, 443)
        for row in range(5)
    ]
    write_pcap(tmp_path / "capture.pcap", columns_of(packets))
    (other,) = iter_pcap_column_batches(tmp_path / "capture.pcap", client_ip="10.0.0.9")
    mixed = PacketColumns.concat([first, other, second])
    assert mixed.flow_keys == first.flow_keys + other.flow_keys
    _check_producer_ids(mixed)
    # a part without ids leaves the whole batch to the derived path
    assert PacketColumns.concat([first, other.without_flow_ids()]).flow_ids is None


def test_flow_ids_never_reach_state_or_the_wire(fitted_pipeline, tick_sessions, monkeypatch):
    """One feed twice, with its producer ids and with them stripped: every
    byte of engine state, snapshot, worker checkpoint and tick payload agrees."""
    feed = SessionFeed(
        tick_sessions, batch_seconds=1.0, start_offsets=[0.0, 3.7, 8.25],
        shuffle_within_batch=True, random_state=2,
    )
    with_ids = list(feed)
    assert all(batch.flow_ids is not None for batch in with_ids)
    recorded: List[list] = []

    def record(name, value):
        recorded[-1].append((name, value))

    send, absorb = ShardSupervisor._send_tick_payload, ShardSupervisor._absorb_reply

    def send_recorded(self, shard, payload):
        record("payload", pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return send(self, shard, payload)

    def absorb_recorded(self, shard_record, reply):
        record("checkpoint", reply[3])
        return absorb(self, shard_record, reply)

    monkeypatch.setattr(ShardSupervisor, "_send_tick_payload", send_recorded)
    monkeypatch.setattr(ShardSupervisor, "_absorb_reply", absorb_recorded)
    for batches in (with_ids, [batch.without_flow_ids() for batch in with_ids]):
        recorded.append([])
        engine = StreamingEngine(fitted_pipeline, idle_timeout_s=6.0, analytics=True)
        for batch in batches:
            record("events", pickle.dumps(engine.ingest(batch)))
            record("state", engine.state_nbytes())
            record("snapshot", pickle.dumps(engine.snapshot()))
        record("close", pickle.dumps(engine.close_all()))
        sharded = ShardedEngine(
            fitted_pipeline, n_workers=2, backend="fork", snapshot_every_ticks=3,
            ring_slots=2,  # below the checkpoint cadence: some ticks go inline
        )
        record("sharded", pickle.dumps(list(sharded.run_feed(batches))))
        assert sharded.last_feed_stats["shm_fallback_ticks"] > 0
    with_ids_run, stripped_run = recorded
    assert [name for name, _ in with_ids_run] == [name for name, _ in stripped_run]
    for (name, got), (_, expected) in zip(with_ids_run, stripped_run):
        assert got == expected, name
    assert sum(name == "checkpoint" and blob is not None for name, blob in with_ids_run)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed", "single", "empty"])
def test_object_ids_are_the_address_column_pointers(layout):
    interned = _flow_addresses(3)[0]
    base = np.empty(9, dtype=object)
    for row in range(9):
        base[row] = interned if row % 3 else _flow_addresses(row)[1]
    column = {
        "contiguous": base,
        "strided": base[::2],
        "reversed": base[::-1],
        "single": base[4:5],
        "empty": base[:0],
    }[layout]
    ids = _object_ids(column)
    assert ids.dtype == np.intp
    assert ids.tolist() == [id(x) for x in column]
    assert ids.tolist() == _ID_OF(column).astype(np.int64).tolist()


def test_any_non_downstream_code_is_upstream():
    """A direction code other than the two named ones folds as upstream
    everywhere else (``~(directions == DOWNSTREAM_CODE)``); the demux agrees,
    so every row of a batch lands in exactly one flow."""
    columns = PacketColumns(
        timestamps=np.arange(4.0),
        payload_sizes=np.full(4, 100.0),
        directions=np.array([0, 1, 2, -1], dtype=np.int8),
    )
    pairs = FlowDemux().split_indices(columns)
    assert sorted(np.concatenate([rows for _, rows in pairs]).tolist()) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# tick fold vs one absorb per (flow, tick)
# ---------------------------------------------------------------------------
class PerFlowEngine(StreamingEngine):
    """Oracle: the engine loop before the tick fold — every flow's share of
    a tick is materialised and folded on its own as a single-batch tick
    (``test_reducers.absorb``)."""

    def _fold_tick(self, tick, events):
        bounds = tick.bounds.tolist()
        for key, start, stop in zip(tick.keys, bounds, bounds[1:]):
            sub = tick.columns.take(np.arange(start, stop))
            if key in self._shed:
                self.shed_packets += len(sub)
                continue
            state = self._states.get(key)
            if state is None:
                state = self._open_session(key)
                events.append(SessionStarted(flow=key, time=float(sub.timestamps.min())))
            state.window_rows_pending += absorb(state.cascade, sub)


def deep_equal(a, b) -> bool:
    """Structural equality with arrays compared element for element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(deep_equal(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a) and not isinstance(a, (type, enum.Enum)):
        return all(
            deep_equal(getattr(a, field.name), getattr(b, field.name))
            for field in dataclasses.fields(a)
        )
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@pytest.fixture(scope="module")
def tick_sessions():
    """Three short concurrent sessions, staggered by their feed offsets."""
    generator = SessionGenerator(random_state=41)
    return [
        generator.generate(
            title, SessionConfig(gameplay_duration_s=duration, rate_scale=0.02)
        )
        for title, duration in (
            ("Fortnite", 14.0),
            ("Hearthstone", 9.0),
            ("Rocket League", 11.0),
        )
    ]


@pytest.fixture(scope="module")
def tick_rows(tick_sessions):
    """Every row of the three sessions as one time-sorted batch."""
    feed = SessionFeed(
        tick_sessions, batch_seconds=1e9, start_offsets=[0.0, 3.7, 8.25]
    )
    (batch,) = list(feed)
    return batch.sorted_by_time(), dict(feed.flow_contexts)


def _feed_ticks(rows, cuts, shuffle_seed, late):
    """Cut the sorted rows at ``cuts`` (fractions of the row count), shuffle
    inside each tick, and deliver one flow's first seconds ``late``."""
    n = len(rows)
    edges = sorted({0, n, *(int(fraction * n) for fraction in cuts)})
    tick_of_row = np.searchsorted(edges, np.arange(n), side="right") - 1
    if late is not None:
        flow, held_seconds, delay_ticks = late
        pairs = FlowDemux().split_indices(rows)
        of_flow = np.zeros(n, dtype=bool)
        of_flow[pairs[flow % len(pairs)][1]] = True
        origin = rows.timestamps[of_flow].min()
        held = of_flow & (rows.timestamps < origin + held_seconds)
        # the flow must still open (with a later row) before the held rows land
        if held.any() and not held[of_flow].all():
            first_kept_tick = tick_of_row[of_flow & ~held].min()
            tick_of_row = tick_of_row.copy()
            tick_of_row[held] = min(
                first_kept_tick + delay_ticks, len(edges) - 2
            )
    rng = np.random.default_rng(shuffle_seed)
    ticks = []
    for tick in range(len(edges) - 1):
        index = np.flatnonzero(tick_of_row == tick)
        if shuffle_seed:
            index = rng.permutation(index)
        ticks.append(rows.take(index))
    return ticks


def _run_side_by_side(pipeline, contexts, ticks, mode):
    engines = [
        cls(pipeline, session_mode=mode, idle_timeout_s=6.0, qoe_interval_s=4.0)
        for cls in (StreamingEngine, PerFlowEngine)
    ]
    for engine in engines:
        for key, context in contexts.items():
            engine.set_flow_context(key, context)
    for tick in ticks:
        got, expected = (engine.ingest(tick) for engine in engines)
        assert deep_equal(got, expected)
        assert deep_equal(*(engine.snapshot() for engine in engines))
        assert engines[0].state_nbytes() == engines[1].state_nbytes()
    got, expected = (engine.close_all() for engine in engines)
    assert deep_equal(got, expected)  # the close reports included
    return got


@settings(max_examples=30, deadline=None)
@given(
    cuts=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40),
    shuffle_seed=st.integers(0, 3),
    mode=st.sampled_from(["bounded", "full", "approx"]),
    late=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 2), st.sampled_from([0.3, 1.0, 2.5]), st.integers(1, 4)
        ),
    ),
)
@example(cuts=[], shuffle_seed=0, mode="bounded", late=None)  # one tick holds it all
@example(cuts=[0.5], shuffle_seed=1, mode="full", late=(0, 2.5, 1))  # refold
@example(cuts=[0.1 * k for k in range(1, 10)], shuffle_seed=2, mode="approx", late=(1, 0.3, 2))
def test_tick_fold_equals_per_flow_absorb(
    fitted_pipeline, tick_rows, cuts, shuffle_seed, mode, late
):
    rows, contexts = tick_rows
    ticks = _feed_ticks(rows, cuts, shuffle_seed, late)
    events = _run_side_by_side(fitted_pipeline, contexts, ticks, mode)
    assert sum(isinstance(event, SessionReport) for event in events) <= 3


def test_late_rows_shift_the_origin_in_the_side_by_side_feed(fitted_pipeline, tick_rows):
    """The ``late`` arm of the property really delivers pre-origin rows."""
    rows, contexts = tick_rows
    ticks = _feed_ticks(rows, [0.2, 0.4, 0.6, 0.8], 0, (0, 1.0, 1))
    events = _run_side_by_side(fitted_pipeline, contexts, ticks, "full")
    assert any(
        event.origin_shifts for event in events if isinstance(event, SessionReport)
    )


def tick_of(pairs) -> FlowTick:
    """A tick built by hand from ``(key, rows)`` pairs, back to back; a key
    may come more than once."""
    bounds = np.zeros(len(pairs) + 1, dtype=np.intp)
    np.cumsum([len(rows) for _key, rows in pairs], out=bounds[1:])
    columns = PacketColumns.concat([rows for _key, rows in pairs]).without_flow_ids()
    return FlowTick([key for key, _rows in pairs], columns, bounds)


def test_ingest_demuxed_pairs_fold_like_the_batch(fitted_pipeline, tick_rows):
    """A hand-built tick of materialised pairs — a flow given twice included —
    reaches the same fold as the demuxed batch."""
    rows, contexts = tick_rows
    ticks = _feed_ticks(rows, [0.25, 0.5, 0.75], 0, None)
    whole, paired = StreamingEngine(fitted_pipeline), StreamingEngine(fitted_pipeline)
    demux = FlowDemux()
    for tick in ticks:
        pairs = demux.split(tick)
        # cut the first flow's share in two: its spans fold in order
        key, sub = pairs[0]
        half = len(sub) // 2
        pairs[0:1] = [(key, sub.slice_view(0, half)), (key, sub.slice_view(half, len(sub)))]
        expected = whole.ingest(tick)
        got = paired.ingest_tick(tick_of(pairs), float(tick.timestamps.max()))
        assert deep_equal(got, expected)
    assert deep_equal(paired.close_all(), whole.close_all())


# ---------------------------------------------------------------------------
# straddling spans: bucketed once per tick vs one bincount per flow
# ---------------------------------------------------------------------------
class PerFlowBincountCascade(SessionReducerCascade):
    """Oracle: a span across a slot edge bucketed on its own as it folds —
    the per-flow ``SlotStageReducer.absorb`` the tick-wide pass replaced."""

    __slots__ = ()

    def _fold(self, facts, flow):
        queued = len(facts.straddles)
        new_window_rows = super()._fold(facts, flow)
        if len(facts.straddles) > queued:
            _flow, slots, origin, _first, _last = facts.straddles.pop()
            rows = slice(facts.bounds[flow], facts.bounds[flow + 1])
            columns = facts.columns
            bincount_slots(
                slots, columns.timestamps[rows], columns.payload_sizes[rows],
                facts.down[rows], origin,
            )
        return new_window_rows


@st.composite
def _straddling_ticks(draw):
    """Ticks of 1–30 flows on a quarter-slot grid: spans of one to four
    slots, rows in random order, later spans reaching before a flow's
    origin, and a flow given more than once in one tick."""
    width = draw(st.sampled_from([0.5, 1.0, 3.0]))
    n_flows = draw(st.integers(1, 30))
    ticks = []
    for _ in range(draw(st.integers(1, 4))):
        flows = draw(st.lists(st.integers(0, n_flows - 1), min_size=1, max_size=40))
        pairs = []
        for flow in flows:
            lo = draw(st.integers(-8, 48))  # quarter slots from the flow's base
            n_slots = draw(st.integers(1, 4))
            n = draw(st.integers(1, 8))
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            quarters = lo + rng.integers(0, 4 * n_slots + 1, n)
            pairs.append(
                (
                    flow,
                    PacketColumns(
                        timestamps=1000.0 + 0.125 * flow + width * quarters / 4,
                        payload_sizes=rng.integers(40, 1400, n).astype(float),
                        directions=rng.integers(0, 2, n).astype(np.int8),
                    ),
                )
            )
        ticks.append(pairs)
    return width, ticks


def _slot_counters(cls, mode, width, ticks):
    """Fold the ticks as the engine does; every flow's counters after each."""
    cascades, after = {}, []
    for pairs in ticks:
        tick = tick_of(pairs)
        facts = TickFacts(tick.columns, tick.bounds)
        for index, flow in enumerate(tick.keys):
            if flow not in cascades:
                cascades[flow] = cls(
                    slot_duration=width, alpha=0.5, window_seconds=5.0,
                    keep_history=mode == "full",
                )
            cascades[flow].fold(facts, index)
        facts.flush()
        after.append(
            {
                flow: (c.slots._raw.shape, c.slots._raw.tobytes(), c.slots._max_slot)
                for flow, c in cascades.items()
            }
        )
    return after


@settings(max_examples=120, deadline=None)
@given(case=_straddling_ticks(), mode=st.sampled_from(["bounded", "full"]))
def test_tick_wide_bucketing_equals_a_bincount_per_flow(case, mode):
    width, ticks = case
    got = _slot_counters(SessionReducerCascade, mode, width, ticks)
    assert got == _slot_counters(PerFlowBincountCascade, mode, width, ticks)


def test_a_refold_counts_a_queued_straddling_span_once(fitted_pipeline):
    """Full mode, one flow twice in one tick: its first span crosses a slot
    edge and is queued, its second reaches before the origin and refolds
    the counters from history, which already holds the first span.  The
    queued span lands before the refold; landing after it counts it twice."""
    width = fitted_pipeline.activity_classifier.slot_duration
    key = FlowKey("10.0.0.1", 50000, "198.51.100.7", 443)

    def span(start: float, n: int) -> PacketColumns:
        return PacketColumns(
            timestamps=start + 0.1 * width * np.arange(n),
            payload_sizes=np.full(n, 1000.0),
            directions=np.where(np.arange(n) % 2, UPSTREAM_CODE, DOWNSTREAM_CODE),
        )

    opening = span(100.0, 4)  # inside slot 0: the origin
    straddling = span(100.0 + 0.45 * width, 10)  # across the edge of slot 1
    older = span(100.0 - 0.35 * width, 3)  # before the origin
    engine = StreamingEngine(fitted_pipeline, session_mode="full")
    engine.ingest_tick(tick_of([(key, opening)]), float(opening.timestamps.max()))
    engine.ingest_tick(
        tick_of([(key, straddling), (key, older)]), float(straddling.timestamps.max())
    )
    cascade = engine._states[key].cascade
    assert cascade.origin_shifts == 1
    raw = cascade.slots._raw
    # 9 downstream and 8 upstream rows of 1000 B, each counted once
    assert raw.sum(axis=0).tolist() == [9000.0, 9.0, 8000.0, 8.0]
    reference = SessionReducerCascade(slot_duration=width, alpha=0.5, window_seconds=5.0)
    absorb(reference, PacketColumns.concat([opening, straddling, older]))
    assert np.array_equal(raw[:8], reference.slots._raw[:8])


# ---------------------------------------------------------------------------
# per-slot updates on python floats vs the array expressions they replaced
# ---------------------------------------------------------------------------
_STAGES = (
    PlayerStage.LAUNCH,
    PlayerStage.IDLE,
    PlayerStage.PASSIVE,
    PlayerStage.ACTIVE,
)


@settings(max_examples=200, deadline=None)
@given(
    codes=st.lists(st.integers(0, 3), min_size=1, max_size=120),
    steps=st.lists(st.integers(1, 7), min_size=1, max_size=120),
)
@example(codes=[0], steps=[1])  # a launch slot alone: no gameplay, all-zero row
@example(codes=[1, 0, 1, 1], steps=[1])  # launch breaks the chain mid-way
def test_scalar_extend_rows_equal_prefix_transition_features(codes, steps):
    stages = [_STAGES[code] for code in codes]
    expected_features, expected_seen = prefix_transition_features(stages)
    tracker = PrefixTransitionTracker()
    features, seen = [], []
    position = 0
    for step in steps * len(stages):
        if position >= len(stages):
            break
        block_features, block_seen = tracker.extend(stages[position : position + step])
        assert block_features.dtype == expected_features.dtype
        assert block_seen.dtype == expected_seen.dtype
        features.append(block_features)
        seen.append(block_seen)
        position += step
        # the snapshot keeps its meaning: nine float counts, restorable
        resumed = PrefixTransitionTracker()
        resumed.restore(tracker.snapshot())
        assert deep_equal(resumed.snapshot(), tracker.snapshot())
        assert tracker.snapshot()["counts"].dtype == np.float64
    assert np.array_equal(np.vstack(features), expected_features)
    assert np.array_equal(np.concatenate(seen), expected_seen)
    assert tracker.snapshot()["gameplay_seen"] == int(expected_seen[-1])


def _array_update(peaks, ema, alpha, raw):
    """Oracle: ``OnlineVolumetricTracker.step`` as array expressions."""
    peaks = np.maximum(peaks, raw)
    relative = np.clip(raw / np.where(peaks <= 0, 1.0, peaks), 0.0, 1.0)
    ema = relative if ema is None else alpha * relative + (1.0 - alpha) * ema
    return peaks, ema


def smooth_columns(relative, alpha):
    """Oracle: Equation 1's EMA applied to one column at a time."""
    smoothed = np.empty_like(relative)
    for column in range(relative.shape[1]):
        smoothed[:, column] = exponential_moving_average(relative[:, column], alpha)
    return smoothed


@settings(max_examples=200, deadline=None)
@given(
    counters=st.lists(
        st.tuples(
            st.integers(0, 2_000_000), st.integers(0, 4000),
            st.integers(0, 200_000), st.integers(0, 2000),
        ),
        min_size=1,
        max_size=60,
    ),
    alpha=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    slot_duration=st.sampled_from([0.5, 1.0, 3.0]),
)
@example(counters=[(0, 0, 0, 0), (1500, 1, 0, 0)], alpha=0.5, slot_duration=1.0)
def test_scalar_update_rows_equal_generator(counters, alpha, slot_duration):
    reducer = SlotStageReducer(slot_duration, alpha)
    for slot, (down_bytes, down_packets, up_bytes, up_packets) in enumerate(counters):
        reducer.absorb_slot(slot, float(down_bytes), down_packets, float(up_bytes), up_packets)
    raw = reducer.raw_matrix(len(counters))
    rows, first = reducer.advance(len(counters))
    assert first == 0 and len(rows) == len(counters)
    assert all(type(value) is float for row in rows for value in row)
    features = np.array(rows)
    # (a) the offline generator: causal running peaks (no launch floor), EMA
    generator = VolumetricAttributeGenerator(alpha=alpha, peak_floor_fraction=0.0)
    relative = generator.relative_matrix(raw)
    assert np.array_equal(features, smooth_columns(relative, alpha))
    # (b) the lockstep EMA of the batched generator, alone and in a batch
    assert np.array_equal(generator.smooth_many([relative])[0], features)
    shorter = relative[: len(relative) // 2]
    padded = generator.smooth_many([shorter, relative, np.zeros((0, 4))])
    assert np.array_equal(padded[0], smooth_columns(shorter, alpha))
    assert np.array_equal(padded[1], features) and padded[2].shape == (0, 4)
    # (c) the array expressions the tracker's scalar step replaced, and step
    tracker = OnlineVolumetricTracker(alpha=alpha)
    peaks, ema = np.full(4, tracker.peak_floor), None
    for row, expected in zip(raw, features):
        peaks, ema = _array_update(peaks, ema, alpha, row)
        assert np.array_equal(ema, expected)
        assert np.array_equal(np.array(tracker.step(row.tolist())), expected)
    state = tracker.snapshot()
    assert np.array_equal(state["peaks"], peaks) and np.array_equal(state["ema"], ema)


# ---------------------------------------------------------------------------
# the cost model, as a count
# ---------------------------------------------------------------------------
def _steady_flows_tick(n_flows: int, start: float, seconds: float, per_flow: int):
    """``per_flow`` RTP rows of every flow inside ``[start, start + seconds)``."""
    parts = []
    for flow in range(n_flows):
        upstream, downstream = _flow_addresses(flow)
        times = start + seconds * (np.arange(per_flow) + flow / n_flows) / per_flow
        base = int(round(start * 1000)) * per_flow
        parts.append(
            PacketColumns.uniform(
                times[:-1], np.full(per_flow - 1, 1100.0), Direction.DOWNSTREAM,
                address=downstream, rtp_payload_type=96, rtp_ssrc=7 + flow,
                rtp_sequence=(base + np.arange(per_flow - 1)) & 0xFFFF,
                rtp_timestamp=(90_000 * times[:-1]).astype(np.int64),
            )
        )
        parts.append(
            PacketColumns.uniform(
                times[-1:], np.full(1, 80.0), Direction.UPSTREAM, address=upstream,
                rtp_payload_type=96, rtp_ssrc=7 + flow, rtp_sequence=[base & 0xFFFF],
                rtp_timestamp=(90_000 * times[-1:]).astype(np.int64),
            )
        )
    return PacketColumns.concat(parts).sorted_by_time()


def _count_ingest(pipeline, n_flows: int) -> Dict[str, int]:
    """Work of one mid-slot ``ingest`` with ``n_flows`` flows past their title window."""
    engine = StreamingEngine(pipeline)
    # 7.3 s of feed in 0.1 s ticks: every title gate has fired
    for tick in range(73):
        engine.ingest(_steady_flows_tick(n_flows, 100.0 + 0.1 * tick, 0.1, 6))
    assert all(state.title_fired for state in engine._states.values())
    # the counted tick sits strictly inside slot 7 and QoE window 0 of every flow
    tick = _steady_flows_tick(n_flows, 107.3, 0.08, 6)
    counts = {"numpy": 0, "batches": 0, "per_flow_facts": 0}
    constructors = {PacketColumns.__init__.__code__, PacketColumns.take.__code__}
    per_flow_facts = TickFacts.of_batch.__func__.__code__

    def profiler(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or type(owner).__module__
            if module.split(".")[0] == "numpy":
                counts["numpy"] += 1
        elif event == "call":
            if frame.f_code in constructors:
                counts["batches"] += 1
            elif frame.f_code is per_flow_facts:
                counts["per_flow_facts"] += 1

    sys.setprofile(profiler)
    try:
        events = engine.ingest(tick)
    finally:
        sys.setprofile(None)
    assert events == []  # nothing was due: the tick only folded
    return counts


def test_ingest_work_does_not_scale_with_flows_that_have_nothing_due(fitted_pipeline):
    few = _count_ingest(fitted_pipeline, 8)
    many = _count_ingest(fitted_pipeline, 64)
    assert many["per_flow_facts"] == few["per_flow_facts"] == 0
    # 56 more flows, not one more batch object or numpy call (the slack is
    # for numpy picking a different internal path on a larger array)
    assert many["batches"] == few["batches"] <= 3
    assert abs(many["numpy"] - few["numpy"]) <= 4
    assert few["numpy"] <= 60


# ---------------------------------------------------------------------------
# retained rows pin what they account, nothing more
# ---------------------------------------------------------------------------
def _root(array: np.ndarray):
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


def _retained(cascade) -> Tuple[int, int]:
    """``(bytes kept alive, bytes accounted)`` by a cascade's launch chunks
    and history batches."""
    batches = list(cascade.launch._chunks)
    if cascade._history is not None:
        batches += cascade.history
    roots = {}
    for batch in batches:
        for field in dataclasses.fields(PacketColumns):
            column = getattr(batch, field.name)
            if column is not None:
                root = _root(column)
                roots[id(root)] = (
                    root.nbytes if isinstance(root, np.ndarray) else len(root)
                )
    return sum(roots.values()), sum(batch.nbytes() for batch in batches)


@pytest.mark.parametrize("mode", ["bounded", "full"])
@pytest.mark.parametrize("path", ["single", "shm"])
def test_retained_rows_do_not_pin_their_ticks(fitted_pipeline, tick_rows, mode, path):
    rows, contexts = tick_rows
    ticks = _feed_ticks(rows, [k / 40 for k in range(1, 40)], 0, None)
    engine = StreamingEngine(fitted_pipeline, session_mode=mode)
    demux = FlowDemux()
    ring = ShmColumnRing(n_slots=1, slot_rows=len(rows)) if path == "shm" else None
    try:
        for tick in ticks:
            if ring is None:
                engine.ingest(tick)
            else:  # the worker's read path: write_slot -> read_slot -> ingest_tick
                n_rows, spans, flags = ring.write_slot(0, tick, demux.split_indices(tick))
                engine.ingest_tick(
                    ring.read_slot(0, n_rows, spans, flags), float(tick.timestamps.max())
                )
    finally:
        if ring is not None:
            ring.destroy()
    assert len(engine._states) == 3
    for state in engine._states.values():
        alive, accounted = _retained(state.cascade)
        assert accounted > 0
        assert alive <= 1.05 * accounted
        for chunk in state.cascade.launch._chunks:
            assert chunk.timestamps.base is None and chunk.addresses.base is None


# ---------------------------------------------------------------------------
# a non-finite clock completes nothing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("clock", [float("-inf"), float("nan")])
def test_non_finite_clock_does_not_flush_the_open_slot(fitted_pipeline, tick_rows, clock):
    rows, _contexts = tick_rows
    # half a second of feed: no slot of any flow is complete yet
    batch0 = rows.take(np.flatnonzero(rows.timestamps < rows.timestamps[0] + 0.5))
    expected = StreamingEngine(fitted_pipeline).ingest(batch0)
    assert {type(event) for event in expected} == {SessionStarted}
    engine = StreamingEngine(fitted_pipeline)
    got = engine.ingest_tick(tick_of(FlowDemux().split(batch0)), clock)
    assert deep_equal(got, expected)
    assert engine.clock == float("-inf")
    # the unfinished slot completes once a real clock passes it, and only once
    later = engine.ingest_tick(tick_of([]), float(batch0.timestamps.max()) + 1.0)
    stage_slots = [e.slot_index for e in later if isinstance(e, StageUpdate)]
    assert stage_slots == sorted(set(stage_slots)) and 0 in stage_slots


@pytest.mark.parametrize("backend", ["serial", "fork"])
def test_sharded_feed_may_start_with_empty_batches(fitted_pipeline, tick_rows, backend):
    """Two empty batches put ``-inf`` on the shard clocks: nothing flushes,
    and the feed ends in the reports of the un-prefixed feed."""
    rows, contexts = tick_rows
    ticks = _feed_ticks(rows, [k / 12 for k in range(1, 12)], 0, None)

    class Feed(list):
        flow_contexts = contexts

    def reports(batches):
        engine = ShardedEngine(fitted_pipeline, n_workers=2, backend=backend)
        try:
            events = list(engine.run_feed(Feed(batches)))
        finally:
            engine.close()
        return {e.flow: e for e in events if isinstance(e, SessionReport)}, events

    expected, plain_events = reports(ticks)
    got, prefixed_events = reports([PacketColumns.empty(), PacketColumns.empty()] + ticks)
    assert len(prefixed_events) == len(plain_events)
    assert got.keys() == expected.keys() and len(got) == 3
    for key, event in got.items():
        assert_report_identical(event.report, expected[key].report)
