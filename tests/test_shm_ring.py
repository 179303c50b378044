"""Shared-memory column rings (DESIGN.md §12): round-trip, lifecycle, replay.

The data-plane guarantees under test:

* a slot round-trip is **value-identical** to ``demux.split`` — dtypes,
  RTP/address presence, reconstructed address tuples, ``nbytes`` — and the
  decoded tick is the flow-sorted tick a single engine gathers, so the
  worker-side fold cannot observe whether a slot or the inline fallback
  delivered its tick;
* slot reuse is gated by §8 checkpoint pruning, so an undersized ring (or
  an oversized tick) degrades to the inline-pickle **fallback**, never to
  corruption — output stays bit-identical to the serial reference;
* **lifecycle**: no ring segment outlives its supervisor, whether the feed
  finishes, raises mid-run, or its generator is abandoned (workers see pipe
  EOF and exit on their own, DESIGN.md §8), and a worker respawn (kill +
  restore + replay) reads replayed slots and inline payloads intact.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.net.flow import FlowTick
from repro.net.packet import PacketColumns
from repro.runtime import (
    FaultPlan,
    FlowDemux,
    KillWorker,
    SessionFeed,
    ShardedEngine,
    ShardSupervisor,
    ShmColumnRing,
    WorkerRestarted,
)

from test_fault_tolerance import event_fingerprints, shm_segments
from test_runtime import assert_report_identical, reports_by_client_port


def assert_columns_identical(got: PacketColumns, expected: PacketColumns):
    """Value-and-presence equality of two batches (dtype-exact)."""
    for name in ("timestamps", "payload_sizes", "directions"):
        got_col, exp_col = getattr(got, name), getattr(expected, name)
        assert got_col.dtype == exp_col.dtype
        assert np.array_equal(got_col, exp_col)
    for name in ("rtp_payload_type", "rtp_ssrc", "rtp_sequence", "rtp_timestamp"):
        got_col, exp_col = getattr(got, name), getattr(expected, name)
        assert (got_col is None) == (exp_col is None)
        if exp_col is not None:
            assert np.array_equal(got_col, exp_col)
    assert (got.addresses is None) == (expected.addresses is None)
    if expected.addresses is not None:
        assert all(a == b for a, b in zip(got.addresses, expected.addresses))
    assert got.nbytes() == expected.nbytes()


def tick_pairs(tick: FlowTick):
    """A flow-sorted tick cut back into ``(key, sub_batch)`` pairs."""
    bounds = tick.bounds.tolist()
    return [
        (key, tick.columns.slice_view(start, stop))
        for key, start, stop in zip(tick.keys, bounds, bounds[1:])
    ]


def _mixed_batch(n=400, n_flows=5, with_rtp=True, with_addresses=True, seed=0):
    """A batch mixing flows and directions like a live demuxed feed tick."""
    rng = np.random.default_rng(seed)
    directions = rng.integers(0, 2, n).astype(np.int8)
    addresses = None
    if with_addresses:
        cache = {}
        addresses = np.empty(n, dtype=object)
        for i in range(n):
            flow = int(rng.integers(0, n_flows))
            up = (f"10.0.0.{flow}", "198.51.100.7", 40000 + flow, 443, "udp")
            tup = up if directions[i] else (up[1], up[0], up[3], up[2], up[4])
            addresses[i] = cache.setdefault(tup, tup)
    rtp = (
        {
            "rtp_payload_type": rng.integers(-1, 128, n),
            "rtp_ssrc": rng.integers(-1, 2**20, n),
            "rtp_sequence": rng.integers(-1, 65536, n),
            "rtp_timestamp": rng.integers(-1, 2**31, n),
        }
        if with_rtp
        else {}
    )
    return PacketColumns(
        timestamps=np.sort(rng.uniform(0.0, 30.0, n)),
        payload_sizes=rng.integers(60, 1300, n).astype(float),
        directions=directions,
        addresses=addresses,
        **rtp,
    )


# ---------------------------------------------------------------------------
# ring unit round-trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("with_rtp", [True, False])
@pytest.mark.parametrize("with_addresses", [True, False])
def test_slot_roundtrip_matches_demux_split(with_rtp, with_addresses):
    """write_slot → read_slot equals the materialised demux.split pairs."""
    batch = _mixed_batch(with_rtp=with_rtp, with_addresses=with_addresses)
    demux = FlowDemux()
    index_pairs = demux.split_indices(batch)
    expected = [(key, batch.take(rows)) for key, rows in index_pairs]
    ring = ShmColumnRing(n_slots=2, slot_rows=512, shard=0)
    try:
        n_rows, spans, flags = ring.write_slot(1, batch, index_pairs)
        tick = ring.read_slot(1, n_rows, spans, flags)
        got = tick_pairs(tick)
        assert [key for key, _ in got] == [key for key, _ in expected]
        for (_, got_sub), (_, exp_sub) in zip(got, expected):
            assert_columns_identical(got_sub, exp_sub)
        # ... which is the tick a single engine gathers from the same batch
        gathered = FlowTick.gather(batch, index_pairs)
        assert tick.keys == gathered.keys
        assert np.array_equal(tick.bounds, gathered.bounds)
        assert_columns_identical(tick.columns, gathered.columns)
        # one interned address tuple per flow and direction
        if with_addresses:
            assert len({id(a) for a in tick.columns.addresses}) == len(
                set(tick.columns.addresses)
            )
        # the control-message spans are the slot's one row -> flow map
        assert [(start, stop) for _key, start, stop in spans] == list(
            zip(tick.bounds[:-1].tolist(), tick.bounds[1:].tolist())
        )
    finally:
        ring.destroy()


def test_slot_views_survive_slot_reuse():
    """Decoded sub-batches are copies: overwriting the slot cannot torn-read."""
    batch_a = _mixed_batch(seed=1)
    batch_b = _mixed_batch(seed=2)
    demux = FlowDemux()
    ring = ShmColumnRing(n_slots=1, slot_rows=512)
    try:
        pairs_a = demux.split_indices(batch_a)
        n_rows, spans, flags = ring.write_slot(0, batch_a, pairs_a)
        decoded = ring.read_slot(0, n_rows, spans, flags)
        expected = [(key, batch_a.take(rows)) for key, rows in pairs_a]
        ring.write_slot(0, batch_b, demux.split_indices(batch_b))  # reuse
        for (_, got_sub), (_, exp_sub) in zip(tick_pairs(decoded), expected):
            assert_columns_identical(got_sub, exp_sub)
    finally:
        ring.destroy()


def test_oversized_tick_is_rejected_by_write_slot():
    ring = ShmColumnRing(n_slots=1, slot_rows=16)
    try:
        batch = _mixed_batch(n=64)
        with pytest.raises(ValueError, match="exceeds slot capacity"):
            ring.write_slot(0, batch, FlowDemux().split_indices(batch))
    finally:
        ring.destroy()


def test_ring_validation_and_explicit_destroy():
    with pytest.raises(ValueError):
        ShmColumnRing(n_slots=0, slot_rows=8)
    with pytest.raises(ValueError):
        ShmColumnRing(n_slots=2, slot_rows=0)
    before = shm_segments()
    ring = ShmColumnRing(n_slots=2, slot_rows=8)
    assert ring.name in shm_segments()
    ring.destroy()
    ring.destroy()  # idempotent
    assert shm_segments() <= before


# ---------------------------------------------------------------------------
# feed-level: wraparound, fallback, lifecycle, replay
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shm_reference(fitted_pipeline, runtime_sessions):
    """Serial-backend reports every fork-backend run below must equal."""
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="serial")
    return reports_by_client_port(
        engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    )


def _run_fork_feed(fitted_pipeline, runtime_sessions, **kwargs):
    engine = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="fork", **kwargs
    )
    events = list(
        engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    )
    return engine, events


def _assert_reports_equal(got, reference):
    assert set(got) == set(reference)
    for port, report in got.items():
        assert_report_identical(report, reference[port])


def test_shm_feed_identical_and_pipe_volume_reduced(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """The fork feed pins serial output; only control messages hit the pipe."""
    before = shm_segments()
    engine, events = _run_fork_feed(fitted_pipeline, runtime_sessions)
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    stats = engine.last_feed_stats
    assert stats["shm_fallback_ticks"] == 0
    assert stats["shm_ring_peak_bytes"] > 0
    # the acceptance number: what crosses the pipe is control messages, a
    # small fraction of the batch arrays the feed carried (which is what
    # pickling every tick inline would have cost)
    feed_nbytes = sum(
        batch.nbytes() for batch in SessionFeed(runtime_sessions, batch_seconds=4.0)
    )
    assert stats["pipe_payload_bytes_total"] < feed_nbytes / 10
    assert mp.active_children() == []
    assert shm_segments() <= before


def test_undersized_ring_wraps_to_inline_fallback(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """More in-flight ticks than slots: fallback ticks, identical output."""
    engine, events = _run_fork_feed(
        fitted_pipeline,
        runtime_sessions,
        ring_slots=1,  # < snapshot_every_ticks: slots starve before a prune
        snapshot_every_ticks=8,
    )
    stats = engine.last_feed_stats
    assert stats["shm_fallback_ticks"] > 0
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    assert mp.active_children() == []


def test_tick_larger_than_slot_falls_back_inline(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """A tick overflowing slot_rows pickles inline — for that tick only."""
    engine, events = _run_fork_feed(
        fitted_pipeline,
        runtime_sessions,
        ring_slot_rows=64,  # far below a 4-second batch of three sessions
    )
    stats = engine.last_feed_stats
    assert stats["shm_fallback_ticks"] > 0
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    assert mp.active_children() == []


def test_segments_cleaned_after_completed_feed(
    fitted_pipeline, runtime_sessions, shm_reference
):
    before = shm_segments()
    _run_fork_feed(fitted_pipeline, runtime_sessions)
    assert shm_segments() <= before
    assert mp.active_children() == []


def test_segments_cleaned_after_abandoned_generator(
    fitted_pipeline, runtime_sessions
):
    """An abandoned mid-feed generator leaves no worker and no segment."""
    before = shm_segments()
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="fork")
    generator = engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    next(generator)  # segments exist while the feed is live
    assert len(shm_segments() - before) == 2  # one ring per shard
    generator.close()
    assert mp.active_children() == []
    assert shm_segments() <= before
    engine.close()  # idempotent after the generator already cleaned up


def test_segments_cleaned_after_midfeed_exception(
    fitted_pipeline, runtime_sessions
):
    """A feed raising mid-run propagates and still unlinks every segment."""

    def exploding_feed():
        for tick, batch in enumerate(
            SessionFeed(runtime_sessions, batch_seconds=4.0)
        ):
            if tick == 2:
                raise RuntimeError("capture card unplugged")
            yield batch

    before = shm_segments()
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="fork")
    with pytest.raises(RuntimeError, match="capture card unplugged"):
        list(engine.run_feed(exploding_feed()))
    assert mp.active_children() == []
    assert shm_segments() <= before


@pytest.mark.parametrize("n_workers", [2, 3])
def test_abandoned_generator_closes_fast_with_clean_worker_exits(
    fitted_pipeline, runtime_sessions, monkeypatch, n_workers
):
    """Workers see pipe EOF at stop(): no join timeout, no SIGTERM.

    Every worker closes the parent-side pipe ends it inherited across the
    fork, so the parent closing its end reads as EOF and the worker returns
    on its own (exit code 0) instead of waiting out ``join(timeout=5)``.
    """
    exitcodes = []
    reap = ShardSupervisor._reap

    def recording_reap(worker, timeout):
        worker.join(timeout=timeout)  # _reap's own first step; it closes the handle
        exitcodes.append(worker.exitcode)
        reap(worker, timeout)

    monkeypatch.setattr(ShardSupervisor, "_reap", staticmethod(recording_reap))
    engine = ShardedEngine(fitted_pipeline, n_workers=n_workers, backend="fork")
    generator = engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    next(generator)
    started = time.monotonic()
    generator.close()
    assert time.monotonic() - started < 1.0
    assert exitcodes == [0] * n_workers
    assert mp.active_children() == []


@pytest.mark.faults
@pytest.mark.parametrize("ring_slot_rows", [65536, 1], ids=["slots", "inline"])
def test_restore_then_replay_is_exact_across_respawn(
    fitted_pipeline, runtime_sessions, shm_reference, ring_slot_rows
):
    """A killed worker replays un-checkpointed ticks exactly, exactly once.

    ``slots``: the §12 reuse rule keeps every un-checkpointed tick's slot
    pinned until pruned, so the respawned worker re-reads the replayed
    control messages against intact slot data.  ``inline``: one-row slots
    make every tick take the fallback, so the replay ring holds (and
    resends) pickled pairs.  Either way the feed's reports stay
    bit-identical to the serial reference and no event is delivered twice.
    """
    n_ticks = sum(1 for _ in SessionFeed(runtime_sessions, batch_seconds=4.0))
    plan = FaultPlan(
        actions=(
            KillWorker(shard=0, tick=n_ticks // 3),
            KillWorker(shard=1, tick=(2 * n_ticks) // 3),
        )
    )
    before = shm_segments()
    engine = ShardedEngine(
        fitted_pipeline,
        n_workers=2,
        backend="fork",
        snapshot_every_ticks=3,
        recv_timeout_s=60.0,
        ring_slot_rows=ring_slot_rows,
    )
    events = list(
        engine.run_feed(
            SessionFeed(runtime_sessions, batch_seconds=4.0), fault_plan=plan
        )
    )
    restarts = [e for e in events if isinstance(e, WorkerRestarted)]
    assert len(restarts) == 2
    assert not {k: c for k, c in event_fingerprints(events).items() if c > 1}
    stats = engine.last_feed_stats
    assert stats["n_restarts"] == 2
    assert stats["replayed_ticks_total"] > 0
    if ring_slot_rows == 1:
        assert stats["shm_fallback_ticks"] >= n_ticks
    else:
        assert stats["shm_fallback_ticks"] == 0
        assert stats["shm_ring_peak_bytes"] > 0
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    assert mp.active_children() == []
    assert shm_segments() <= before
