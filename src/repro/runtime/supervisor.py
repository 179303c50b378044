"""Worker supervision and exact checkpoint/replay recovery for shard feeds.

:class:`ShardSupervisor` owns the forked workers behind
:meth:`~repro.runtime.shard.ShardedEngine.run_feed` and makes the fork
backend survive worker death without losing a flow (DESIGN.md §8):

* **liveness** — every reply is received under a deadline
  (``Connection.poll`` + ``Process.is_alive``), so a dead worker raises
  immediately (broken pipe / EOF) and a hung one (e.g. SIGSTOP'd) surfaces
  after ``recv_timeout_s`` instead of deadlocking the parent;
* **checkpoints** — on every ``snapshot_every_ticks``-th tick reply a worker
  piggybacks an *incremental* checkpoint of its engine snapshot
  (:meth:`StreamingEngine.snapshot`): the snapshot's structure plus only the
  arrays it has not shipped before (:class:`_CheckpointEncoder`).  The
  parent keeps the opaque blobs as a per-shard chain, drops the chain when a
  reply is flagged full, and never unpickles any of it;
* **replay ring** — the parent retains each tick it sent since the last
  checkpoint (a bounded deque: at most ``snapshot_every_ticks`` + in-flight
  entries).  Recovery = respawn the worker, send it the checkpoint chain
  (folded back into one snapshot by :func:`_decode_checkpoints`), resend
  the ring in sequence order.  Because engine folds are deterministic and
  snapshots are exact, the respawned worker reconstructs *bit-identical*
  state — close reports equal an uninterrupted run's;
* **exactly-once events** — messages carry sequence numbers; workers dedupe
  (``seq <= last_seq`` replies empty) and reorder (a stash holds early
  ticks until the gap fills), and the parent discards replayed replies at
  or below its emitted-sequence watermark.  Every event therefore reaches
  the consumer exactly once, crash or no crash;
* **fault injection** — a seeded
  :class:`~repro.runtime.faults.FaultPlan` can kill/stall workers and
  duplicate/delay tick transmissions at pinned (shard, tick) coordinates,
  which is how ``tests/test_fault_tolerance.py`` drives the matrix.

Wire protocol (parent → worker / worker → parent)::

    ("tick", seq, payload, clock, want_snapshot)
                            -> ("events", done_seq, events, checkpoint | None)
    ("swap", seq, pipeline_blob, want_snapshot)
                            -> ("events", done_seq, events, checkpoint | None)
    ("restore", [checkpoint blobs], last_seq, pipeline_blob | None)
                            -> ("restored", [flow keys])
    ("close",)              -> ("closed", events, analytics | None)

A ``checkpoint`` is ``(full, blob)``: ``blob`` is the zlib-pickled pair
``(structure, {token: array})`` — the snapshot pickled with every large
numeric array replaced by an integer token, and the arrays behind the
tokens this chain has not carried yet.  ``full`` says the blob carries every
array its structure names, so it starts a new chain; otherwise it extends
the current one.  A restore sends the whole chain (empty before the first
checkpoint), and the worker's first checkpoint after it is full again.

A tick's ``payload`` says where its rows are (DESIGN.md §12):

* ``("shm", slot, n_rows, spans, flags)`` — the batch rows live in the
  shard's shared-memory column ring
  (:class:`~repro.runtime.shm.ShmColumnRing`); only this control tuple
  crosses the pipe.  The slot is reusable exactly when the tick leaves the
  replay ring (``seq <= snapshot_seq``), so a replayed control message
  always finds its slot data intact.
* ``("inline", pairs)`` — the per-tick fallback: the demuxed
  ``(FlowKey, PacketColumns)`` pairs pickled inline, when the tick is
  larger than a slot or no checkpoint-pruned slot is free
  (``shm_fallback_ticks`` counts these).

``("swap", ...)`` is a hot model swap (:meth:`ShardSupervisor.swap_all`):
it shares the tick sequence space, so every shard applies it at the same
point of its fold order — tick ``seq - 1`` ran on the old model, tick
``seq + 1`` runs on the new one, on every shard.  Swap messages live in
the replay ring like ticks (a recovered worker re-applies them in
sequence), the latest swap at or below a checkpoint rides the restore
message (engine snapshots capture session state, never the model), and
the per-shard :class:`~repro.runtime.events.ModelSwapped` events flow
through the same watermark dedupe — exactly-once, crash or no crash.

The close reply's third element is the worker engine's fleet-analytics
snapshot (zlib-pickled, ``None`` when the engine has no aggregator
attached); the parent holds the blobs and
:meth:`ShardSupervisor.merged_analytics` merges them in shard order.
Because the aggregator state rides the engine checkpoint, a recovered
worker's close-time analytics are bit-identical to an uninterrupted
run's — the fleet rollups inherit the exactly-once guarantee.

``done_seq`` is the highest *contiguous* sequence the worker has folded —
a reply may carry several ticks' events when a reorder stash drains, and a
duplicate or stashed-out-of-order message is answered with an empty reply
so the parent/worker stay in lockstep (one reply per transmission).
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import signal
import time
import zlib
from collections import deque
from dataclasses import replace as dataclasses_replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.flow import FlowKey
from repro.net.packet import PacketColumns
from repro.runtime.engine import StreamingEngine, _check_swap_geometry
from repro.runtime.events import ContextEvent, SessionRecovered, WorkerRestarted
from repro.runtime.faults import (
    DelayTick,
    DuplicateTick,
    FaultPlan,
    KillWorker,
    StallWorker,
)
from repro.runtime.shm import ShmColumnRing
from repro.runtime.state import FlowContext

__all__ = ["ShardSupervisor"]

# fork-inherited worker configuration (populated in the parent immediately
# before each fork — initial spawn and respawns alike — and cleared after;
# workers read their copy-on-write view once at startup)
_FORK_STATE: dict = {}


def _encode_snapshot(snapshot: dict) -> bytes:
    return zlib.compress(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL), 1)


def _decode_snapshot(payload: bytes) -> dict:
    return pickle.loads(zlib.decompress(payload))


class _CheckpointEncoder:
    """Worker-side incremental encoding of successive engine snapshots.

    ``snapshot()`` copies whatever the engine mutates in place and shares by
    reference only arrays that are never written again (DESIGN.md §8), so an
    array object met again in a later snapshot still has the bytes it was
    shipped with.  The encoder keeps a strong reference to every array the
    latest snapshot named (an ``id`` cannot be reused while it is held), and
    ships an array once per chain.
    """

    #: numeric arrays at least this large travel by token; smaller ones stay
    #: inside the structure, where a token would cost about as much
    TOKEN_MIN_NBYTES = 256

    def __init__(self) -> None:
        self._shipped: Dict[int, Tuple[int, np.ndarray]] = {}  # id -> (token, array)
        self._next_token = 0
        self._chain_nbytes = 0  # uncompressed bytes of the chain the parent holds

    def encode(self, snapshot: dict) -> Tuple[bool, bytes]:
        """One ``(full, blob)`` checkpoint; ``full`` starts a new chain."""
        live: Dict[int, Tuple[int, np.ndarray]] = {}
        fresh: Dict[int, np.ndarray] = {}

        def persistent_id(obj):
            if (
                type(obj) is not np.ndarray
                or obj.nbytes < self.TOKEN_MIN_NBYTES
                or obj.dtype.hasobject
            ):
                return None
            entry = live.get(id(obj)) or self._shipped.get(id(obj))
            if entry is None:
                entry = (self._next_token, obj)
                self._next_token += 1
                fresh[entry[0]] = obj
            live[id(obj)] = entry
            return entry[0]

        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = persistent_id
        pickler.dump(snapshot)
        structure = buffer.getvalue()
        live_nbytes = len(structure) + sum(a.nbytes for _token, a in live.values())
        fresh_nbytes = len(structure) + sum(a.nbytes for a in fresh.values())
        if self._chain_nbytes + fresh_nbytes > 2 * live_nbytes:
            # re-base: the chain would hold over twice what a checkpoint of
            # the current state needs (closed sessions, superseded copies) —
            # ship every live array and let the parent drop the chain
            fresh = dict(live.values())
            fresh_nbytes = live_nbytes
            self._chain_nbytes = 0
        full = self._chain_nbytes == 0
        self._chain_nbytes += fresh_nbytes
        self._shipped = live
        return full, _encode_snapshot((structure, fresh))


def _decode_checkpoints(chain: List[bytes]) -> dict:
    """Fold a checkpoint chain back into the snapshot its last blob names."""
    arrays: Dict[int, np.ndarray] = {}
    for blob in chain:
        structure, fresh = _decode_snapshot(blob)
        arrays.update(fresh)
    unpickler = pickle.Unpickler(io.BytesIO(structure))
    unpickler.persistent_load = arrays.__getitem__
    return unpickler.load()


def _supervised_worker(connection) -> None:
    """Fork target of one shard worker: fd hygiene, then the fold loop."""
    # the fork copied the parent-side end of every shard's pipe (this
    # shard's included); while any copy stays open, closing the parent's —
    # stop(), or the parent dying — never reads as EOF here
    for inherited in _FORK_STATE["parent_connections"]:
        inherited.close()
    try:
        _serve_shard(connection)
    except (EOFError, ConnectionError):
        # the parent closed its end or vanished: nothing left to answer
        return


def _serve_shard(connection) -> None:
    """Shard worker loop: sequence-numbered folds over one shard engine."""
    config = {
        "pipeline": _FORK_STATE["pipeline"],
        "engine_kwargs": dict(_FORK_STATE["engine_kwargs"]),
        "contexts": dict(_FORK_STATE["contexts"]),
        "shard_index": _FORK_STATE["shard_index"],
        # this shard's shared-memory column ring; the fork inherited the
        # parent's MAP_SHARED mapping, so slot reads observe parent writes
        # directly — nothing to attach or pickle
        "ring": _FORK_STATE["ring"],
    }

    def fresh_engine() -> StreamingEngine:
        engine = StreamingEngine(config["pipeline"], **config["engine_kwargs"])
        for key, context in config["contexts"].items():
            engine.set_flow_context(key, context)
        return engine

    engine = fresh_engine()
    encoder = _CheckpointEncoder()
    last_seq = -1
    stash: Dict[int, tuple] = {}

    def fold(message: tuple) -> Tuple[List[ContextEvent], bool]:
        """Apply one sequenced message; (events, wants_snapshot)."""
        if message[0] == "tick":
            _tag, _seq, payload, clock, want_snapshot = message
            if payload[0] == "shm":
                _kind, slot, n_rows, spans, flags = payload
                tick = config["ring"].read_slot(slot, n_rows, spans, flags)
                return engine.ingest_tick(tick, clock), want_snapshot
            # ("inline", pairs)
            return engine.ingest_demuxed(payload[1], clock), want_snapshot
        # ("swap", seq, pipeline_blob, want_snapshot)
        _tag, _seq, blob, want_snapshot = message
        swapped = engine.swap_pipeline(_decode_snapshot(blob))
        return [dataclasses_replace(swapped, shard=config["shard_index"])], want_snapshot

    while True:
        message = connection.recv()
        kind = message[0]
        if kind in ("tick", "swap"):
            seq = message[1]
            if seq <= last_seq:
                # duplicate transmission: already folded — empty lockstep reply
                connection.send(("events", last_seq, [], None))
                continue
            if seq > last_seq + 1:
                # early (reordered) transmission: hold until the gap fills
                stash[seq] = message
                connection.send(("events", last_seq, [], None))
                continue
            events, want_snapshot = fold(message)
            last_seq = seq
            while last_seq + 1 in stash:
                late_events, late_want = fold(stash.pop(last_seq + 1))
                events.extend(late_events)
                last_seq += 1
                want_snapshot = want_snapshot or late_want
            checkpoint = encoder.encode(engine.snapshot()) if want_snapshot else None
            connection.send(("events", last_seq, events, checkpoint))
        elif kind == "restore":
            _tag, chain, snapshot_seq, swap_blob = message
            engine = fresh_engine()
            # the restored arrays are new objects: the next checkpoint is full
            encoder = _CheckpointEncoder()
            if swap_blob is not None:
                # the model current at the checkpoint: snapshots capture
                # session state, never the pipeline, so the swap replays
                # first (its event was already delivered — discard it)
                engine.swap_pipeline(_decode_snapshot(swap_blob))
            if chain:
                engine.restore(_decode_checkpoints(chain))
            last_seq = snapshot_seq
            stash.clear()
            connection.send(("restored", list(engine.live_flows)))
        elif kind == "close":
            events = engine.close_all()
            analytics = (
                _encode_snapshot(engine.analytics.snapshot())
                if engine.analytics is not None
                else None
            )
            connection.send(("closed", events, analytics))
            connection.close()
            return


class _WorkerFailure(Exception):
    """A shard worker stopped responding; ``reason`` is 'dead' or 'hung'."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _ShardRecord:
    """Parent-side supervision state of one shard."""

    __slots__ = (
        "index",
        "worker",
        "connection",
        "ring",
        "ring_nbytes",
        "shm_nbytes",
        "free_slots",
        "chain",
        "snapshot_seq",
        "emitted_seq",
        "pending_replies",
        "held",
        "closed",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.worker = None
        self.connection = None
        # every un-checkpointed sequenced message (tick / swap), verbatim
        self.ring: deque = deque()
        self.ring_nbytes = 0
        # shared-memory bytes pinned by un-pruned shm ticks, and the slots
        # currently reusable (checkpoint-pruned)
        self.shm_nbytes = 0
        self.free_slots: deque = deque()
        # the opaque checkpoint blobs since the last full one, oldest first
        self.chain: List[bytes] = []
        self.snapshot_seq = -1
        self.emitted_seq = -1
        self.pending_replies = 0
        self.held: Optional[tuple] = None
        self.closed = False


class ShardSupervisor:
    """Fault-tolerant parent-side driver of the forked shard workers.

    Created (and owned) by :meth:`ShardedEngine.run_feed`; usable directly
    for custom feed loops.  The caller partitions each feed batch, then per
    tick: :meth:`begin_tick`, :meth:`drain` + :meth:`send_tick_indexed` per shard
    (double-buffered), and finally :meth:`close_all` / :meth:`stop`.
    All methods returning events may include recovery events
    (:class:`WorkerRestarted` / :class:`SessionRecovered`) when a worker had
    to be respawned.
    """

    def __init__(
        self,
        pipeline,
        n_shards: int,
        engine_kwargs: Optional[dict] = None,
        contexts: Optional[Dict[FlowKey, FlowContext]] = None,
        snapshot_every_ticks: int = 16,
        recv_timeout_s: float = 30.0,
        fault_plan: Optional[FaultPlan] = None,
        ring_slots: Optional[int] = None,
        ring_slot_rows: int = 65536,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if snapshot_every_ticks < 1:
            raise ValueError(
                f"snapshot_every_ticks must be >= 1, got {snapshot_every_ticks}"
            )
        if recv_timeout_s <= 0:
            raise ValueError(f"recv_timeout_s must be positive, got {recv_timeout_s}")
        if ring_slots is not None and ring_slots < 1:
            raise ValueError(f"ring_slots must be >= 1, got {ring_slots}")
        if ring_slot_rows < 1:
            raise ValueError(f"ring_slot_rows must be >= 1, got {ring_slot_rows}")
        self.pipeline = pipeline
        self.n_shards = n_shards
        self.engine_kwargs = dict(engine_kwargs or {})
        self.contexts = dict(contexts or {})
        self.snapshot_every_ticks = snapshot_every_ticks
        self.recv_timeout_s = recv_timeout_s
        self.fault_plan = fault_plan
        # a ring must cover every simultaneously un-checkpointed tick: up to
        # snapshot_every_ticks before a prune, plus the in-flight margin
        # (double buffering keeps one outstanding; delay/duplicate faults
        # can add another) — undersizing degrades to inline fallback
        self.ring_slots = ring_slots or (snapshot_every_ticks + 2)
        self.ring_slot_rows = ring_slot_rows
        self._rings: List[ShmColumnRing] = []  # one per shard once started
        self._context = mp.get_context("fork")
        self._records = [_ShardRecord(index) for index in range(n_shards)]
        self._seq = -1
        self._clock = float("-inf")
        self._started = False
        self._stopped = False
        # (seq, zlib-pickled pipeline) of every swap_all, in sequence order;
        # recovery reads the latest entry at or below a shard's checkpoint
        self._swap_history: List[Tuple[int, bytes]] = []
        # shard -> zlib-pickled FleetAggregator snapshot from the close reply
        self._analytics_payloads: Dict[int, bytes] = {}
        # ---- stats (read by ShardedEngine.last_feed_stats and the bench)
        self.n_restarts = 0
        self.replayed_ticks_total = 0
        self.recovery_latencies_s: List[float] = []
        self.ring_peak_bytes = 0
        self.shm_ring_peak_bytes = 0
        self.shm_fallback_ticks = 0
        self.pipe_payload_bytes_total = 0
        self.last_snapshot_nbytes = 0
        self.checkpoint_bytes_total = 0
        self.checkpoint_chain_peak_bytes = 0
        self.n_full_checkpoints = 0
        self.n_delta_checkpoints = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Allocate the column rings and fork one worker per shard (idempotent)."""
        if self._started:
            return
        self._started = True
        # segments are allocated before the first fork so every worker
        # (initial spawn and respawns alike) inherits the live mapping
        for record in self._records:
            self._rings.append(
                ShmColumnRing(
                    n_slots=self.ring_slots,
                    slot_rows=self.ring_slot_rows,
                    shard=record.index,
                )
            )
            record.free_slots = deque(range(self.ring_slots))
        for record in self._records:
            self._spawn(record)

    def _spawn(self, record: _ShardRecord) -> None:
        """Fork one worker (initial start and respawns share this path)."""
        parent_end, child_end = self._context.Pipe()
        _FORK_STATE.update(
            pipeline=self.pipeline,
            engine_kwargs=self.engine_kwargs,
            contexts=self.contexts,
            shard_index=record.index,
            ring=self._rings[record.index],
            # every parent-side pipe end open at the fork, for the worker
            # to close (a respawned record's own old end is already closed)
            parent_connections=[parent_end]
            + [
                other.connection
                for other in self._records
                if other is not record and other.connection is not None
            ],
        )
        try:
            worker = self._context.Process(
                target=_supervised_worker, args=(child_end,), daemon=True
            )
            worker.start()
            child_end.close()
        finally:
            _FORK_STATE.clear()
        record.worker = worker
        record.connection = parent_end

    def stop(self) -> None:
        """Reap every worker unconditionally (idempotent, exception-safe)."""
        if self._stopped:
            return
        self._stopped = True
        for record in self._records:
            connection, worker = record.connection, record.worker
            if connection is not None:
                try:
                    connection.close()
                except OSError:
                    pass
            if worker is not None:
                self._reap(worker, timeout=5)
            record.connection = None
            record.worker = None
        # after every worker is reaped: no mapping outlives the unlink, so
        # /dev/shm is clean the moment stop() returns (the lifecycle tests
        # assert exactly this)
        for ring in self._rings:
            ring.destroy()

    @staticmethod
    def _reap(worker, timeout: float) -> None:
        """Join a worker, escalating terminate → kill, and only then close it.

        ``Process.close()`` raises ``ValueError`` on a process that is still
        alive, so a join that timed out must escalate, never fall through.
        """
        worker.join(timeout=timeout)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=timeout)
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=timeout)
        worker.close()

    # ------------------------------------------------------------ ticking
    def begin_tick(self, clock: float) -> int:
        """Advance the feed clock and allocate the next tick sequence."""
        self._seq += 1
        self._clock = max(self._clock, clock)
        return self._seq

    def send_tick_indexed(
        self,
        shard: int,
        batch: PacketColumns,
        index_pairs: List[Tuple[FlowKey, "np.ndarray"]],
    ) -> List[ContextEvent]:
        """Send the current tick as row indices into the source batch.

        The rows of every flow are gathered straight into a free ring slot
        (one vectorised copy per column) and only the control tuple crosses
        the pipe; the tick falls back to inline pickling of
        ``batch.take(rows)`` per flow — counted in ``shm_fallback_ticks``,
        never wrong — when it exceeds ``ring_slot_rows`` or no
        checkpoint-pruned slot is free.

        Normally returns no events; when the transmission itself reveals a
        dead worker, recovery happens inline and its events are returned.
        """
        record = self._records[shard]
        ring = self._rings[shard]
        n_rows = sum(int(rows.size) for _key, rows in index_pairs)
        if index_pairs and record.free_slots and n_rows <= ring.slot_rows:
            slot = record.free_slots.popleft()
            n_rows, spans, flags = ring.write_slot(slot, batch, index_pairs)
            payload = ("shm", slot, n_rows, spans, flags)
        else:
            if index_pairs:  # an empty tick needs no slot: not a fallback
                self.shm_fallback_ticks += 1
            payload = ("inline", [(key, batch.take(rows)) for key, rows in index_pairs])
        return self._send_tick_payload(shard, payload)

    def _send_tick_payload(self, shard: int, payload: tuple) -> List[ContextEvent]:
        """Sequence, ring-append and transmit one tick payload (faults here)."""
        record = self._records[shard]
        seq = self._seq
        want_snapshot = (seq + 1) % self.snapshot_every_ticks == 0
        message = ("tick", seq, payload, self._clock, want_snapshot)
        self._ring_append(record, message)
        actions = (
            self.fault_plan.transport_actions(shard, seq) if self.fault_plan else ()
        )
        events: List[ContextEvent] = []
        try:
            if any(isinstance(action, DelayTick) for action in actions):
                # hold this transmission until the next send (or close flush)
                record.held = message
            else:
                if record.held is not None:
                    # deliver the new tick first, then the held one: the
                    # worker sees them out of order and must stash/reorder
                    self._transmit(record, message, events)
                    self._transmit(record, record.held, events)
                    record.held = None
                else:
                    self._transmit(record, message, events)
                if any(isinstance(action, DuplicateTick) for action in actions):
                    self._transmit(record, message, events)
        except _WorkerFailure as failure:
            events.extend(self._recover(record, failure.reason))
        for action in actions:
            if isinstance(action, KillWorker):
                os.kill(record.worker.pid, signal.SIGKILL)
            elif isinstance(action, StallWorker):
                os.kill(record.worker.pid, signal.SIGSTOP)
        return events

    def _transmit(
        self, record: _ShardRecord, message: tuple, events: List[ContextEvent]
    ) -> None:
        # Keep at most one reply outstanding before writing.  A burst of
        # transmissions (delayed + duplicated ticks land together) would
        # otherwise fill both pipe directions at once: the worker blocks
        # sending a large reply (events + snapshot) while the parent blocks
        # sending the next multi-megabyte tick — a send/send deadlock.
        while record.pending_replies > 0:
            events.extend(self._absorb_reply(record, self._recv(record)))
        self._send(record, message)
        record.pending_replies += 1

    @staticmethod
    def _send(record: _ShardRecord, message: tuple) -> None:
        try:
            record.connection.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerFailure("dead") from exc

    @staticmethod
    def _message_nbytes(message: tuple) -> int:
        """Pipe-payload bytes of one sequenced message (what pickling costs).

        Inline ticks count their array bytes, swaps their pipeline blob; an
        shm tick counts only its control tuple (small, estimated per span)
        — the slot bytes it pins are accounted separately in
        ``shm_ring_peak_bytes``.
        """
        if message[0] == "tick":
            payload = message[2]
            if payload[0] == "inline":
                return sum(sub.nbytes() for _key, sub in payload[1])
            # ("shm", slot, n_rows, spans, flags): scalars plus one
            # (FlowKey, start, stop) span per flow cross the pipe
            return 96 + 96 * len(payload[3])
        return len(message[2])  # swap: the zlib-pickled pipeline blob

    @staticmethod
    def _shm_slot_info(message: tuple) -> Optional[Tuple[int, int]]:
        """The ``(slot, n_rows)`` an shm tick pins, ``None`` otherwise."""
        if message[0] == "tick" and message[2][0] == "shm":
            return message[2][1], message[2][2]
        return None

    def _ring_append(self, record: _ShardRecord, message: tuple) -> None:
        record.ring.append(message)
        nbytes = self._message_nbytes(message)
        record.ring_nbytes += nbytes
        self.pipe_payload_bytes_total += nbytes
        total = sum(other.ring_nbytes for other in self._records)
        self.ring_peak_bytes = max(self.ring_peak_bytes, total)
        info = self._shm_slot_info(message)
        if info is not None:
            record.shm_nbytes += self._rings[record.index].slot_nbytes(info[1])
            shm_total = sum(other.shm_nbytes for other in self._records)
            self.shm_ring_peak_bytes = max(self.shm_ring_peak_bytes, shm_total)

    def _ring_prune(self, record: _ShardRecord) -> None:
        while record.ring and record.ring[0][1] <= record.snapshot_seq:
            message = record.ring.popleft()
            record.ring_nbytes -= self._message_nbytes(message)
            info = self._shm_slot_info(message)
            if info is not None:
                # the checkpoint covers this tick: its slot can never be
                # replayed again, so it re-enters the free list (§12's
                # seq→slot reuse rule — the only thing that frees a slot)
                record.shm_nbytes -= self._rings[record.index].slot_nbytes(info[1])
                record.free_slots.append(info[0])

    # ------------------------------------------------------------ hot swap
    def swap_all(self, pipeline) -> List[ContextEvent]:
        """Hot-swap every shard's model on the same tick boundary.

        Allocates one sequence number and sends ``("swap", seq, blob)`` to
        every shard, so each worker applies the swap at exactly the same
        point of its fold order: every tick sequenced before the swap runs
        on the old model on every shard, every tick after it on the new
        one.  The swap joins the replay ring (and, once checkpointed, the
        restore payload), so a worker killed at any point around the swap
        recovers into the correct model — the §8 kill/replay matrix holds
        across swaps, and the per-shard
        :class:`~repro.runtime.events.ModelSwapped` events are exactly-once
        through the same watermark dedupe as every other event.

        Returns the events surfaced by the transmissions (drained prior
        replies, recovery events if a send reveals a dead worker); the
        ``ModelSwapped`` events themselves arrive with each shard's next
        drained reply.  Call between ticks, i.e. not between
        :meth:`begin_tick` and its :meth:`send_tick_indexed` calls.
        """
        _check_swap_geometry(self.pipeline, pipeline)
        blob = _encode_snapshot(pipeline)
        seq = self.begin_tick(self._clock)
        self._swap_history.append((seq, blob))
        events: List[ContextEvent] = []
        for record in self._records:
            message = ("swap", seq, blob, False)
            self._ring_append(record, message)
            try:
                self._transmit(record, message, events)
            except _WorkerFailure as failure:
                events.extend(self._recover(record, failure.reason))
        return events

    # ------------------------------------------------------------ draining
    def drain(self, shard: int) -> List[ContextEvent]:
        """Receive every outstanding reply of one shard (recovering if needed)."""
        record = self._records[shard]
        events: List[ContextEvent] = []
        while record.pending_replies:
            try:
                reply = self._recv(record)
            except _WorkerFailure as failure:
                events.extend(self._recover(record, failure.reason))
                break
            events.extend(self._absorb_reply(record, reply))
        return events

    def _recv(self, record: _ShardRecord, timeout: Optional[float] = None):
        timeout = self.recv_timeout_s if timeout is None else timeout
        try:
            if not record.connection.poll(timeout):
                raise _WorkerFailure(
                    "hung" if record.worker.is_alive() else "dead"
                )
            return record.connection.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerFailure("dead") from exc

    def _absorb_reply(self, record: _ShardRecord, reply: tuple) -> List[ContextEvent]:
        """Apply one ("events", ...) reply: checkpoint, watermark, emit."""
        _tag, done_seq, events, checkpoint = reply
        record.pending_replies = max(0, record.pending_replies - 1)
        if checkpoint is not None:
            full, blob = checkpoint
            if full:
                record.chain = []
                self.n_full_checkpoints += 1
            else:
                self.n_delta_checkpoints += 1
            record.chain.append(blob)
            record.snapshot_seq = done_seq
            self.last_snapshot_nbytes = len(blob)
            self.checkpoint_bytes_total += len(blob)
            self.checkpoint_chain_peak_bytes = max(
                self.checkpoint_chain_peak_bytes,
                sum(len(held) for other in self._records for held in other.chain),
            )
            self._ring_prune(record)
        if done_seq > record.emitted_seq:
            record.emitted_seq = done_seq
            return events
        # a replayed (or duplicate) reply at/below the watermark: every event
        # in it was already delivered before the crash — drop, exactly-once
        return []

    # ------------------------------------------------------------ recovery
    def _recover(self, record: _ShardRecord, reason: str) -> List[ContextEvent]:
        """Respawn one shard worker and re-home its flows exactly.

        Restore the checkpoint chain, then replay the ring in sequence
        order; replies below the emitted watermark are dropped, so the
        consumer sees each event exactly once.  The last replayed tick
        always requests a fresh checkpoint so the ring re-prunes.
        """
        started = time.monotonic()
        worker, connection = record.worker, record.connection
        if worker is not None:
            if worker.is_alive():
                worker.kill()  # SIGKILL also ends SIGSTOPped workers
            self._reap(worker, timeout=10)
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
        record.pending_replies = 0
        record.held = None
        self._spawn(record)
        swap_blob = None
        for swap_seq, blob in self._swap_history:
            if swap_seq <= record.snapshot_seq:
                swap_blob = blob
        record.connection.send(
            ("restore", record.chain, record.snapshot_seq, swap_blob)
        )
        reply = self._recv_or_die(record, "restore handshake")
        if reply[0] != "restored":
            raise RuntimeError(
                f"shard {record.index}: unexpected restore reply {reply[0]!r}"
            )
        recovered_keys = reply[1]
        replayed: List[ContextEvent] = []
        ring = list(record.ring)
        for position, message in enumerate(ring):
            if position == len(ring) - 1 and not message[-1]:
                # the last replayed message always requests a checkpoint so
                # the ring re-prunes (want_snapshot is the final element of
                # both tick and swap messages)
                message = message[:-1] + (True,)
            record.connection.send(message)
            tick_reply = self._recv_or_die(record, f"replay of seq {message[1]}")
            record.pending_replies += 1  # _absorb_reply decrements
            replayed.extend(self._absorb_reply(record, tick_reply))
        latency = time.monotonic() - started
        self.n_restarts += 1
        self.replayed_ticks_total += len(ring)
        self.recovery_latencies_s.append(latency)
        events: List[ContextEvent] = [
            WorkerRestarted(
                shard=record.index,
                time=self._clock,
                reason=reason,
                n_flows=len(recovered_keys),
                replayed_ticks=len(ring),
                recovery_latency_s=latency,
            )
        ]
        events.extend(
            SessionRecovered(flow=key, time=self._clock, shard=record.index)
            for key in recovered_keys
        )
        events.extend(replayed)
        return events

    def _recv_or_die(self, record: _ShardRecord, stage: str):
        """Receive during recovery: a second failure here is unrecoverable."""
        try:
            return self._recv(record)
        except _WorkerFailure as failure:
            raise RuntimeError(
                f"shard {record.index}: replacement worker failed during "
                f"{stage} ({failure.reason})"
            ) from failure

    # ------------------------------------------------------------ closing
    def close_shard(self, shard: int) -> List[ContextEvent]:
        """Flush, drain and close one shard, recovering through failures."""
        record = self._records[shard]
        if record.closed:
            return []
        events: List[ContextEvent] = []
        if record.held is not None:
            # a delayed last tick: degrade to late delivery before closing
            held, record.held = record.held, None
            try:
                self._transmit(record, held, events)
            except _WorkerFailure as failure:
                events.extend(self._recover(record, failure.reason))
        events.extend(self.drain(shard))
        try:
            # a worker that died after its last reply fails the send itself
            self._send(record, ("close",))
            reply = self._recv(record)
        except _WorkerFailure as failure:
            # the worker died holding un-reported close state: recover it
            # (restore + replay), then close the replacement
            events.extend(self._recover(record, failure.reason))
            record.connection.send(("close",))
            reply = self._recv_or_die(record, "close after recovery")
        if reply[0] != "closed":
            raise RuntimeError(
                f"shard {shard}: unexpected close reply {reply[0]!r}"
            )
        events.extend(reply[1])
        if len(reply) > 2 and reply[2] is not None:
            self._analytics_payloads[shard] = reply[2]
        record.closed = True
        return events

    def close_all(self) -> List[ContextEvent]:
        """Close every shard in index order (deterministic event order)."""
        events: List[ContextEvent] = []
        for shard in range(self.n_shards):
            events.extend(self.close_shard(shard))
        return events

    def merged_analytics(self):
        """The shard workers' fleet rollups merged in shard order.

        Available after :meth:`close_all`; ``None`` when the shard engines
        ran without an attached aggregator.  Sketch merges are associative
        and commutative, so the shard order is a convention, not a
        correctness requirement — any merge tree yields byte-identical
        state.
        """
        if not self._analytics_payloads:
            return None
        from repro.analytics.fleet import FleetAggregator

        merged = FleetAggregator()
        for shard in sorted(self._analytics_payloads):
            merged.merge(
                FleetAggregator.from_snapshot(
                    _decode_snapshot(self._analytics_payloads[shard])
                )
            )
        return merged

    # ------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Supervision counters for monitoring and the recovery benchmark."""
        return {
            "n_restarts": self.n_restarts,
            "replayed_ticks_total": self.replayed_ticks_total,
            "recovery_latencies_s": list(self.recovery_latencies_s),
            "ring_peak_bytes": self.ring_peak_bytes,
            "last_snapshot_nbytes": self.last_snapshot_nbytes,
            "checkpoint_bytes_total": self.checkpoint_bytes_total,
            "checkpoint_chain_peak_bytes": self.checkpoint_chain_peak_bytes,
            "n_full_checkpoints": self.n_full_checkpoints,
            "n_delta_checkpoints": self.n_delta_checkpoints,
            "n_swaps": len(self._swap_history),
            "shm_ring_peak_bytes": self.shm_ring_peak_bytes,
            "shm_fallback_ticks": self.shm_fallback_ticks,
            "pipe_payload_bytes_total": self.pipe_payload_bytes_total,
        }
