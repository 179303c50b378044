"""Sharded execution: partition sessions across worker processes.

Sessions are embarrassingly parallel — every pipeline stage is per-session
once flows are demultiplexed — so the runtime scales across cores by
partitioning *sessions*, not stages:

* **corpora** are not sharded: ``pipeline.process_many`` runs them
  in-process (a forked pool never beat one process), and
  :func:`~repro.analytics.fleet.fold_corpus` folds their rollups;
* **feed sharding** (:meth:`ShardedEngine.run_feed`) — the parent demuxes
  each batch once and routes every flow to a shard by a deterministic key
  hash; each shard runs its own
  :class:`~repro.runtime.engine.StreamingEngine` over its subset of flows.
  With the ``"fork"`` backend the shards are worker processes fed through
  shared-memory column rings (control messages over pipes, DESIGN.md §12)
  with a **double-buffered** protocol: tick ``N+1`` is partitioned
  while the workers still process tick ``N`` (each worker's ``N`` results
  drain immediately before its ``N+1`` send), hiding the parent's demux
  latency behind the workers' compute; the ``"serial"`` backend runs the
  same partitioning in-process, which is the deterministic reference the
  tests pin against.

Per-session results are independent of the partitioning, so sharded output
equals single-process output exactly (reports bit-identical, events
identical per flow; only inter-flow event interleaving differs).

The fork backend is supervised
(:class:`~repro.runtime.supervisor.ShardSupervisor`): dead or hung workers
are detected under a recv deadline, respawned, and re-homed exactly from
periodic engine checkpoints plus a bounded replay ring — close reports stay
bit-identical to an uninterrupted run, and recovery is accounted by typed
``WorkerRestarted`` / ``SessionRecovered`` events (DESIGN.md §8).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from dataclasses import replace as dataclasses_replace
from pathlib import Path
from typing import Union

from repro.core.pipeline import ContextClassificationPipeline
from repro.net.flow import FlowDemux, FlowKey, FlowTick
from repro.net.packet import PacketColumns
from repro.runtime.engine import OverloadPolicy, StreamingEngine, _check_swap_geometry
from repro.runtime.events import ContextEvent
from repro.runtime.faults import FaultPlan, apply_feed_faults
from repro.runtime.state import SESSION_MODES, FlowContext
from repro.runtime.supervisor import ShardSupervisor

import numpy as np

__all__ = ["ShardedEngine", "default_worker_count"]


def default_worker_count() -> int:
    """Worker count matched to the cores this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


def shard_of(key: FlowKey, n_shards: int) -> int:
    """Deterministic shard index of a flow key (stable across processes).

    Python's built-in ``hash`` of strings is salted per process, so the
    assignment uses CRC32 over the canonical endpoint string instead.
    """
    endpoint = (
        f"{key.client_ip}:{key.client_port}>"
        f"{key.server_ip}:{key.server_port}/{key.protocol}"
    )
    return zlib.crc32(endpoint.encode()) % n_shards


class ShardedEngine:
    """Multi-core front end over a fitted pipeline.

    Parameters
    ----------
    pipeline:
        A fitted :class:`ContextClassificationPipeline`.
    n_workers:
        Shard count; defaults to the usable core count
        (:func:`default_worker_count`).
    backend:
        ``"fork"`` runs feed shards as forked worker processes; ``"serial"``
        runs the identical partitioning in-process (reference/fallback);
        ``"auto"`` picks ``"fork"`` where available and useful.
    idle_timeout_s / latency_ms / session_mode / qoe_interval_s / overload:
        Forwarded to every shard's :class:`StreamingEngine`.
    snapshot_every_ticks:
        Fork backend: each worker checkpoints its engine every this many
        feed ticks; the parent's replay ring holds at most this many
        un-checkpointed ticks per shard (plus the in-flight one).  Smaller
        values shrink the ring and speed replay; checkpoints are incremental
        (DESIGN.md §8), so the extra work is the snapshot's structure, not
        the sessions' accumulated rows.
    recv_timeout_s:
        Fork backend: per-reply deadline after which an unresponsive worker
        is declared hung and recovered.
    ring_slots / ring_slot_rows:
        Fork backend: each shard's tick rows reach its worker through a
        shared-memory column ring, only control messages cross the pipe
        (DESIGN.md §12).  Slots per shard ring (default
        ``snapshot_every_ticks + 2``, covering every tick that can be
        un-checkpointed at once) and rows per slot (a larger tick falls
        back to inline pickling for that tick, counted in
        ``last_feed_stats["shm_fallback_ticks"]``).
    analytics:
        Attach a :class:`~repro.analytics.fleet.FleetAggregator` to every
        shard engine; after a feed the merged fleet
        rollups land on :attr:`analytics`.  Shard-local aggregator state
        rides the checkpoint protocol, so the merged rollups are
        bit-identical to a single-process run even through worker crashes.
    """

    def __init__(
        self,
        pipeline: ContextClassificationPipeline,
        n_workers: Optional[int] = None,
        backend: str = "auto",
        idle_timeout_s: Optional[float] = None,
        latency_ms: Optional[float] = None,
        session_mode: str = "bounded",
        qoe_interval_s: float = 10.0,
        overload: Optional[OverloadPolicy] = None,
        snapshot_every_ticks: int = 16,
        recv_timeout_s: float = 30.0,
        analytics: bool = False,
        ring_slots: Optional[int] = None,
        ring_slot_rows: int = 65536,
    ) -> None:
        if backend not in ("auto", "fork", "serial"):
            raise ValueError(
                f"backend must be 'auto', 'fork' or 'serial', got {backend!r}"
            )
        if session_mode not in SESSION_MODES:
            # fail fast here: deferring the check to the shard engines would
            # kill a forked worker and surface only as an EOFError upstream
            raise ValueError(
                f"session_mode must be one of {SESSION_MODES}, got {session_mode!r}"
            )
        pipeline._require_fitted()
        self.pipeline = pipeline
        self.n_workers = default_worker_count() if n_workers is None else n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        fork_available = "fork" in mp.get_all_start_methods()
        if backend == "fork" and not fork_available:
            raise ValueError("the 'fork' start method is unavailable on this platform")
        if backend == "auto":
            backend = "fork" if fork_available and self.n_workers > 1 else "serial"
        self.backend = backend
        self.idle_timeout_s = idle_timeout_s
        self.latency_ms = latency_ms
        self.session_mode = session_mode
        self.qoe_interval_s = qoe_interval_s
        self.overload = overload
        self.snapshot_every_ticks = snapshot_every_ticks
        self.recv_timeout_s = recv_timeout_s
        self.ring_slots = ring_slots
        self.ring_slot_rows = ring_slot_rows
        self.analytics_enabled = bool(analytics)
        #: merged fleet rollups of the most recent feed
        #: (``None`` until a run completes with ``analytics=True``)
        self.analytics = None
        self._supervisor: Optional[ShardSupervisor] = None
        self._pending_swap: Optional[ContextClassificationPipeline] = None
        #: supervision counters of the most recent fork-backend feed
        #: (restarts, replayed ticks, recovery latencies, ring peak bytes)
        self.last_feed_stats: Optional[dict] = None

    def _engine_kwargs(self) -> dict:
        return {
            "idle_timeout_s": self.idle_timeout_s,
            "latency_ms": self.latency_ms,
            "session_mode": self.session_mode,
            "qoe_interval_s": self.qoe_interval_s,
            "overload": self.overload,
            "analytics": self.analytics_enabled,
        }

    # ------------------------------------------------------------ live feeds
    def run_feed(
        self,
        feed: Iterable[PacketColumns],
        close_at_end: bool = True,
        fault_plan: Optional[FaultPlan] = None,
    ) -> Iterator[ContextEvent]:
        """Drive a live feed through flow-hash-partitioned shard engines.

        Yields every shard's events tick by tick (shard order within a
        tick, so the stream is deterministic for a deterministic feed).
        Each flow lives on exactly one shard, so its event sequence and
        final report equal the single-process engine's.

        ``fault_plan`` injects seeded failures: its *feed* faults (batch
        truncation, RTP corruption) are applied on both backends — so a
        serial run is the exact reference for a faulted fork run — while
        its *transport/process* faults (kill, stall, duplicate, delay)
        only apply where they mean something, the fork backend.
        """
        contexts: Dict[FlowKey, FlowContext] = dict(
            getattr(feed, "flow_contexts", None) or {}
        )
        if fault_plan is not None and fault_plan.has_feed_faults:
            feed = apply_feed_faults(feed, fault_plan)
        if self.backend == "serial" or self.n_workers <= 1:
            yield from self._run_feed_serial(feed, contexts, close_at_end)
            return
        yield from self._run_feed_fork(feed, contexts, close_at_end, fault_plan)

    def request_swap(
        self, pipeline: Union[str, Path, ContextClassificationPipeline]
    ) -> ContextClassificationPipeline:
        """Request a zero-downtime model swap of a running feed.

        ``pipeline`` is a fitted pipeline or a
        :func:`~repro.runtime.persistence.save_pipeline` directory (loaded
        here, in the parent — workers receive the fitted object).  The swap
        is applied by :meth:`run_feed` at the next batch boundary,
        **sequenced so every shard cuts over on the same tick** (fork
        backend: one ``swap_all`` control message through the supervisor;
        serial backend: every in-process engine swaps between the same two
        batches).  Each shard emits one
        :class:`~repro.runtime.events.ModelSwapped` event into the feed's
        event stream; flow, session and reducer state is untouched and an
        identity swap leaves every report bit-identical.

        Fold-geometry mismatches (title window, slot duration, EMA weight)
        raise :class:`ValueError` here, before anything reaches a worker.
        A second request before the first is applied replaces it (last
        request wins).  Returns the resolved replacement pipeline.
        """
        if not isinstance(pipeline, ContextClassificationPipeline):
            from repro.runtime.persistence import load_pipeline

            pipeline = load_pipeline(pipeline)
        pipeline._require_fitted()
        _check_swap_geometry(self.pipeline, pipeline)
        self._pending_swap = pipeline
        return pipeline

    def close(self) -> None:
        """Reap any workers of an in-progress fork feed (idempotent).

        ``run_feed`` reaps its own workers when the generator finishes or
        is closed; this is the belt-and-braces path for callers unwinding
        after an exception without closing the generator.
        """
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.stop()

    def _partition_indices(
        self, demux: FlowDemux, batch: PacketColumns
    ) -> Tuple[List[List[Tuple[FlowKey, np.ndarray]]], float]:
        """Route one batch's flows to shards as ``(key, row_indices)`` lists.

        Nothing is materialised here: the fork loop hands the index lists
        plus the source batch to the supervisor, which gathers the rows
        straight into a shared-memory slot (or pickles them inline when
        none fits) — see :meth:`ShardSupervisor.send_tick_indexed`.
        """
        index_pairs = demux.split_indices(batch)
        shards: List[List[Tuple[FlowKey, np.ndarray]]] = [
            [] for _ in range(self.n_workers)
        ]
        for key, rows in index_pairs:
            shards[shard_of(key, self.n_workers)].append((key, rows))
        clock = float(batch.timestamps.max()) if len(batch) else float("-inf")
        return shards, clock

    def _run_feed_serial(self, feed, contexts, close_at_end):
        engines = [
            StreamingEngine(self.pipeline, **self._engine_kwargs())
            for _ in range(self.n_workers)
        ]
        for engine in engines:
            for key, context in contexts.items():
                engine.set_flow_context(key, context)
        demux = FlowDemux()
        clock = float("-inf")

        def apply_pending_swap():
            swap, self._pending_swap = self._pending_swap, None
            for shard, engine in enumerate(engines):
                yield dataclasses_replace(engine.swap_pipeline(swap), shard=shard)
            self.pipeline = swap

        for batch in feed:
            if self._pending_swap is not None:
                yield from apply_pending_swap()
            shards, batch_clock = self._partition_indices(demux, batch)
            clock = max(clock, batch_clock)
            for engine, index_pairs in zip(engines, shards):
                yield from engine.ingest_tick(
                    FlowTick.gather(batch, index_pairs), clock
                )
        if self._pending_swap is not None:
            # requested after the last batch: cut over before the close
            # reports so the new model classifies the final cascades
            yield from apply_pending_swap()
        if close_at_end:
            for engine in engines:
                yield from engine.close_all()
        if self.analytics_enabled:
            from repro.analytics.fleet import FleetAggregator

            merged = FleetAggregator()
            for engine in engines:
                if engine.analytics is not None:
                    merged.merge(engine.analytics)
            self.analytics = merged

    def _run_feed_fork(self, feed, contexts, close_at_end, fault_plan):
        supervisor = ShardSupervisor(
            self.pipeline,
            n_shards=self.n_workers,
            engine_kwargs=self._engine_kwargs(),
            contexts=contexts,
            snapshot_every_ticks=self.snapshot_every_ticks,
            recv_timeout_s=self.recv_timeout_s,
            fault_plan=fault_plan,
            ring_slots=self.ring_slots,
            ring_slot_rows=self.ring_slot_rows,
        )
        self._supervisor = supervisor
        try:
            supervisor.start()
            demux = FlowDemux()
            # double-buffered protocol: tick N+1 is partitioned while the
            # workers still chew tick N, hiding the parent's demux latency.
            # Per worker the parent drains tick N's results immediately
            # before sending tick N+1, so a worker never holds an unsent
            # result while the parent writes to it — the send/send deadlock
            # of a fire-and-forget pipeline cannot occur, whatever the
            # payload sizes, while at most one tick stays in flight.
            in_flight = False
            for batch in feed:
                if self._pending_swap is not None:
                    swap, self._pending_swap = self._pending_swap, None
                    # one sequenced control message per shard: every worker
                    # applies the swap at the same point of its fold order
                    yield from supervisor.swap_all(swap)
                    self.pipeline = swap
                shards, batch_clock = self._partition_indices(demux, batch)
                supervisor.begin_tick(batch_clock)
                for shard, index_pairs in enumerate(shards):
                    if in_flight:
                        yield from supervisor.drain(shard)
                    yield from supervisor.send_tick_indexed(
                        shard, batch, index_pairs
                    )
                in_flight = True
            if in_flight:
                for shard in range(self.n_workers):
                    yield from supervisor.drain(shard)
            if self._pending_swap is not None:
                swap, self._pending_swap = self._pending_swap, None
                yield from supervisor.swap_all(swap)
                self.pipeline = swap
                for shard in range(self.n_workers):
                    yield from supervisor.drain(shard)
            if close_at_end:
                yield from supervisor.close_all()
            if self.analytics_enabled:
                self.analytics = supervisor.merged_analytics()
        finally:
            self.last_feed_stats = supervisor.stats()
            supervisor.stop()
            if self._supervisor is supervisor:
                self._supervisor = None
