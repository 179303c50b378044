"""Shared-memory column rings: the zero-pickle shard data plane (DESIGN.md §12).

A partitioned tick batch reaches its fork worker through a
:class:`ShmColumnRing`: one ``multiprocessing.shared_memory`` segment per
shard, laid out as a ring of fixed-capacity *slots* whose columns mirror
:class:`~repro.net.packet.PacketColumns` dtype-for-dtype (f8 timestamps,
f8 payload sizes, i1 directions, 4×i8 RTP fields).  Per tick the parent
gathers every routed row into the next free slot with one vectorised
``np.take`` per column and sends only a tiny control message — slot
index, row count, per-flow spans, presence flags — down the shard's
control pipe (the spans are the one row → flow map; no column repeats
them); the worker copies the used rows of the slot
into a local tick batch once and folds it whole, as the flow-sorted
:class:`~repro.net.flow.FlowTick` it already is.

Two columns cannot cross shared memory directly and are reconstructed
value-exactly worker-side:

* **addresses** (object dtype) — rebuilt from each span's
  :class:`~repro.net.flow.FlowKey` plus the direction column via
  :func:`~repro.net.flow.flow_addresses` (the exact inverse of the
  demux canonicalisation), one interned tuple per flow and direction;
* **absent optional columns** — presence flags ride the control message so
  an absent RTP/address column stays absent (``None``), keeping
  ``nbytes`` accounting and engine snapshots identical to the inline
  fallback's pickled pairs.

Slot reuse is sequenced by the §8 checkpoint protocol, not by acks: a slot
is free only once the tick that wrote it has been pruned from the replay
ring (``seq <= snapshot_seq``), so crash recovery can always replay intact
slot data.  Lifecycle: segments are named ``repro_ring_<pid>_…``, closed
and unlinked by the owning parent (``ShardSupervisor.stop`` → an ``atexit``
backstop); forked workers inherit the mapping copy-on-write-free
(``MAP_SHARED``) and never unlink — :meth:`ShmColumnRing.destroy` is a
no-op outside the creating process.
"""

from __future__ import annotations

import atexit
import os
import secrets
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.flow import FlowKey, FlowTick, flow_addresses
from repro.net.packet import UPSTREAM_CODE, PacketColumns

__all__ = ["SHM_NAME_PREFIX", "ShmColumnRing"]

#: Prefix of every ring segment name (``/dev/shm/<prefix><pid>_…`` on Linux);
#: the lifecycle tests grep for it to prove no segment outlives its owner.
SHM_NAME_PREFIX = "repro_ring_"

#: Always-present PacketColumns columns carried in the ring, with the exact
#: dtypes :class:`PacketColumns.__post_init__` normalises to.
FIXED_COLUMNS = (
    ("timestamps", np.dtype(np.float64)),
    ("payload_sizes", np.dtype(np.float64)),
    ("directions", np.dtype(np.int8)),
)

#: The four optional RTP header columns (int64, ``RTP_NONE`` sentinel).
RTP_COLUMNS = (
    ("rtp_payload_type", np.dtype(np.int64)),
    ("rtp_ssrc", np.dtype(np.int64)),
    ("rtp_sequence", np.dtype(np.int64)),
    ("rtp_timestamp", np.dtype(np.int64)),
)

# rings created by this process and not yet destroyed; the atexit hook is a
# backstop for parents that drop a supervisor without calling stop()
_LIVE_RINGS: List["ShmColumnRing"] = []


def _cleanup_live_rings() -> None:
    for ring in list(_LIVE_RINGS):
        ring.destroy()


atexit.register(_cleanup_live_rings)


class ShmColumnRing:
    """One shard's ring of PacketColumns slots in a shared-memory segment.

    Parameters
    ----------
    n_slots:
        Slot count.  The supervisor sizes it to cover every tick that can
        be simultaneously un-checkpointed (``snapshot_every_ticks`` plus
        in-flight margin); an undersized ring degrades to the inline-pickle
        fallback, never to corruption.
    slot_rows:
        Row capacity of one slot; a tick larger than this falls back to
        inline pickling for that tick only.
    shard:
        Shard index, embedded in the segment name for diagnosability.

    The creating process owns the segment: only it may :meth:`write_slot`
    and only it unlinks (:meth:`destroy`).  Forked workers inherit the
    mapping and use :meth:`read_slot`.
    """

    def __init__(self, n_slots: int, slot_rows: int, shard: int = 0) -> None:
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if slot_rows < 1:
            raise ValueError(f"slot_rows must be >= 1, got {slot_rows}")
        self.n_slots = int(n_slots)
        self.slot_rows = int(slot_rows)
        self.shard = int(shard)
        self._owner_pid = os.getpid()
        self._destroyed = False
        spec = (*FIXED_COLUMNS, *RTP_COLUMNS)
        self.bytes_per_row = int(sum(dtype.itemsize for _name, dtype in spec))
        layout = []
        offset = 0
        for name, dtype in spec:
            # 64-byte-align every column block so each (n_slots, slot_rows)
            # array starts on a cache line whatever the preceding dtypes
            offset = (offset + 63) & ~63
            layout.append((name, dtype, offset))
            offset += self.n_slots * self.slot_rows * dtype.itemsize
        self._shm = shared_memory.SharedMemory(
            create=True,
            name=f"{SHM_NAME_PREFIX}{os.getpid()}_{self.shard}_{secrets.token_hex(3)}",
            size=offset,
        )
        self.name = self._shm.name
        self._columns: Dict[str, np.ndarray] = {
            name: np.ndarray(
                (self.n_slots, self.slot_rows),
                dtype=dtype,
                buffer=self._shm.buf,
                offset=off,
            )
            for name, dtype, off in layout
        }
        _LIVE_RINGS.append(self)

    # ------------------------------------------------------------ accounting
    @property
    def total_bytes(self) -> int:
        """Size of the backing shared-memory segment in bytes."""
        return self._shm.size

    def slot_nbytes(self, n_rows: int) -> int:
        """Ring bytes pinned by a slot holding ``n_rows`` used rows."""
        return int(n_rows) * self.bytes_per_row

    # ------------------------------------------------------------ parent side
    def write_slot(
        self,
        slot: int,
        batch: PacketColumns,
        index_pairs: Sequence[Tuple[FlowKey, np.ndarray]],
    ) -> Tuple[int, List[Tuple[FlowKey, int, int]], Tuple[bool, ...]]:
        """Gather one tick's routed rows into a slot (owner process only).

        ``index_pairs`` is this shard's partition — ``(key, row_indices)``
        in flow order, indices into ``batch`` — as produced by
        :meth:`~repro.net.flow.FlowDemux.split_indices`.  Each present
        column is written with a single vectorised ``np.take`` into the
        slot's row window; absent optional columns write nothing and are
        flagged absent instead.

        Returns ``(n_rows, spans, flags)`` — the control-message fields:
        ``spans`` is ``(key, start, stop)`` per flow over the slot's rows
        (flow order preserved), ``flags`` are the
        :meth:`PacketColumns.column_presence` bits of ``batch``.

        Raises :class:`ValueError` when the tick exceeds ``slot_rows`` (the
        supervisor checks first and falls back to inline pickling).
        """
        rows_per_flow = [rows for _key, rows in index_pairs]
        gather = (
            rows_per_flow[0]
            if len(rows_per_flow) == 1
            else np.concatenate(rows_per_flow)
        )
        n = int(gather.size)
        if n > self.slot_rows:
            raise ValueError(
                f"tick of {n} rows exceeds slot capacity {self.slot_rows}"
            )
        spans: List[Tuple[FlowKey, int, int]] = []
        start = 0
        for key, rows in index_pairs:
            stop = start + int(rows.size)
            spans.append((key, start, stop))
            start = stop
        for name, dtype in FIXED_COLUMNS:
            source = getattr(batch, name).astype(dtype, copy=False)
            np.take(source, gather, out=self._columns[name][slot, :n])
        flags = batch.column_presence()
        for (name, dtype), present in zip(RTP_COLUMNS, flags):
            if present:
                source = getattr(batch, name).astype(dtype, copy=False)
                np.take(source, gather, out=self._columns[name][slot, :n])
        return n, spans, flags

    # ------------------------------------------------------------ worker side
    def read_slot(
        self,
        slot: int,
        n_rows: int,
        spans: Sequence[Tuple[FlowKey, int, int]],
        flags: Tuple[bool, ...],
    ) -> FlowTick:
        """Decode a slot into the flow-sorted tick it was written from.

        Copies the used rows of each present column out of the slot exactly
        once — the decoded tick must not alias the reusable slot — and hands
        it over whole, with the spans as bounds: :meth:`write_slot` laid the
        rows out flow by flow, which is the shape
        :meth:`StreamingEngine.ingest_tick` folds.  Addresses are rebuilt
        from span keys + directions (:func:`~repro.net.flow.flow_addresses`),
        one interned tuple per flow and direction, exactly like
        generator/PCAP batches.

        Span for span the result is value-identical to the ``(key,
        batch.take(rows))`` pairs the inline fallback pickles.
        """
        n = int(n_rows)
        local: Dict[str, Optional[np.ndarray]] = {}
        for name, _dtype in FIXED_COLUMNS:
            local[name] = np.array(self._columns[name][slot, :n])
        for (name, _dtype), present in zip(RTP_COLUMNS, flags):
            local[name] = (
                np.array(self._columns[name][slot, :n]) if present else None
            )
        bounds = np.zeros(len(spans) + 1, dtype=np.intp)
        bounds[1:] = [stop for _key, _start, stop in spans]
        addresses: Optional[np.ndarray] = None
        if flags[4]:
            # one (downstream, upstream) tuple pair per span, picked per row
            # by span number and direction code
            table = np.empty(2 * len(spans), dtype=object)
            for index, (key, _start, _stop) in enumerate(spans):
                upstream, downstream = flow_addresses(key)
                table[2 * index] = downstream
                table[2 * index + 1] = upstream
            span_of_row = np.repeat(np.arange(len(spans)), np.diff(bounds))
            addresses = table[
                2 * span_of_row + (local["directions"] == UPSTREAM_CODE)
            ]
        columns = PacketColumns(
            timestamps=local["timestamps"],
            payload_sizes=local["payload_sizes"],
            directions=local["directions"],
            rtp_payload_type=local["rtp_payload_type"],
            rtp_ssrc=local["rtp_ssrc"],
            rtp_sequence=local["rtp_sequence"],
            rtp_timestamp=local["rtp_timestamp"],
            addresses=addresses,
        )
        return FlowTick([key for key, _start, _stop in spans], columns, bounds)

    # ------------------------------------------------------------ lifecycle
    def destroy(self) -> None:
        """Close and unlink the segment (idempotent; owner process only).

        Forked workers inherit ring objects copy-on-write; their copies
        must never unlink a segment the parent still serves, so outside
        the creating process this only forgets the local reference.
        """
        if self._destroyed:
            return
        self._destroyed = True
        try:
            _LIVE_RINGS.remove(self)
        except ValueError:
            pass
        if os.getpid() != self._owner_pid:
            return
        # drop the numpy views so the mmap has no exported buffers left
        self._columns = {}
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a slot view; unlink anyway
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
