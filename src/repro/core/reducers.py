"""Incremental stage reducers: one bounded-memory fold for the Fig. 6 cascade.

The paper's cascade is inherently incremental — a 5 s launch window, per-slot
stage classification with a carried EMA, confidence-gated pattern inference
over transition prefixes, and windowed QoE measurement.  This module makes
the *code* incremental too: every stage declares the bounded state it folds
packet batches into, plus the finalisation view that yields exactly the
offline report.  Offline ``process_many()`` (``process()`` is its
one-element call), the streaming runtime's per-flow session states and the
sharded workers are all drivers over the same four reducers (DESIGN.md §7):

* :class:`LaunchWindowReducer` — keeps only the packets of the title window
  (``timestamp <= origin + N``); the window stream it assembles produces
  launch features identical to extracting them from the full session,
  because the packet-group labeler never reads past the window;
* :class:`SlotStageReducer` — integer-exact per-slot payload/packet counters
  per direction (one pair of ``bincount`` adds per tick) plus the causal
  :class:`~repro.core.volumetric.OnlineVolumetricTracker` EMA for the
  provisional per-slot stage gate;
* the **transition prefix** state
  (:class:`~repro.core.transition.PrefixTransitionTracker`, carried by the
  runtime's :class:`~repro.runtime.state.SessionState`) — nine cumulative
  counts feeding the online pattern gate;
* :class:`QoEIntervalReducer` — a compact per-interval store of only the
  QoE-relevant downstream columns (timestamps + RTP sequence/timestamp),
  consolidated and time-sorted per sealed interval.  Sealed intervals back
  the provisional per-window ``QoEInterval`` events; their concatenation
  reproduces the downstream views of the offline-sorted stream exactly, so
  the close-time QoE metrics stay bit-identical to offline
  ``estimate_arrays()`` over those views;
* :class:`ApproxQoEIntervalReducer` — the **approximate** QoE tier
  (``qoe_mode="approx"``): no downstream columns at all.  Packets fold into
  fixed-size aggregates — streaming count/max of inter-frame gaps plus
  a deterministic reservoir sample for the p95 lag estimate, strict record
  highs of the RTP timestamp for the frame count (the last-seen RTP
  timestamp carried across windows doubles as freeze detection), and
  unwrapped sequence-range + counting-set arithmetic for loss — so
  per-session state is O(intervals) with a hard constant per interval,
  independent of the packet rate.  Close metrics come from
  :meth:`ObjectiveQoEEstimator.estimate_approx` on session-level aggregates
  only, which is what makes offline and streaming approx reports identical
  across batch sizes and within-batch shuffles (the fold sorts each batch;
  feeds are time-ordered across batches).

:class:`SessionReducerCascade` bundles the reducers with the shared session
aggregates (origin, last timestamp, per-direction byte totals, RTP flag).
Its one fold body reads pre-reduced *facts* (:class:`TickFacts`): the live
path reduces a whole flow-sorted tick to per-flow facts at once and folds
each flow on scalars (:meth:`SessionReducerCascade.fold`), and
``absorb_stream(stream)`` is the same call on a whole sorted session read
from the stream's cached per-direction views; rows are touched only where
rows are needed.
In the default **bounded** mode the cascade holds no packet history: state
is O(slots) counters + O(launch-window packets) + the three downstream QoE
columns (~24 bytes per downstream packet instead of the full columnar
history).  With ``keep_history=True`` (the runtime's ``"full"`` mode) the
raw batches are additionally retained, which allows an exact refold when a
packet older than the current session origin arrives across batches.

Bit-identical finalisation relies on two properties of the data:

* payload sizes are integral (true for generated traffic and real
  captures), so byte sums are exact under any accumulation order;
* stable time sorting commutes with direction selection and with interval
  bucketing, so the reducer's consolidated downstream columns equal the
  offline stream's per-direction views element for element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.qoe import BURST_GAP_SECONDS, FRAME_GAP_SECONDS
from repro.core.volumetric import OnlineVolumetricTracker
from repro.net.packet import (
    DOWNSTREAM_CODE,
    RTP_NONE,
    Direction,
    PacketColumns,
    PacketStream,
)

__all__ = [
    "ApproxQoEIntervalReducer",
    "LaunchWindowReducer",
    "QOE_MODES",
    "QoEIntervalReducer",
    "SealedApproxQoEInterval",
    "SealedQoEInterval",
    "SessionReducerCascade",
    "SlotStageReducer",
    "TickFacts",
    "raw_slot_matrix",
]

#: Valid values of ``SessionReducerCascade(qoe_mode=...)``.
QOE_MODES = ("exact", "approx")

_EMPTY_FLOAT = np.zeros(0, dtype=float)
_EMPTY_INT = np.zeros(0, dtype=np.int64)


class FrozenSnapshot(dict):
    """A snapshot its owner returns again, by identity, until the state it
    captures changes — a checkpoint ships it once and never walks it again
    (DESIGN.md §8)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# launch window (title stage)
# ---------------------------------------------------------------------------
class LaunchWindowReducer:
    """Bounded buffer of the title window's packets.

    Keeps every row with ``timestamp <= origin + window_seconds`` (both
    directions: the window origin is the session's first packet, which may
    be upstream).  The assembled stream yields launch features identical to
    extracting them from the whole session because
    :meth:`PacketGroupLabeler.label_windows` only reads ``[origin, origin +
    window)`` of the downstream direction and normalises against the maximum
    payload observed *within* the window.

    Late window packets (arriving in a later batch, still inside the window)
    are absorbed like any others — which is what lets the runtime
    re-classify the title when the window fills retroactively.
    """

    __slots__ = ("window_seconds", "_chunks", "n_rows", "_frozen")

    def __init__(self, window_seconds: float) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        self._chunks: List[PacketColumns] = []
        self.n_rows = 0
        self._frozen: Optional[FrozenSnapshot] = None

    def absorb(self, columns: PacketColumns, origin: float) -> int:
        """Keep the batch's window rows; return how many were kept."""
        timestamps = columns.timestamps
        upper = origin + self.window_seconds
        if timestamps.size < 2 or bool(np.all(timestamps[1:] >= timestamps[:-1])):
            # sorted batch: the window rows are a prefix — zero-copy slice
            if float(timestamps[0]) > upper:
                return 0
            count = int(np.searchsorted(timestamps, upper, side="right"))
            kept = columns if count == len(columns) else columns.take(slice(0, count))
        else:
            mask = timestamps <= upper
            count = int(np.count_nonzero(mask))
            if not count:
                return 0
            kept = (
                columns
                if count == len(columns)
                else columns.take(np.flatnonzero(mask))
            )
        if count:
            # retained for the session's lifetime: a view would pin the whole
            # tick it was cut from, unaccounted by nbytes()
            self._chunks.append(kept.owned())
            self.n_rows += count
            self._frozen = None
        return count

    def stream(self) -> PacketStream:
        """The buffered window as a time-sorted stream."""
        if not self._chunks:
            return PacketStream()
        return PacketStream.from_columns(PacketColumns.concat(self._chunks))

    def nbytes(self) -> int:
        return sum(chunk.nbytes() for chunk in self._chunks)

    def snapshot(self) -> dict:
        # absorbed chunks are append-only and their arrays never mutate in
        # place, so a shallow list copy captures the buffer exactly — until the
        # next kept row (the window fills once)
        if self._frozen is None:
            self._frozen = FrozenSnapshot(
                window_seconds=self.window_seconds, chunks=list(self._chunks), n_rows=self.n_rows
            )
        return self._frozen

    def restore(self, snapshot: dict) -> None:
        self.window_seconds = snapshot["window_seconds"]
        self._chunks = list(snapshot["chunks"])
        self.n_rows = snapshot["n_rows"]
        self._frozen = None


# ---------------------------------------------------------------------------
# slot counters + provisional EMA (stage classification)
# ---------------------------------------------------------------------------
class SlotStageReducer:
    """Integer-exact per-slot volumetric counters plus the online EMA state.

    Columns of the counter matrix are (down payload bytes, down packets,
    up payload bytes, up packets) per ``I``-second slot.  A span inside one
    slot adds its four totals (:meth:`absorb_slot`); spans across a slot
    edge share one pair of ``bincount`` calls per tick
    (:meth:`TickFacts.flush` → :meth:`absorb_span`); :func:`raw_slot_matrix`
    is a whole stream folded as one such span, so the counts of the packets
    seen so far are its counts exactly, and :meth:`raw_matrix` converts them
    to its rates.
    The EMA tracker and slot ``cursor`` (the first slot the gate has not
    completed yet) feed the runtime's *provisional* stage gate (causal
    running-peak attributes, classified per completed slot).
    """

    __slots__ = ("slot_duration", "_raw", "_max_slot", "cursor", "_tracker")

    def __init__(self, slot_duration: float, alpha: float) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        self.slot_duration = slot_duration
        self._raw = np.zeros((64, 4))
        self._max_slot = -1
        self.cursor = 0
        self._tracker = OnlineVolumetricTracker(alpha=alpha)

    def _ensure_capacity(self, slot: int) -> None:
        if slot < self._raw.shape[0]:
            return
        grown = np.zeros((max(slot + 1, self._raw.shape[0] * 2), 4))
        grown[: self._raw.shape[0]] = self._raw
        self._raw = grown

    def reset_counts(self) -> None:
        """Zero the counters (exact refold after an origin shift).

        The EMA tracker and cursor are deliberately left untouched: the
        provisional timeline already emitted cannot be retracted, and the
        authoritative timeline is recomputed from the refolded counters at
        finalisation anyway.
        """
        self._raw = np.zeros((64, 4))
        self._max_slot = -1

    def absorb_span(self, first: int, last: int, cells: np.ndarray) -> None:
        """Add the counter rows of slots ``first .. last`` (one straddling span).

        ``cells`` is the span's share of the tick-wide bincount
        (:meth:`TickFacts.flush`); slots outside the span received no row.
        """
        self._ensure_capacity(last)
        if last > self._max_slot:
            self._max_slot = last
        self._raw[first : last + 1] += cells

    def absorb_slot(
        self,
        slot: int,
        down_bytes: float,
        down_packets: int,
        up_bytes: float,
        up_packets: int,
    ) -> None:
        """Fold a batch whose rows all fall into ``slot``, given its totals.

        Counter-identical to bucketing those rows one by one: ``bincount``
        would add the same four totals to this one row and zeros elsewhere
        (payload sizes are integral, so the caller's sums are exact in any
        order).
        """
        self._ensure_capacity(slot)
        self._max_slot = max(self._max_slot, slot)
        row = self._raw[slot]
        row[0] += down_bytes
        row[1] += down_packets
        row[2] += up_bytes
        row[3] += up_packets

    def advance(self, complete: int) -> Tuple[List[List[float]], int]:
        """Complete slots ``cursor .. complete - 1`` (provisional gate).

        Returns the causal (running-peak, EMA-carried) feature rows of the
        newly completed slots, as lists of four python floats, and the index
        of the first.  A flow completes a slot or two per call: the same
        IEEE operations in the same order as the array expressions of
        :meth:`raw_matrix` and the generator's relative / EMA transforms, no
        array per flow.
        """
        first = self.cursor
        if complete <= first:
            return [], first
        self._ensure_capacity(complete - 1)
        step, rates = self._tracker.step, self._rates
        rows = [step(rates(*counters)) for counters in self._raw[first:complete].tolist()]
        self.cursor = complete
        return rows, first

    def _rates(self, down_bytes, down_packets, up_bytes, up_packets) -> tuple:
        """Counters -> rate units (Mbps, pkt/s, Kbps, pkt/s).

        Works on four python floats (one slot) and on four columns alike.
        """
        interval = self.slot_duration
        return (
            down_bytes * 8 / interval / 1e6,  # down Mbps
            down_packets / interval,          # down pkt/s
            up_bytes * 8 / interval / 1e3,    # up Kbps
            up_packets / interval,            # up pkt/s
        )

    def raw_matrix(self, total_slots: int) -> np.ndarray:
        """The counters as per-slot rates (:func:`raw_slot_matrix`'s columns).

        ``total_slots`` is the slot count (``ceil(duration / I)``, at least
        1); any counter row past it (a packet exactly on the final slot
        boundary) is truncated.
        """
        n = max(1, total_slots)
        self._ensure_capacity(n - 1)
        return np.stack(self._rates(*self._raw[:n].T), axis=1)

    def nbytes(self) -> int:
        return self._raw.nbytes

    def snapshot(self) -> dict:
        # the counter matrix accumulates in place — copy at snapshot time
        return {
            "slot_duration": self.slot_duration,
            "raw": self._raw.copy(),
            "max_slot": self._max_slot,
            "cursor": self.cursor,
            "tracker": self._tracker.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        self.slot_duration = snapshot["slot_duration"]
        self._raw = snapshot["raw"].copy()
        self._max_slot = snapshot["max_slot"]
        self.cursor = snapshot["cursor"]
        self._tracker.restore(snapshot["tracker"])


# ---------------------------------------------------------------------------
# per-interval QoE stores (exact and approximate tiers)
# ---------------------------------------------------------------------------
class _IntervalSealer:
    """Interval bucketing and the seal watermark, shared by both QoE reducers.

    Holds the window width, the per-window stores keyed by interval index
    (``_stores``) and the watermark ``_sealed_upto``, the first index not yet
    sealed.  :meth:`_runs` stably sorts a batch and cuts it into one run per
    window; :meth:`advance` / :meth:`flush` move the watermark
    and hand each window's start, end and duration to the subclass's
    ``_sealed_view(index, start_s, end_s, duration_s, partial)``.  Every
    window seals exactly once: rows landing behind the watermark still fold
    (into the exact tier's close-time columns, into the approx tier's
    session aggregates), but the provisional event for that window is never
    re-emitted.
    """

    __slots__ = ("interval_seconds", "_stores", "_sealed_upto")

    def __init__(self, interval_seconds: float = 10.0) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.interval_seconds = interval_seconds
        self._stores: dict = {}
        self._sealed_upto = 0  # first interval index not yet sealed

    def _runs(self, origin: float, timestamps: np.ndarray, columns: tuple, by_time: bool) -> tuple:
        """A non-empty batch stably sorted and cut into per-window runs.

        ``by_time`` sorts the rows by timestamp; otherwise only by window
        index, which keeps every window's rows in arrival order.  Returns
        the sorted ``timestamps``, the ``columns`` in the same order
        (``None`` stays ``None``) and the ``(interval, start, end)`` row
        runs.  A batch already in order is returned as is, so runs slice it
        zero-copy.
        """
        indices = np.floor((timestamps - origin) / self.interval_seconds).astype(np.int64)
        np.maximum(indices, 0, out=indices)
        key = timestamps if by_time else indices
        if key.size > 1 and not bool(np.all(key[1:] >= key[:-1])):
            order = np.argsort(key, kind="stable")
            timestamps, indices = timestamps[order], indices[order]
            columns = tuple(None if column is None else column[order] for column in columns)
        edges = (np.flatnonzero(indices[1:] != indices[:-1]) + 1).tolist()
        starts = [0] + edges
        ends = edges + [int(timestamps.size)]
        runs = [(int(indices[start]), start, end) for start, end in zip(starts, ends)]
        return timestamps, columns, runs

    def _seal(self, index: int, origin: float, end_s: float, partial: bool):
        # index 0 starts at the origin directly: with the infinite-interval
        # sentinel (one window spanning the whole session) 0 * inf is NaN
        start = origin if index == 0 else origin + index * self.interval_seconds
        # floor at 1 ms: a close-flushed partial window whose last packet
        # sits exactly on the interval boundary has zero span, and rates
        # over a sub-millisecond window would be monitoring noise
        return self._sealed_view(index, start, end_s, max(end_s - start, 1e-3), partial)

    def advance(self, clock: float, origin: Optional[float]) -> list:
        """Seal every interval whose end the feed clock has passed."""
        if origin is None or not math.isfinite(clock):
            return []
        complete = math.floor((clock - origin) / self.interval_seconds)
        if complete <= self._sealed_upto:
            return []
        sealed = [
            self._seal(index, origin, origin + (index + 1) * self.interval_seconds, False)
            for index in range(self._sealed_upto, complete)
        ]
        self._sealed_upto = complete
        return sealed

    def flush(self, origin: Optional[float], last_ts: float) -> list:
        """Seal the trailing partial interval at close time (if any)."""
        if origin is None:
            return []
        k_last = max(0, int(np.floor((last_ts - origin) / self.interval_seconds)))
        if k_last < self._sealed_upto:
            return []
        sealed = []
        for index in range(self._sealed_upto, k_last + 1):
            partial = index == k_last
            end = last_ts if partial else origin + (index + 1) * self.interval_seconds
            sealed.append(self._seal(index, origin, end, partial))
        self._sealed_upto = k_last + 1
        return sealed

    def snapshot(self) -> dict:
        return {
            "interval_seconds": self.interval_seconds,
            "stores": {key: store.snapshot() for key, store in self._stores.items()},
            "sealed_upto": self._sealed_upto,
        }

    def restore(self, snapshot: dict) -> None:
        self.interval_seconds = snapshot["interval_seconds"]
        self._stores = {
            key: self._store_from_snapshot(key, state)
            for key, state in snapshot["stores"].items()
        }
        self._sealed_upto = snapshot["sealed_upto"]


def _concat_rtp(columns: list, sizes: list) -> Optional[np.ndarray]:
    """Concatenate optional RTP columns, absent ones as ``RTP_NONE`` runs.

    ``None`` when every column is absent; ``sizes`` gives each part's rows.
    """
    if all(column is None for column in columns):
        return None
    return np.concatenate(
        [
            np.full(size, RTP_NONE, dtype=np.int64) if column is None else column
            for column, size in zip(columns, sizes)
        ]
    )


def _rtp_values(column: Optional[np.ndarray]) -> np.ndarray:
    """The RTP values of an optional column (rows without RTP dropped).

    A column whose every value lies above the sentinel is returned itself,
    not copied: arrays here are never written in place (DESIGN.md §8).
    """
    if column is None:
        return _EMPTY_INT
    if column.size and column.min() > RTP_NONE:
        return column
    return column[column != RTP_NONE]


@dataclass(frozen=True)
class SealedQoEInterval:
    """One completed (or close-flushed) QoE measurement window."""

    index: int
    start_s: float
    end_s: float
    duration_s: float
    down_times: np.ndarray
    rtp_timestamps: np.ndarray
    rtp_sequences: np.ndarray
    payload_bytes: float
    n_packets: int
    partial: bool


class _IntervalStore:
    """Downstream (timestamp, rtp_seq, rtp_ts) columns of one interval."""

    __slots__ = ("chunks", "payload_bytes", "n_packets", "_ts", "_seq", "_rts", "_frozen")

    def __init__(self) -> None:
        self.chunks: List[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]] = []
        self.payload_bytes = 0.0
        self.n_packets = 0
        self._ts: Optional[np.ndarray] = None
        self._seq: Optional[np.ndarray] = None
        self._rts: Optional[np.ndarray] = None
        self._frozen: Optional[FrozenSnapshot] = None

    def append(
        self,
        timestamps: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_timestamps: Optional[np.ndarray],
        payload_sum: float,
    ) -> None:
        self.chunks.append((timestamps, sequences, rtp_timestamps))
        self.payload_bytes += payload_sum
        self.n_packets += int(timestamps.size)
        self._frozen = None

    def consolidate(self) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Merge pending chunks into one stably time-sorted column triple.

        Stable sorting the concatenation of an already-consolidated (sorted)
        prefix with later arrivals equals one stable sort over all arrivals
        in their original order, so late rows landing in a sealed interval
        still finalise exactly.
        """
        if self.chunks:
            parts = self.chunks
            if self._ts is not None:
                parts = [(self._ts, self._seq, self._rts)] + parts
            if len(parts) == 1:
                ts, seq, rts = parts[0]
            else:
                ts = np.concatenate([part[0] for part in parts])
                sizes = [part[0].size for part in parts]
                seq = _concat_rtp([part[1] for part in parts], sizes)
                rts = _concat_rtp([part[2] for part in parts], sizes)
            if ts.size > 1 and not bool(np.all(ts[1:] >= ts[:-1])):
                order = np.argsort(ts, kind="stable")
                ts = ts[order]
                seq = seq[order] if seq is not None else None
                rts = rts[order] if rts is not None else None
            self._ts, self._seq, self._rts = ts, seq, rts
            self.chunks = []
        if self._ts is None:
            return _EMPTY_FLOAT, None, None
        return self._ts, self._seq, self._rts

    def nbytes(self) -> int:
        total = 0
        for arrays in ([(self._ts, self._seq, self._rts)] + self.chunks):
            for column in arrays:
                if column is not None:
                    total += column.nbytes
        return total

    def snapshot(self) -> dict:
        # chunk arrays and consolidated columns are replaced, never mutated
        # in place, so shallow references capture the store exactly; without
        # pending chunks (sealed) it stays exact until the next append
        if self._frozen is not None:
            return self._frozen
        snapshot = {
            "chunks": list(self.chunks),
            "payload_bytes": self.payload_bytes,
            "n_packets": self.n_packets,
            "columns": (self._ts, self._seq, self._rts),
        }
        if not self.chunks:
            self._frozen = snapshot = FrozenSnapshot(snapshot)
        return snapshot

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "_IntervalStore":
        store = cls()
        store.chunks = list(snapshot["chunks"])
        store.payload_bytes = snapshot["payload_bytes"]
        store.n_packets = snapshot["n_packets"]
        store._ts, store._seq, store._rts = snapshot["columns"]
        return store


class QoEIntervalReducer(_IntervalSealer):
    """Per ``W``-second interval store of the QoE-relevant downstream columns.

    Each interval holds only the three columns the objective QoE estimator
    reads — downstream arrival timestamps, RTP sequence numbers and RTP
    timestamps — consolidated and stably time-sorted when the interval
    seals.  Sealed intervals drive the provisional :class:`QoEInterval`
    events; :meth:`final_columns` concatenates them (interval order equals
    global time order) into exactly the downstream views offline
    ``ObjectiveQoEEstimator.estimate`` reads from the sorted stream.
    """

    __slots__ = ()

    def absorb_arrays(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_times: Optional[np.ndarray],
        origin: float,
    ) -> None:
        """Bucket pre-selected downstream rows by interval index.

        The batch is stably sorted by window first (:meth:`_runs`; a batch
        whose windows do not interleave — offline full-session folds,
        time-sliced feed batches — as is), so each interval's rows are one
        contiguous run in arrival order, queued as a view.  Arrival order
        within a window is what keeps finalisation exact:
        :meth:`_IntervalStore.consolidate` stable-sorts every window by time,
        and the fold's one-window shortcut queues its rows the same way.
        """
        if not timestamps.size:
            return
        timestamps, (sizes, sequences, rtp_times), runs = self._runs(
            origin, timestamps, (sizes, sequences, rtp_times), by_time=False
        )
        for interval, start, end in runs:
            self.absorb_interval(
                interval,
                timestamps[start:end],
                sequences[start:end] if sequences is not None else None,
                rtp_times[start:end] if rtp_times is not None else None,
                float(sizes[start:end].sum()),
            )

    def absorb_interval(
        self,
        key: int,
        timestamps: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_times: Optional[np.ndarray],
        payload_sum: float,
    ) -> None:
        """Queue downstream rows that all fall into interval ``key``."""
        store = self._stores.get(key)
        if store is None:
            store = self._stores[key] = _IntervalStore()
        # late rows landing in an already-sealed interval simply queue as
        # pending chunks; consolidate() re-sorts them stably at finalise,
        # so the close-time columns stay exact (the already-emitted
        # provisional event for that window is not retracted)
        store.append(timestamps, sequences, rtp_times, payload_sum)

    # ------------------------------------------------------------ sealing
    def _sealed_view(
        self, index: int, start_s: float, end_s: float, duration_s: float, partial: bool
    ) -> SealedQoEInterval:
        store = self._stores.get(index, _NO_ROWS)
        ts, seq, rts = store.consolidate()
        return SealedQoEInterval(
            index=index,
            start_s=start_s,
            end_s=end_s,
            duration_s=duration_s,
            down_times=ts,
            rtp_timestamps=_rtp_values(rts),
            rtp_sequences=_rtp_values(seq),
            payload_bytes=store.payload_bytes,
            n_packets=store.n_packets,
            partial=partial,
        )

    # ------------------------------------------------------------ finalise
    def final_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All downstream (times, rtp_timestamps, rtp_sequences), time-sorted.

        Equals the offline stream's ``timestamps(DOWNSTREAM)`` /
        ``rtp_timestamps(DOWNSTREAM)`` / ``rtp_sequences(DOWNSTREAM)`` views
        exactly: each interval is stably sorted, intervals partition time in
        ascending order, and equal timestamps never straddle intervals.
        """
        if not self._stores:
            return _EMPTY_FLOAT, _EMPTY_INT, _EMPTY_INT
        triples = [self._stores[key].consolidate() for key in sorted(self._stores)]
        if len(triples) == 1:
            times, seq, rts = triples[0]
        else:
            times = np.concatenate([ts for ts, _, _ in triples])
            sizes = [ts.size for ts, _, _ in triples]
            seq = _concat_rtp([seq for _, seq, _ in triples], sizes)
            rts = _concat_rtp([rts for _, _, rts in triples], sizes)
        return times, _rtp_values(rts), _rtp_values(seq)

    def nbytes(self) -> int:
        return sum(store.nbytes() for store in self._stores.values())

    def _store_from_snapshot(self, key: int, state: dict) -> _IntervalStore:
        return _IntervalStore.from_snapshot(state)


#: The store an interval without rows reads as (never written to).
_NO_ROWS = _IntervalStore()


# ---------------------------------------------------------------------------
# approximate QoE tier: O(intervals) state, no packet columns
# ---------------------------------------------------------------------------
class _ReservoirSampler:
    """Deterministic algorithm-R reservoir over a stream of values.

    Every value past the fill phase consumes exactly one uniform draw from a
    fixed-seed generator, so the retained sample depends only on the value
    *sequence*, never on how the stream was chunked into batches — which is
    what keeps approx close reports pinned across feed batch sizes.
    """

    __slots__ = ("samples", "seen", "_rng")

    def __init__(self, capacity: int, seed: int) -> None:
        # initialised: snapshots copy the whole array, and checkpoints of
        # equal states must be equal bytes
        self.samples = np.zeros(capacity, dtype=float)
        self.seen = 0
        self._rng = np.random.default_rng(seed)

    def add(self, values: np.ndarray) -> None:
        if not values.size:
            return
        capacity = self.samples.size
        fill = min(max(capacity - self.seen, 0), int(values.size))
        if fill:
            self.samples[self.seen : self.seen + fill] = values[:fill]
        rest = values[fill:]
        if rest.size:
            # 1-based stream positions of the overflow values
            positions = np.arange(
                self.seen + fill + 1, self.seen + values.size + 1, dtype=float
            )
            draws = np.floor(self._rng.random(rest.size) * positions).astype(np.int64)
            hit = draws < capacity
            if hit.any():
                # sequential semantics: for duplicate slots the LAST value
                # wins; fancy assignment does not guarantee that, so dedupe
                slots, keep = np.unique(draws[hit][::-1], return_index=True)
                self.samples[slots] = rest[hit][::-1][keep]
        self.seen += int(values.size)

    def sample(self) -> np.ndarray:
        """The retained values (all of them while the stream fits)."""
        return self.samples[: min(self.seen, self.samples.size)]

    def nbytes(self) -> int:
        return self.samples.nbytes

    def snapshot(self) -> dict:
        # bit_generator.state round-trips the generator exactly, so the
        # restored sampler keeps the retained set pinned across batches
        return {
            "samples": self.samples.copy(),
            "seen": self.seen,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, snapshot: dict) -> None:
        self.samples = snapshot["samples"].copy()
        self.seen = snapshot["seen"]
        self._rng = np.random.default_rng(0)
        self._rng.bit_generator.state = snapshot["rng_state"]


@dataclass(frozen=True)
class SealedApproxQoEInterval:
    """One completed (or close-flushed) approximate measurement window.

    Carries fixed-size aggregates instead of packet columns; the engine
    turns them into provisional metrics via
    :meth:`ObjectiveQoEEstimator.estimate_approx`.  ``frozen`` flags a
    window that carried packets (and an RTP stream) without the RTP
    timestamp ever advancing past the previous window's last-seen value — a
    frozen image with the transport still flowing.

    ``candidate_gap_packets`` is the per-window candidate-gap ledger: the
    total size of the arrival-order sequence gaps (``0 < gap < 200``)
    *revealed* inside this window — each gap is attributed to the window of
    the arrival that exposed it, so a loss burst is localised to its sealing
    window instead of surfacing only in the session-wide lost count.  Unlike
    ``seq_lost`` (a delta of the session-wide counting-set estimate, which
    depends on when windows seal relative to the feed batches), the ledger
    is a pure function of the flow's sorted packet sequence — chunking- and
    batching-invariant, which is what lets the fleet tier fold it
    bit-stably.  A candidate later resolved by a reordered arrival is not
    retracted (provisional verdicts never are).
    """

    index: int
    start_s: float
    end_s: float
    duration_s: float
    n_packets: int
    payload_bytes: float
    n_rtp: int
    n_new_frames: int
    burst_gap_count: int
    gap_count: int
    gap_max_s: float
    gap_samples: np.ndarray
    seq_received: int
    seq_lost: int
    partial: bool
    frozen: bool
    candidate_gap_packets: int = 0


class _ApproxIntervalStore:
    """Fixed-size aggregates of one approximate measurement window."""

    __slots__ = (
        "n_packets",
        "payload_bytes",
        "n_rtp",
        "n_new_frames",
        "gap_count",
        "gap_max",
        "burst_gap_count",
        "reservoir",
        "seq_received",
        "candidate_gap_packets",
    )

    def __init__(self, index: int, capacity: int) -> None:
        self.n_packets = 0
        self.payload_bytes = 0.0
        self.n_rtp = 0
        self.n_new_frames = 0
        self.gap_count = 0
        self.gap_max = 0.0
        self.burst_gap_count = 0
        # seeded by the interval index: deterministic per window
        self.reservoir = _ReservoirSampler(capacity, seed=index)
        self.seq_received = 0
        self.candidate_gap_packets = 0

    def nbytes(self) -> int:
        return self.reservoir.nbytes()

    def snapshot(self) -> dict:
        return {
            name: self.reservoir.snapshot() if name == "reservoir" else getattr(self, name)
            for name in self.__slots__
        }

    @classmethod
    def from_snapshot(cls, index: int, capacity: int, snapshot: dict):
        store = cls(index, capacity)
        for name in cls.__slots__:
            if name == "reservoir":
                store.reservoir.restore(snapshot[name])
            elif name in snapshot:  # a field the snapshot predates keeps its initial value
                setattr(store, name, snapshot[name])
        return store


#: The store a window without rows reads as (never written to).
_NO_APPROX_ROWS = _ApproxIntervalStore(0, 0)


class ApproxQoEIntervalReducer(_IntervalSealer):
    """O(intervals) approximate QoE state: aggregates only, no columns.

    Per sealed ``W``-second interval the reducer keeps a
    :class:`_ApproxIntervalStore` — a hard constant of scalars plus a small
    reservoir, freed when the window seals — and per session a fixed set of
    aggregates the close-time
    :meth:`ObjectiveQoEEstimator.estimate_approx` reads.  Peak per-session
    state is therefore flat in the packet rate *and* bounded by the open
    (unsealed) windows rather than the session's lifetime (pinned by the
    memory benchmark's scaling probe), unlike the exact tier's ~24 B per
    downstream packet.

    **Error model** (each bound asserted by ``tests/test_approx_qoe.py``):

    * throughput and duration are exact (integral byte sums);
    * the inter-frame gap population (count, max — gaps above
      :data:`~repro.core.qoe.FRAME_GAP_SECONDS`) is exact whenever batches
      are time-ordered across arrivals (feeds are time-sliced; each batch
      is sorted on fold, so within-batch shuffling is invisible); the p95
      lag is exact while the session has at most ``session_reservoir``
      frame gaps and an unbiased fixed-seed sample estimate beyond that;
    * the frame count equals the distinct RTP-timestamp count whenever the
      RTP clock is non-decreasing in arrival order (record-high counting
      never overcounts);
    * loss runs the exact estimator's own reset-aware algorithm on two
      fixed 64 KiB counting sets: arrival-order sequence gaps with
      ``0 < g < 200`` mark their skipped values in a ``skipped`` set, every
      observed value marks a ``seen`` set, and close-time lost is
      ``popcount(skipped & ~seen)``.  This equals the exact count whenever
      the session's sequence numbers span at most one 16-bit wrap (no
      aliasing) and no value is skipped-and-never-seen *twice* (the exact
      path counts such values once per candidate gap, a set once).

    The one structural approximation shared with bounded mode: a packet
    older than the carried last arrival (cross-batch reordering) produces a
    negative gap, which simply drops out of the frame-gap population.
    """

    #: Reservoir capacity per sealed interval (provisional p95).
    interval_reservoir = 64
    #: Session-level reservoir capacity backing the close-time p95.
    session_reservoir = 4096

    __slots__ = (
        "_last_down_ts",
        "_frame_max_rts",
        "_n_frames",
        "_n_rtp",
        "_n_down",
        "_gap_count",
        "_gap_max",
        "_burst_gap_count",
        "_gap_reservoir",
        "_seq_received",
        "_seq_last_raw",
        "_seen",
        "_skipped",
        "_lost_reported",
    )

    #: Arrival-order sequence gaps at or above this are stream resets, not
    #: loss bursts — the same cutoff as the exact estimator.
    _RESET_GAP = 200

    def __init__(self, interval_seconds: float = 10.0) -> None:
        super().__init__(interval_seconds)
        self._last_down_ts = float("-inf")
        self._frame_max_rts = -1
        self._n_frames = 0
        self._n_rtp = 0
        self._n_down = 0
        self._gap_count = 0
        self._gap_max = 0.0
        self._burst_gap_count = 0
        self._gap_reservoir = _ReservoirSampler(self.session_reservoir, seed=0x95)
        self._seq_received = 0
        self._seq_last_raw = -1
        # the two 64 KiB counting sets backing the loss estimate, lazy
        self._seen: Optional[np.ndarray] = None
        self._skipped: Optional[np.ndarray] = None
        self._lost_reported = 0  # lost count already attributed to sealed windows

    # ------------------------------------------------------------ ingestion
    def absorb_arrays(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_times: Optional[np.ndarray],
        origin: float,
    ) -> None:
        """Fold pre-selected downstream rows into the fixed-size aggregates.

        Rows behind the seal watermark fold into the session aggregates
        only: their window's event is out, and a store made for it would
        never seal again.
        """
        if not timestamps.size:
            return
        timestamps, (sizes, sequences, rtp_times), runs = self._runs(
            origin, timestamps, (sizes, sequences, rtp_times), by_time=True
        )
        n = int(timestamps.size)

        # --- inter-frame gap stream (diffs against the carried last arrival)
        gap_at = np.full(n, -1.0)
        if np.isfinite(self._last_down_ts):
            gap_at = timestamps - np.concatenate(
                ([self._last_down_ts], timestamps[:-1])
            )
        elif n > 1:
            gap_at[1:] = np.diff(timestamps)
        self._last_down_ts = max(self._last_down_ts, float(timestamps[-1]))
        frame_gaps = gap_at[gap_at > FRAME_GAP_SECONDS]
        if frame_gaps.size:
            self._gap_count += int(frame_gaps.size)
            self._gap_max = max(self._gap_max, float(frame_gaps.max()))
            self._gap_reservoir.add(frame_gaps)
        self._burst_gap_count += int(np.count_nonzero(gap_at > BURST_GAP_SECONDS))
        self._n_down += n

        # --- frames: strict record highs of the RTP timestamp
        new_frame_at: Optional[np.ndarray] = None
        rtp_valid: Optional[np.ndarray] = None
        if rtp_times is not None:
            rtp_valid = rtp_times != RTP_NONE
            if rtp_valid.any():
                values = rtp_times[rtp_valid]
                running = np.maximum.accumulate(
                    np.concatenate(([self._frame_max_rts], values))
                )
                is_new = running[1:] > running[:-1]
                self._frame_max_rts = int(running[-1])
                self._n_frames += int(np.count_nonzero(is_new))
                self._n_rtp += int(values.size)
                new_frame_at = np.zeros(n, dtype=bool)
                new_frame_at[np.flatnonzero(rtp_valid)[is_new]] = True
            else:
                rtp_valid = None

        # --- sequences: the exact loss algorithm on two counting sets
        seq_valid: Optional[np.ndarray] = None
        cand_gap_at: Optional[np.ndarray] = None
        if sequences is not None:
            seq_valid = sequences != RTP_NONE
            if seq_valid.any():
                raw = sequences[seq_valid].astype(np.int64)
                if self._seen is None:
                    self._seen = np.zeros(0x10000, dtype=bool)
                    self._skipped = np.zeros(0x10000, dtype=bool)
                self._seen[raw & 0xFFFF] = True
                if self._seq_last_raw < 0:
                    prevs, nexts = raw[:-1], raw[1:]
                else:
                    prevs = np.concatenate(([self._seq_last_raw], raw[:-1]))
                    nexts = raw
                if prevs.size:
                    gaps = (nexts - prevs - 1) & 0xFFFF
                    candidate = (gaps > 0) & (gaps < self._RESET_GAP)
                    if candidate.any():
                        gap_sizes = gaps[candidate]
                        gap_starts = prevs[candidate]
                        # expand each gap into its skipped values (the exact
                        # estimator's own expansion) and mark them
                        offsets = np.arange(int(gap_sizes.sum())) - np.repeat(
                            np.cumsum(gap_sizes) - gap_sizes, gap_sizes
                        )
                        skipped = (
                            np.repeat(gap_starts, gap_sizes) + offsets + 1
                        ) & 0xFFFF
                        self._skipped[skipped] = True
                        # per-window candidate-gap ledger: attribute each gap
                        # to the row of the arrival that revealed it (the
                        # ``nexts`` side), so the size lands in that row's
                        # sealing window below.  Reveal rows are distinct, so
                        # plain fancy assignment is exact.
                        seq_rows = np.flatnonzero(seq_valid)
                        reveal = seq_rows[1:] if self._seq_last_raw < 0 else seq_rows
                        cand_gap_at = np.zeros(n, dtype=np.int64)
                        cand_gap_at[reveal[candidate]] = gap_sizes
                self._seq_last_raw = int(raw[-1])
                self._seq_received += int(raw.size)
            else:
                seq_valid = None

        # --- per-interval aggregates of the open windows
        for interval, start, end in runs:
            if interval < self._sealed_upto:
                continue
            store = self._stores.get(interval)
            if store is None:
                store = self._stores[interval] = _ApproxIntervalStore(
                    interval, self.interval_reservoir
                )
            store.n_packets += int(end - start)
            store.payload_bytes += float(sizes[start:end].sum())
            run_gaps = gap_at[start:end]
            run_frame_gaps = run_gaps[run_gaps > FRAME_GAP_SECONDS]
            if run_frame_gaps.size:
                store.gap_count += int(run_frame_gaps.size)
                store.gap_max = max(store.gap_max, float(run_frame_gaps.max()))
                store.reservoir.add(run_frame_gaps)
            store.burst_gap_count += int(
                np.count_nonzero(run_gaps > BURST_GAP_SECONDS)
            )
            if rtp_valid is not None:
                store.n_rtp += int(np.count_nonzero(rtp_valid[start:end]))
            if new_frame_at is not None:
                store.n_new_frames += int(np.count_nonzero(new_frame_at[start:end]))
            if seq_valid is not None:
                store.seq_received += int(np.count_nonzero(seq_valid[start:end]))
            if cand_gap_at is not None:
                store.candidate_gap_packets += int(cand_gap_at[start:end].sum())

    # ------------------------------------------------------------ sealing
    def _sealed_view(
        self, index: int, start_s: float, end_s: float, duration_s: float, partial: bool
    ) -> SealedApproxQoEInterval:
        # pop, don't get: nothing reads a sealed store again (close metrics
        # come from the session-level aggregates), and rows arriving behind
        # the watermark never make a new one, so live per-interval state is
        # bounded by the *open* windows, not the session's lifetime
        store = self._stores.pop(index, None)
        lost = 0
        if store is None:
            store = _NO_APPROX_ROWS
        else:
            # attribute the growth of the session-wide lost count since the
            # last seal to this window (a skipped value resolved by a later
            # arrival silently drops out of the session total — provisional
            # verdicts are not retracted, exactly like the other gates)
            lost_now = self._lost_so_far()
            lost = max(0, lost_now - self._lost_reported)
            self._lost_reported = lost_now
        return SealedApproxQoEInterval(
            index=index,
            start_s=start_s,
            end_s=end_s,
            duration_s=duration_s,
            n_packets=store.n_packets,
            payload_bytes=store.payload_bytes,
            n_rtp=store.n_rtp,
            n_new_frames=store.n_new_frames,
            burst_gap_count=store.burst_gap_count,
            gap_count=store.gap_count,
            gap_max_s=store.gap_max,
            gap_samples=store.reservoir.sample().copy(),
            seq_received=store.seq_received,
            seq_lost=lost,
            partial=partial,
            # packets flowed but the RTP clock never advanced past the
            # previous window's last-seen timestamp: a frozen image
            frozen=store.n_packets > 0 and store.n_rtp > 0
            and store.n_new_frames == 0,
            candidate_gap_packets=store.candidate_gap_packets,
        )

    def _lost_so_far(self) -> int:
        """Skipped-and-never-seen sequence values (the exact lost count)."""
        if self._skipped is None:
            return 0
        return int(np.count_nonzero(self._skipped & ~self._seen))

    # ------------------------------------------------------------ finalise
    def final_aggregates(self) -> dict:
        """Session-level keyword arguments for ``estimate_approx``.

        Independent of the interval width and of how the feed was batched,
        which is what pins offline (one infinite window) and streaming
        (10 s windows) approx close reports equal.
        """
        lost = self._lost_so_far()
        return {
            "n_down_packets": self._n_down,
            "n_frames": self._n_frames,
            "n_rtp": self._n_rtp,
            "burst_gap_count": self._burst_gap_count,
            "gap_count": self._gap_count,
            "gap_max_s": self._gap_max,
            "gap_samples": self._gap_reservoir.sample().copy(),
            "seq_received": self._seq_received,
            "seq_lost": lost,
        }

    def nbytes(self) -> int:
        total = self._gap_reservoir.nbytes()
        if self._seen is not None:
            total += self._seen.nbytes + self._skipped.nbytes
        return total + sum(store.nbytes() for store in self._stores.values())

    def snapshot(self) -> dict:
        return {
            **super().snapshot(),
            "last_down_ts": self._last_down_ts,
            "frame_max_rts": self._frame_max_rts,
            "n_frames": self._n_frames,
            "n_rtp": self._n_rtp,
            "n_down": self._n_down,
            "gap_count": self._gap_count,
            "gap_max": self._gap_max,
            "burst_gap_count": self._burst_gap_count,
            "gap_reservoir": self._gap_reservoir.snapshot(),
            "seq_received": self._seq_received,
            "seq_last_raw": self._seq_last_raw,
            # the counting sets accumulate in place — copy at snapshot time
            "seen": None if self._seen is None else self._seen.copy(),
            "skipped": None if self._skipped is None else self._skipped.copy(),
            "lost_reported": self._lost_reported,
        }

    def restore(self, snapshot: dict) -> None:
        super().restore(snapshot)
        self._last_down_ts = snapshot["last_down_ts"]
        self._frame_max_rts = snapshot["frame_max_rts"]
        self._n_frames = snapshot["n_frames"]
        self._n_rtp = snapshot["n_rtp"]
        self._n_down = snapshot["n_down"]
        self._gap_count = snapshot["gap_count"]
        self._gap_max = snapshot["gap_max"]
        self._burst_gap_count = snapshot["burst_gap_count"]
        self._gap_reservoir.restore(snapshot["gap_reservoir"])
        self._seq_received = snapshot["seq_received"]
        self._seq_last_raw = snapshot["seq_last_raw"]
        seen, skipped = snapshot["seen"], snapshot["skipped"]
        self._seen = None if seen is None else seen.copy()
        self._skipped = None if skipped is None else skipped.copy()
        self._lost_reported = snapshot["lost_reported"]

    def _store_from_snapshot(self, key: int, state: dict) -> _ApproxIntervalStore:
        return _ApproxIntervalStore.from_snapshot(key, self.interval_reservoir, state)


# ---------------------------------------------------------------------------
# pre-reduced facts of a flow-sorted tick
# ---------------------------------------------------------------------------
class TickFacts:
    """What the cascade fold needs to know about every flow of one tick.

    ``columns`` holds the tick's rows flow by flow and ``bounds`` the
    ``n_flows + 1`` row offsets (:class:`~repro.net.flow.FlowTick`; every
    span non-empty).  A handful of ``reduceat`` passes over the whole tick
    give each flow's first / last timestamp, payload total and downstream
    payload as python scalars, and one gather per column gives the
    downstream rows of all flows, of which flow ``i`` owns
    ``down_bounds[i]:down_bounds[i + 1]`` — so the per-flow cost of a tick is
    scalar arithmetic plus zero-copy spans (DESIGN.md §7).  Payload sizes are
    integral, so the sums are exact in whatever order ``reduceat`` adds.
    :meth:`flush` buckets the rows of every flow across a slot edge at once.
    """

    __slots__ = (
        "columns",
        "bounds",
        "first",
        "last",
        "payload",
        "down_payload",
        "down",
        "down_bounds",
        "down_times",
        "down_sizes",
        "down_sequences",
        "down_rtp_times",
        "straddles",
        "_rtp_seen",
    )

    def __init__(self, columns: PacketColumns, bounds: np.ndarray) -> None:
        timestamps = columns.timestamps
        sizes = columns.payload_sizes
        starts = bounds[:-1]
        self.columns = columns
        self.straddles: List[tuple] = []
        self.bounds: List[int] = bounds.tolist()
        self.first: List[float] = np.minimum.reduceat(timestamps, starts).tolist()
        self.last: List[float] = np.maximum.reduceat(timestamps, starts).tolist()
        self.payload: List[float] = np.add.reduceat(sizes, starts).tolist()
        down = self.down = columns.directions == DOWNSTREAM_CODE
        # masked, not gathered: a flow without downstream rows would be an
        # empty span, which reduceat does not reduce to zero
        self.down_payload: List[float] = np.add.reduceat(
            np.where(down, sizes, 0.0), starts
        ).tolist()
        self._rtp_seen: Optional[List[bool]] = None
        down_rows = np.flatnonzero(down)
        self.down_bounds: List[int] = np.searchsorted(down_rows, bounds).tolist()
        self.down_times = timestamps[down_rows]
        self.down_sizes = sizes[down_rows]
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        self.down_sequences = None if sequences is None else sequences[down_rows]
        self.down_rtp_times = None if rtp_times is None else rtp_times[down_rows]

    @classmethod
    def of_batch(cls, columns: PacketColumns) -> "TickFacts":
        """Facts of one non-empty batch taken as a tick of a single flow."""
        return cls(columns, np.array([0, len(columns)]))

    @classmethod
    def of_stream(cls, stream: PacketStream) -> "TickFacts":
        """Facts of one non-empty sorted stream taken as a tick of a single flow.

        Equal to ``of_batch(stream.columns())`` field by field, but the
        downstream rows come from the stream's cached per-direction views, so
        repeated offline passes over one corpus split the directions once per
        stream, not once per fold.  The stream is sorted, so its span is its
        first and last row.
        """
        columns = stream.columns()
        timestamps = columns.timestamps
        down_rows = stream.direction_indices(Direction.DOWNSTREAM)
        facts = cls.__new__(cls)
        facts.columns = columns
        facts.straddles = []
        facts.bounds = [0, len(columns)]
        facts.first = [float(timestamps[0])]
        facts.last = [float(timestamps[-1])]
        facts.payload = [float(columns.payload_sizes.sum())]
        facts.down = columns.directions == DOWNSTREAM_CODE
        facts.down_sizes = stream.payload_sizes(Direction.DOWNSTREAM)
        facts.down_payload = [float(facts.down_sizes.sum())]
        facts._rtp_seen = None
        facts.down_bounds = [0, int(down_rows.size)]
        facts.down_times = stream.timestamps(Direction.DOWNSTREAM)
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        facts.down_sequences = None if sequences is None else sequences[down_rows]
        facts.down_rtp_times = None if rtp_times is None else rtp_times[down_rows]
        return facts

    def rtp_seen(self, flow: int) -> bool:
        """Whether any row of the flow carries an RTP SSRC.

        Asked only by sessions that have not seen RTP yet, so the per-flow
        answers are reduced on the first question of a tick, not on every
        tick.
        """
        if self._rtp_seen is None:
            ssrc = self.columns.rtp_ssrc
            self._rtp_seen = (
                [False] * len(self.first)
                if ssrc is None
                else np.logical_or.reduceat(ssrc != RTP_NONE, self.bounds[:-1]).tolist()
            )
        return self._rtp_seen[flow]

    def rows(self, flow: int) -> PacketColumns:
        """Zero-copy view of one flow's rows (whoever retains it copies)."""
        start, stop = self.bounds[flow], self.bounds[flow + 1]
        if stop - start == len(self.columns):
            return self.columns
        return self.columns.slice_view(start, stop)

    def flush(self) -> None:
        """Bucket the rows of every queued straddling span in one pass.

        The fold queues ``(flow, slots, origin, first_slot, last_slot)`` for
        a flow whose rows cross a slot edge.  Every queued row gets the
        reducers' own index ``floor((t - origin) / width)`` (clipped at 0)
        shifted into its flow's run of ``(slot, direction)`` cells; one pair
        of ``bincount`` calls fills all runs and each reducer adds its own.
        Runs are disjoint, ``bincount`` adds in row order and the sums are
        integral: the counters equal a per-flow ``bincount`` to the bit.
        Run after the tick's folds, and before a refold resets the counters.
        """
        queued = self.straddles
        if not queued:
            return
        self.straddles = []
        width = queued[0][1].slot_duration
        assert all(item[1].slot_duration == width for item in queued), "one slot width"
        bounds = self.bounds
        row_shifts, lengths, origins, cell_shifts = [], [], [], []
        n_rows = n_cells = 0
        for flow, _slots, origin, first, last in queued:
            start, stop = bounds[flow], bounds[flow + 1]
            row_shifts.append(start - n_rows)
            lengths.append(stop - start)
            origins.append(origin)
            cell_shifts.append(n_cells - 2 * first)
            n_rows += stop - start
            n_cells += 2 * (last - first + 1)
        if len(queued) == 1:
            # a fine-grained tap's usual tick: one span, its scalars broadcast
            rows = slice(row_shifts[0], n_rows + row_shifts[0])
            origin, shift = origins[0], cell_shifts[0]
        else:
            repeat = np.repeat
            rows = repeat(row_shifts, lengths) + np.arange(n_rows)
            origin, shift = repeat(origins, lengths), repeat(cell_shifts, lengths)
        columns = self.columns
        index = np.floor((columns.timestamps[rows] - origin) / width).astype(np.int64)
        np.maximum(index, 0, out=index)
        bins = index * 2 + ~self.down[rows] + shift
        cells = np.empty((n_cells // 2, 4))
        sizes = columns.payload_sizes[rows]
        cells[:, 0::2] = np.bincount(bins, weights=sizes, minlength=n_cells).reshape(-1, 2)
        cells[:, 1::2] = np.bincount(bins, minlength=n_cells).reshape(-1, 2)
        at = 0
        for _flow, slots, _origin, first, last in queued:
            slots.absorb_span(first, last, cells[at : at + last - first + 1])
            at += last - first + 1


def raw_slot_matrix(
    stream: PacketStream, slot_duration: float, n_slots: Optional[int] = None
) -> np.ndarray:
    """Raw per-slot attributes of a stream: (down Mbps, down pps, up Kbps, up pps).

    Slots start at the stream's first packet.  ``n_slots`` defaults to the
    stream's span, ``ceil(duration / I)`` and at least 1; a row past the
    last slot (a packet exactly on the final edge) is dropped.  This is the
    one way a packet becomes a slot count: the whole stream is one
    straddling span of a fresh :class:`SlotStageReducer`, bucketed by the
    live tick's own :meth:`TickFacts.flush`.
    """
    slots = SlotStageReducer(slot_duration, alpha=1.0)
    if len(stream):
        facts = TickFacts.of_stream(stream)
        origin, last = facts.first[0], facts.last[0]
        facts.straddles.append((0, slots, origin, 0, math.floor((last - origin) / slot_duration)))
        facts.flush()
        if n_slots is None:
            n_slots = math.ceil((last - origin) / slot_duration)
    return slots.raw_matrix(1 if n_slots is None else n_slots)


# ---------------------------------------------------------------------------
# the cascade: shared aggregates + the reducers, one fold() body
# ---------------------------------------------------------------------------
class SessionReducerCascade:
    """Bounded fold state of one session across every cascade stage.

    Parameters
    ----------
    slot_duration / alpha:
        Stage-classification slot ``I`` and EMA weight (from the fitted
        activity classifier).
    window_seconds:
        Title window ``N`` (from the fitted title classifier).
    qoe_interval_seconds:
        Width of the provisional QoE measurement windows (10 s by default).
    keep_history:
        Retain the raw batches (the runtime's ``"full"`` mode): enables
        :meth:`assembled_stream` and the exact refold when a packet older
        than the session origin arrives in a later batch.  The default
        (bounded) mode holds no packet history.
    qoe_mode:
        ``"exact"`` (default) keeps the per-interval downstream QoE columns
        (close metrics bit-identical to offline); ``"approx"`` folds into
        the O(intervals) :class:`ApproxQoEIntervalReducer` — no columns at
        all, close metrics approximate with documented error bounds.
        Incompatible with ``keep_history`` (full mode exists to be exact).
    """

    __slots__ = (
        "origin",
        "last_ts",
        "n_packets",
        "down_bytes",
        "up_bytes",
        "has_downstream",
        "has_rtp",
        "origin_shifts",
        "launch",
        "slots",
        "qoe",
        "qoe_mode",
        "_history",
        "_window_seconds",
        "_alpha",
        "_qoe_interval_seconds",
    )

    def __init__(
        self,
        slot_duration: float,
        alpha: float,
        window_seconds: float,
        qoe_interval_seconds: float = 10.0,
        keep_history: bool = False,
        qoe_mode: str = "exact",
    ) -> None:
        if qoe_mode not in QOE_MODES:
            raise ValueError(f"qoe_mode must be one of {QOE_MODES}, got {qoe_mode!r}")
        if qoe_mode == "approx" and keep_history:
            raise ValueError(
                "qoe_mode='approx' is incompatible with keep_history: the "
                "full-history mode exists to stay exact under reordering"
            )
        self.origin: Optional[float] = None
        self.last_ts = float("-inf")
        self.n_packets = 0
        self.down_bytes = 0.0
        self.up_bytes = 0.0
        self.has_downstream = False
        self.has_rtp = False
        self.origin_shifts = 0
        self._window_seconds = window_seconds
        self._alpha = alpha
        self._qoe_interval_seconds = qoe_interval_seconds
        self.launch = LaunchWindowReducer(window_seconds)
        self.slots = SlotStageReducer(slot_duration, alpha)
        self.qoe_mode = qoe_mode
        if qoe_mode == "approx":
            self.qoe = ApproxQoEIntervalReducer(qoe_interval_seconds)
        else:
            self.qoe = QoEIntervalReducer(qoe_interval_seconds)
        self._history: Optional[List[PacketColumns]] = [] if keep_history else None

    # ------------------------------------------------------------ ingestion
    def fold(self, facts: TickFacts, flow: int) -> int:
        """Fold flow ``flow`` of a tick; return its new launch-window rows.

        The return value counts rows that landed inside the title window —
        the runtime uses a non-zero count after the title gate fired as the
        re-classification trigger.  Slot rows across an edge land at
        ``facts.flush()``, which the caller runs after the tick's folds.
        """
        first = facts.first[flow]
        if self.origin is None:
            self.origin = first
        elif first < self.origin:
            self.origin_shifts += 1
            if self._history is not None:
                # exact refold: an older packet surfaced, so every slot and
                # interval assignment shifts.  Only possible with retained
                # history.  Spans of this tick queued before it (the same
                # flow earlier in the tick) land first: the refold rebuilds
                # the counters from the history, which already holds them.
                facts.flush()
                rows = facts.rows(flow).owned()
                self._history.append(rows)
                self._refold(first)
                mask = rows.timestamps <= self.origin + self._window_seconds
                return int(np.count_nonzero(mask))
            # bounded mode: keep the anchored origin; pre-origin rows clip
            # into slot/interval 0 (the provisional counters absorb the
            # approximation, the final QoE columns stay exact)
        if self._history is not None:
            self._history.append(facts.rows(flow).owned())
        return self._fold(facts, flow)

    def _fold(self, facts: TickFacts, flow: int) -> int:
        """The one fold body: a flow's rows of a tick against the current origin.

        A flow's share of one feed tick usually sits inside one slot, inside
        one QoE interval and past the title window.  Its time span
        (``first`` .. ``last``) shows which of the three hold; each one that
        does is folded from the pre-reduced facts alone, and only the others
        touch rows: the title-window rows, a span straddling a QoE boundary
        (the general reducer), and a span straddling a slot edge — queued on
        the facts and bucketed with every other such span of the tick.
        """
        origin = self.origin
        first = facts.first[flow]
        last = facts.last[flow]
        start, stop = facts.bounds[flow], facts.bounds[flow + 1]
        down_start, down_stop = facts.down_bounds[flow], facts.down_bounds[flow + 1]
        n_down = down_stop - down_start
        if last > self.last_ts:
            self.last_ts = last
        self.n_packets += stop - start
        down_sum = facts.down_payload[flow]
        # integral payload sizes make the subtraction exact
        up_sum = facts.payload[flow] - down_sum
        if n_down:
            self.has_downstream = True
            self.down_bytes += down_sum
        self.up_bytes += up_sum
        if not self.has_rtp and facts.rtp_seen(flow):
            self.has_rtp = True

        if first > origin + self._window_seconds:
            new_window_rows = 0  # no row can be inside the title window
        else:
            new_window_rows = self.launch.absorb(facts.rows(flow), origin)

        # the reducers bucket a row into floor((t - origin) / width), clipped
        # to 0 for pre-origin rows; the index never decreases with t, so equal
        # indices at the span's first and last timestamp are the index of
        # every row (same IEEE expression as the array folds compute per row)
        floor = math.floor
        width = self.slots.slot_duration
        slot = floor((first - origin) / width)
        last_slot = floor((last - origin) / width)
        if slot == last_slot or last_slot <= 0:
            self.slots.absorb_slot(
                slot if slot > 0 else 0, down_sum, n_down, up_sum, stop - start - n_down
            )
        else:
            facts.straddles.append(
                (flow, self.slots, origin, slot if slot > 0 else 0, last_slot)
            )

        if not n_down:
            return new_window_rows
        down_times = facts.down_times[down_start:down_stop]
        sequences = facts.down_sequences
        rtp_times = facts.down_rtp_times
        if sequences is not None:
            sequences = sequences[down_start:down_stop]
        if rtp_times is not None:
            rtp_times = rtp_times[down_start:down_stop]
        width = self._qoe_interval_seconds
        interval = floor((first - origin) / width)
        last_interval = floor((last - origin) / width)
        if self.qoe_mode == "exact" and (
            interval == last_interval or last_interval <= 0
        ):
            self.qoe.absorb_interval(
                interval if interval > 0 else 0,
                down_times,
                sequences,
                rtp_times,
                down_sum,
            )
        else:
            self.qoe.absorb_arrays(
                down_times,
                facts.down_sizes[down_start:down_stop],
                sequences,
                rtp_times,
                origin,
            )
        return new_window_rows

    def absorb_stream(self, stream: PacketStream) -> int:
        """Fold a whole sorted session stream; return new launch-window rows.

        The offline form of the live tick: the same :meth:`fold` and flush,
        with the facts read from the stream's cached views
        (:meth:`TickFacts.of_stream`).
        """
        if not len(stream):
            return 0
        facts = TickFacts.of_stream(stream)
        new_window_rows = self.fold(facts, 0)
        facts.flush()
        return new_window_rows

    def _refold(self, new_origin: float) -> None:
        """Re-fold the retained history against a corrected (earlier) origin."""
        history = self._history or []
        self.origin = new_origin
        self.last_ts = float("-inf")
        self.n_packets = 0
        self.down_bytes = 0.0
        self.up_bytes = 0.0
        self.has_downstream = False
        self.has_rtp = False
        self.launch = LaunchWindowReducer(self._window_seconds)
        self.slots.reset_counts()
        # like the slot cursor, the seal watermark survives the refold:
        # already-emitted provisional QoEInterval events cannot be
        # retracted, so the rebuilt store must not re-seal (re-emit) them
        sealed_upto = self.qoe._sealed_upto
        self.qoe = QoEIntervalReducer(self._qoe_interval_seconds)
        self.qoe._sealed_upto = sealed_upto
        for batch in history:
            facts = TickFacts.of_batch(batch)
            self._fold(facts, 0)
            facts.flush()

    # ------------------------------------------------------------ aggregates
    @property
    def duration(self) -> float:
        """Seconds between the first and last packet (the offline value)."""
        if self.origin is None:
            return 0.0
        return max(0.0, self.last_ts - self.origin)

    def total_slots(self) -> int:
        """Slot count of the session so far (the offline ``n_slots``)."""
        if self.origin is None:
            return 0
        return max(
            1, math.ceil((self.last_ts - self.origin) / self.slots.slot_duration)
        )

    # ------------------------------------------------------------ provisional
    def advance_slots(self, clock: float) -> Tuple[List[List[float]], int]:
        """Provisional stage gate: feature rows of newly completed slots.

        Completes every observed slot the feed clock has passed;
        ``clock=math.inf`` (the close path) completes them all, and a NaN or
        ``-inf`` clock completes nothing.  The due check is scalar, and it is
        the reducers' own bucketing expression ``floor((clock - origin) /
        width)`` — comparing ``clock`` against ``origin + k * width`` instead
        rounds differently on slot edges and would complete a slot one tick
        early or late.  Returns ``(rows, first_slot)`` as
        :meth:`SlotStageReducer.advance` does; no rows when nothing is due.
        """
        origin = self.origin
        if origin is None:
            return [], 0
        if clock == math.inf:
            return self.slots.advance(self.total_slots())
        if not math.isfinite(clock):
            return [], 0
        complete = math.floor((clock - origin) / self.slots.slot_duration)
        if complete <= self.slots.cursor:
            return [], 0
        return self.slots.advance(min(complete, self.total_slots()))

    def advance_qoe(self, clock: float) -> List[SealedQoEInterval]:
        """Provisional QoE gate: seal intervals the clock has passed."""
        return self.qoe.advance(clock, self.origin)

    def flush_qoe(self) -> List[SealedQoEInterval]:
        """Seal the trailing partial interval at close time."""
        if self.origin is None:
            return []
        return self.qoe.flush(self.origin, self.last_ts)

    # ------------------------------------------------------------ finalise
    def launch_stream(self) -> PacketStream:
        """The title window's packets as a time-sorted stream."""
        return self.launch.stream()

    def final_raw_matrix(self) -> np.ndarray:
        """The offline raw slot matrix of everything absorbed so far."""
        if self.origin is None:
            return np.zeros((1, 4))
        return self.slots.raw_matrix(self.total_slots())

    def qoe_arrays(self) -> dict:
        """Keyword arguments for ``ObjectiveQoEEstimator.estimate_arrays``."""
        if self.qoe_mode == "approx":
            raise RuntimeError(
                "the approx QoE tier keeps no downstream columns; finalise "
                "through qoe_approx_arrays() / estimate_approx() instead"
            )
        down_times, rtp_timestamps, rtp_sequences = self.qoe.final_columns()
        return {
            "duration_s": self.duration,
            "down_times": down_times,
            "down_payload_bytes": self.down_bytes,
            "rtp_timestamps": rtp_timestamps,
            "rtp_sequences": rtp_sequences,
        }

    def qoe_approx_arrays(self) -> dict:
        """Keyword arguments for ``ObjectiveQoEEstimator.estimate_approx``."""
        if self.qoe_mode != "approx":
            raise RuntimeError(
                "the exact QoE tier finalises through qoe_arrays() / "
                "estimate_arrays(); qoe_approx_arrays() is approx-mode only"
            )
        return {
            "duration_s": self.duration,
            "down_payload_bytes": self.down_bytes,
            **self.qoe.final_aggregates(),
        }

    def flow_summary(self, server_port: int) -> dict:
        """The flow-metadata fields the platform signatures read.

        Matches :func:`repro.net.flow.flow_summary` bit for bit: byte totals
        are integral, so the mean-throughput and byte-ratio arithmetic below
        reproduces the stream-backed computation exactly.
        """
        duration = self.duration
        down = int(self.down_bytes)
        total = down + int(self.up_bytes)
        return {
            "duration_s": duration,
            "downstream_mbps": (
                down * 8 / duration / 1e6 if duration > 0 else 0.0
            ),
            "downstream_fraction": down / total if total else 0.0,
            "is_rtp": self.has_rtp,
            "server_port": server_port,
        }

    # ------------------------------------------------------------ history
    @property
    def history(self) -> List[PacketColumns]:
        if self._history is None:
            raise RuntimeError(
                "packet history is not retained in bounded mode; construct the "
                "cascade with keep_history=True (runtime mode='full')"
            )
        return self._history

    def assembled_stream(self) -> PacketStream:
        """The full packet history as one time-sorted stream (full mode)."""
        return PacketStream.from_columns(PacketColumns.concat(self.history))

    # ------------------------------------------------------------ accounting
    def state_nbytes(self) -> int:
        """Approximate bytes of live per-session state (arrays only).

        Bounded mode counts the slot counters, the launch-window buffer and
        the per-interval QoE columns; full-history mode additionally counts
        every retained batch's columns.
        """
        total = self.launch.nbytes() + self.slots.nbytes() + self.qoe.nbytes()
        if self._history is not None:
            total += sum(batch.nbytes() for batch in self._history)
        return total

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict:
        """Complete fold state as a plain python/numpy dict.

        A cascade rebuilt with :meth:`from_snapshot` and fed the same
        subsequent batches produces bit-identical provisional events and
        close reports — the basis of the sharded runtime's checkpoint/replay
        recovery (DESIGN.md §8).  The dict is picklable (flow history and
        launch chunks are :class:`PacketColumns`; everything else is
        scalars, numpy arrays and nested dicts).
        """
        return {
            "config": {
                "slot_duration": self.slots.slot_duration,
                "alpha": self._alpha,
                "window_seconds": self._window_seconds,
                "qoe_interval_seconds": self._qoe_interval_seconds,
                "keep_history": self._history is not None,
                "qoe_mode": self.qoe_mode,
            },
            "origin": self.origin,
            "last_ts": self.last_ts,
            "n_packets": self.n_packets,
            "down_bytes": self.down_bytes,
            "up_bytes": self.up_bytes,
            "has_downstream": self.has_downstream,
            "has_rtp": self.has_rtp,
            "origin_shifts": self.origin_shifts,
            "launch": self.launch.snapshot(),
            "slots": self.slots.snapshot(),
            "qoe": self.qoe.snapshot(),
            "history": None if self._history is None else list(self._history),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "SessionReducerCascade":
        """Rebuild a cascade from a :meth:`snapshot` dict."""
        config = snapshot["config"]
        cascade = cls(
            slot_duration=config["slot_duration"],
            alpha=config["alpha"],
            window_seconds=config["window_seconds"],
            qoe_interval_seconds=config["qoe_interval_seconds"],
            keep_history=config["keep_history"],
            qoe_mode=config["qoe_mode"],
        )
        cascade.origin = snapshot["origin"]
        cascade.last_ts = snapshot["last_ts"]
        cascade.n_packets = snapshot["n_packets"]
        cascade.down_bytes = snapshot["down_bytes"]
        cascade.up_bytes = snapshot["up_bytes"]
        cascade.has_downstream = snapshot["has_downstream"]
        cascade.has_rtp = snapshot["has_rtp"]
        cascade.origin_shifts = snapshot["origin_shifts"]
        cascade.launch.restore(snapshot["launch"])
        cascade.slots.restore(snapshot["slots"])
        cascade.qoe.restore(snapshot["qoe"])
        history = snapshot["history"]
        cascade._history = None if history is None else list(history)
        return cascade
