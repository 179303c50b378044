"""Labeling launch-stage packets as *full*, *steady* or *sparse* (§4.2.1).

The paper observes that the downstream packets carrying the launch animation
fall into three groups per time slot of ``T`` seconds:

* **full** — packets at the maximum payload size (e.g. 1432 bytes), present
  in every slot;
* **steady** — packets whose payload is within a ±V band of their
  neighbours in the same slot (a narrow payload band per scene);
* **sparse** — packets whose payload varies widely versus their neighbours.

Full packets are labeled by payload equality with the maximum observed size;
the remaining packets are split into steady/sparse by a majority-voting rule
with a tunable relative variation parameter ``V`` (10% in the paper's
implementation, evaluated between 1% and 20% in §4.4.1).

The labeler is fully vectorised (DESIGN.md §3): a window is a contiguous
range of the sorted timestamp column (``searchsorted``), the windows of a
whole batch of streams are labeled in one pass over their concatenated
rows (:meth:`PacketGroupLabeler.label_windows`), the majority vote runs on
shifted array comparisons that count a neighbour only inside its own slot,
and labels are int8 codes (:class:`LabeledSlot` per slot for one stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.net.packet import Direction, PacketStream


class PacketGroup(Enum):
    """The three launch-stage packet groups."""

    FULL = "full"
    STEADY = "steady"
    SPARSE = "sparse"


#: Integer codes used by the columnar label representation.
FULL_CODE = 0
STEADY_CODE = 1
SPARSE_CODE = 2

GROUP_CODES: Dict[PacketGroup, int] = {
    PacketGroup.FULL: FULL_CODE,
    PacketGroup.STEADY: STEADY_CODE,
    PacketGroup.SPARSE: SPARSE_CODE,
}
_GROUPS_BY_CODE = (PacketGroup.FULL, PacketGroup.STEADY, PacketGroup.SPARSE)


@dataclass
class LabeledSlot:
    """Per-slot labeling result.

    Attributes
    ----------
    slot_index:
        Index of the ``T``-second slot within the analysis window.
    timestamps / payload_sizes:
        Arrays aligned with ``label_codes`` for the packets of this slot.
    label_codes:
        One int8 group code per packet (0=full, 1=steady, 2=sparse).  A list
        of :class:`PacketGroup` is also accepted and converted.
    """

    slot_index: int
    timestamps: np.ndarray
    payload_sizes: np.ndarray
    label_codes: np.ndarray

    def __post_init__(self) -> None:
        codes = self.label_codes
        if isinstance(codes, np.ndarray) and codes.dtype != object:
            self.label_codes = codes.astype(np.int8, copy=False)
        else:
            # lists / object arrays may mix ints and PacketGroup members
            self.label_codes = np.asarray(
                [
                    GROUP_CODES[code] if isinstance(code, PacketGroup) else code
                    for code in codes
                ],
                dtype=np.int8,
            )
        if self.label_codes.size != np.asarray(self.payload_sizes).size:
            raise ValueError(
                f"label_codes ({self.label_codes.size}) must match "
                f"payload_sizes ({np.asarray(self.payload_sizes).size})"
            )
        if self.label_codes.size and not (
            0 <= self.label_codes.min() and self.label_codes.max() <= SPARSE_CODE
        ):
            raise ValueError(
                "label_codes must be within 0..2 (full/steady/sparse)"
            )

    @property
    def labels(self) -> List[PacketGroup]:
        """Labels as :class:`PacketGroup` objects (materialised on demand)."""
        return [_GROUPS_BY_CODE[code] for code in self.label_codes]


class LabeledRows(NamedTuple):
    """Labeled window rows of many streams, as concatenated columns.

    ``timestamps`` / ``payload_sizes`` / ``label_codes`` hold the window
    rows of every stream in stream order; ``slot_ids`` numbers each row's
    slot among all streams' slots (stream ``i`` owns the ``slot_counts[i]``
    ids after those of the streams before it), so the ids never decrease.
    """

    timestamps: np.ndarray
    payload_sizes: np.ndarray
    label_codes: np.ndarray
    slot_ids: np.ndarray
    slot_counts: np.ndarray


class PacketGroupLabeler:
    """Labels downstream launch packets into full/steady/sparse groups.

    Parameters
    ----------
    slot_duration:
        Slot size ``T`` in seconds (1 second in the deployed system).
    size_variation:
        The relative payload variation ``V`` (default 0.10) allowed between
        a packet and its neighbours for it to count as *steady*.
    full_size:
        Absolute payload size of full packets.  When ``None`` (default) the
        maximum payload observed in the analysed window is used, following
        the paper's description of full packets as "the same fixed (maximum)
        payload size".
    full_tolerance:
        Payload slack (bytes) when matching the full size, to absorb
        padding differences between platforms.
    neighbor_window:
        Number of adjacent packets on each side considered by the
        majority-voting rule.
    """

    def __init__(
        self,
        slot_duration: float = 1.0,
        size_variation: float = 0.10,
        full_size: Optional[int] = None,
        full_tolerance: int = 4,
        neighbor_window: int = 2,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        if not 0.0 < size_variation < 1.0:
            raise ValueError(
                f"size_variation must be within (0, 1), got {size_variation}"
            )
        if full_tolerance < 0:
            raise ValueError(f"full_tolerance must be non-negative, got {full_tolerance}")
        if neighbor_window < 1:
            raise ValueError(f"neighbor_window must be >= 1, got {neighbor_window}")
        self.slot_duration = slot_duration
        self.size_variation = size_variation
        self.full_size = full_size
        self.full_tolerance = full_tolerance
        self.neighbor_window = neighbor_window

    # ----------------------------------------------------------- labeling
    def label_windows(
        self,
        streams: Sequence[PacketStream],
        window_seconds: Optional[float] = None,
    ) -> LabeledRows:
        """Label the downstream packets of many streams' windows in one pass.

        Each stream's window is ``[start, start + window_seconds)`` of its
        sorted downstream column, where ``start`` is the stream's first
        packet and ``window_seconds`` defaults to its downstream span (at
        least one slot); it holds ``ceil(window / T)`` slots, empty ones
        included.
        The windows' rows are concatenated and labeled together:

        * every stream keeps its own full size (the window maximum unless
          ``full_size`` is fixed), taken before rows are dropped;
        * rows whose slot index reaches the stream's slot count are dropped
          (the window edge can round onto it);
        * the steady vote compares neighbours only inside the same slot
          (:meth:`_steady_votes` with slot ids), so no decision depends on
          which streams share the call.
        """
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        time_parts = []
        size_parts = []
        slot_counts = []
        starts = []
        for stream in streams:
            # cached per-direction views of the columnar stream; no child stream
            all_times = stream.timestamps(Direction.DOWNSTREAM)
            origin = stream.start_time
            window = window_seconds
            if window is None:
                span = float(all_times[-1] - all_times[0]) if all_times.size >= 2 else 0.0
                window = max(span, self.slot_duration)
            # the window is a contiguous range of the sorted timestamp column
            lo = int(np.searchsorted(all_times, origin, side="left"))
            hi = int(np.searchsorted(all_times, origin + window, side="left"))
            time_parts.append(all_times[lo:hi])
            size_parts.append(stream.payload_sizes(Direction.DOWNSTREAM)[lo:hi])
            slot_counts.append(int(np.ceil(window / self.slot_duration)))
            starts.append(origin)
        lengths = np.array([part.size for part in time_parts], dtype=np.intp)
        stream_of_row = np.repeat(np.arange(lengths.size), lengths)
        times = np.concatenate(time_parts) if time_parts else np.zeros(0)
        sizes = np.concatenate(size_parts) if size_parts else np.zeros(0)
        slot_counts = np.array(slot_counts, dtype=np.intp)

        # times are sorted per stream, so slot indices never decrease inside
        # a stream and each slot is a contiguous run of rows
        slots = np.floor(
            (times - np.array(starts, dtype=float)[stream_of_row]) / self.slot_duration
        ).astype(np.intp)
        full_size = self.full_size
        if full_size is None:
            # per stream: the window maximum, truncated like int()
            filled = np.flatnonzero(lengths)
            maxima = np.zeros(lengths.size, dtype=np.int64)
            if filled.size:
                heads = (np.cumsum(lengths) - lengths)[filled]
                maxima[filled] = np.maximum.reduceat(sizes, heads).astype(np.int64)
            full_size = maxima[stream_of_row]
        is_full = np.abs(sizes - full_size) <= self.full_tolerance
        inside = slots < slot_counts[stream_of_row]
        if not inside.all():
            sizes, slots, is_full = sizes[inside], slots[inside], is_full[inside]
            times, stream_of_row = times[inside], stream_of_row[inside]
        slot_ids = slots + (np.cumsum(slot_counts) - slot_counts)[stream_of_row]

        codes = np.full(sizes.size, SPARSE_CODE, dtype=np.int8)
        codes[is_full] = FULL_CODE
        non_full = np.flatnonzero(~is_full)
        steady = self._steady_votes(sizes[non_full], slot_ids[non_full])
        codes[non_full[steady]] = STEADY_CODE
        return LabeledRows(times, sizes, codes, slot_ids, slot_counts)

    def label_window(
        self,
        stream: PacketStream,
        window_seconds: Optional[float] = None,
    ) -> List[LabeledSlot]:
        """Label the downstream packets of the first ``window_seconds``.

        Returns one :class:`LabeledSlot` per slot (including empty slots, so
        that attribute vectors are aligned across sessions): the one-stream
        :meth:`label_windows`, split at its slot edges.
        """
        rows = self.label_windows([stream], window_seconds)
        n_slots = int(rows.slot_counts[0])
        bounds = np.searchsorted(rows.slot_ids, np.arange(n_slots + 1), side="left")
        return [
            LabeledSlot(
                slot_index=slot_index,
                timestamps=rows.timestamps[start:stop],
                payload_sizes=rows.payload_sizes[start:stop],
                label_codes=rows.label_codes[start:stop],
            )
            for slot_index, start, stop in zip(
                range(n_slots), bounds[:-1].tolist(), bounds[1:].tolist()
            )
        ]

    def _steady_votes(self, sizes: np.ndarray, slot_ids: np.ndarray) -> np.ndarray:
        """Majority vote: is each non-full packet steady w.r.t. its neighbours?

        A packet is steady when the majority of its up-to ``neighbor_window``
        neighbours on each side (within the same slot) have payload sizes
        within ±``size_variation`` of its own size.  ``sizes`` holds the
        non-full packets in order and ``slot_ids`` their slots.
        Implemented with shifted array comparisons: offset ``k`` compares
        every packet with its ``k``-th left/right neighbour at once, and a
        pair counts only when both share a slot — a lone non-full packet
        has no neighbour and no band to belong to.
        """
        count = sizes.size
        tolerance = self.size_variation * sizes
        close = np.zeros(count, dtype=np.int64)
        neighbors = np.zeros(count, dtype=np.int64)
        for offset in range(1, min(self.neighbor_window, count - 1) + 1):
            same = slot_ids[offset:] == slot_ids[:-offset]
            gap = np.abs(sizes[offset:] - sizes[:-offset])
            # left neighbour of index i >= offset
            close[offset:] += (gap <= tolerance[offset:]) & same
            neighbors[offset:] += same
            # right neighbour of index i <= count - 1 - offset
            close[:-offset] += (gap <= tolerance[:-offset]) & same
            neighbors[:-offset] += same
        return (close * 2 >= neighbors) & (neighbors > 0)

    # ------------------------------------------------------------ summary
    def group_counts(
        self, slots: Sequence[LabeledSlot]
    ) -> Dict[PacketGroup, int]:
        """Total packet count per group across all slots."""
        if slots:
            codes = np.concatenate([slot.label_codes for slot in slots])
            totals = np.bincount(codes, minlength=3)
        else:
            totals = np.zeros(3, dtype=int)
        return {group: int(totals[GROUP_CODES[group]]) for group in PacketGroup}

    def group_scatter(
        self, slots: Sequence[LabeledSlot]
    ) -> Dict[PacketGroup, Tuple[np.ndarray, np.ndarray]]:
        """(timestamps, payload sizes) per group — the data behind Fig. 3."""
        if slots:
            times = np.concatenate([slot.timestamps for slot in slots])
            sizes = np.concatenate([slot.payload_sizes for slot in slots])
            codes = np.concatenate([slot.label_codes for slot in slots])
        else:
            times = sizes = np.array([], dtype=float)
            codes = np.array([], dtype=np.int8)
        scatter: Dict[PacketGroup, Tuple[np.ndarray, np.ndarray]] = {}
        for group in PacketGroup:
            mask = codes == GROUP_CODES[group]
            scatter[group] = (times[mask], sizes[mask])
        return scatter
