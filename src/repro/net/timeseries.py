"""Slotted time-series helpers.

Both novel processes of the paper aggregate packets into fixed-length time
slots: the game-title classifier uses ``T``-second slots over the first ``N``
seconds of launch traffic, and the player-activity-stage classifier uses
``I``-second slots over the whole session.  This module centralises the
slotting logic so both share one well-tested implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.packet import Direction, PacketStream


@dataclass
class SlotSeries:
    """A per-slot aggregate over a packet stream.

    Attributes
    ----------
    slot_duration:
        Width of each slot in seconds.
    start_time:
        Timestamp of the left edge of slot 0.
    values:
        One aggregate value per slot.
    """

    slot_duration: float
    start_time: float
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return float(self.values[index])

    def slot_edges(self) -> np.ndarray:
        """Return the left edge timestamps of every slot."""
        return self.start_time + np.arange(len(self.values)) * self.slot_duration

    def mean(self) -> float:
        """Mean value over all slots (0.0 for an empty series)."""
        return float(self.values.mean()) if self.values.size else 0.0


def _slot_index(timestamps: np.ndarray, origin: float, slot: float) -> np.ndarray:
    return np.floor((timestamps - origin) / slot).astype(int)


def _slot_grid(
    stream: PacketStream,
    slot_duration: float,
    duration: Optional[float],
    origin: Optional[float],
) -> tuple:
    """Shared slot-grid convention: resolved origin and slot count."""
    if slot_duration <= 0:
        raise ValueError(f"slot_duration must be positive, got {slot_duration}")
    origin = stream.start_time if origin is None else origin
    if duration is None:
        all_times = stream.timestamps()
        duration = float(all_times.max() - origin) if all_times.size else 0.0
    n_slots = max(1, int(np.ceil(duration / slot_duration))) if duration > 0 else 1
    return origin, n_slots


def _direction_views(
    stream: PacketStream, direction: Optional[Direction]
) -> Tuple[np.ndarray, np.ndarray]:
    """One consistent ``(timestamps, payload_sizes)`` read for a direction.

    Invariant (pinned by ``tests/test_net_packet_flow.py``): the two arrays
    are index-aligned — element ``i`` of both belongs to the same packet.
    All slot aggregation below must read both columns through this single
    call *before* masking, never re-read one of them after the other has
    been filtered, so that a concurrent append (which re-materialises the
    columns) cannot desynchronise them.
    """
    return stream.timestamps(direction), stream.payload_sizes(direction)


#: Named fast-path aggregators: per-slot packet count / payload-byte sum /
#: mean payload size, computed with one ``np.bincount`` pass instead of the
#: per-slot callback loop.
NAMED_AGGREGATORS = ("count", "sum", "mean")


def slot_aggregate(
    stream: PacketStream,
    slot_duration: float,
    aggregator: Union[str, Callable[[np.ndarray, np.ndarray], float]],
    direction: Optional[Direction] = None,
    duration: Optional[float] = None,
    origin: Optional[float] = None,
) -> SlotSeries:
    """Aggregate a packet stream into fixed-width slots.

    Parameters
    ----------
    stream:
        Source packet stream (columnar; the per-direction timestamp and
        payload-size views are read once, index-aligned).
    slot_duration:
        Slot width in seconds (must be positive).
    aggregator:
        Either one of the :data:`NAMED_AGGREGATORS` strings — ``"count"``
        (packets per slot), ``"sum"`` (payload bytes per slot) or ``"mean"``
        (mean payload size per slot, 0.0 for empty slots) — which run fully
        vectorised on the ``np.bincount`` fast path, or a callable receiving
        ``(timestamps, payload_sizes)`` of one slot's packets and returning
        a scalar (evaluated in a per-slot loop; empty slots keep 0.0).
    direction:
        Restrict to one :class:`Direction`; ``None`` aggregates both.
    duration:
        Total duration to cover.  Defaults to the stream duration.  Empty
        trailing slots are included so that series of equal nominal duration
        have equal length regardless of packet activity.
    origin:
        Timestamp of slot 0's left edge.  Defaults to the first packet.

    Returns
    -------
    SlotSeries
        One float64 value per slot (``ceil(duration / slot_duration)``
        slots, at least one).
    """
    if isinstance(aggregator, str):
        if aggregator not in NAMED_AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {NAMED_AGGREGATORS} or a callable, "
                f"got {aggregator!r}"
            )
        if aggregator == "count":
            return _slot_bincount(
                stream, slot_duration, direction, duration, origin, weighted=False
            )
        if aggregator == "sum":
            return _slot_bincount(
                stream, slot_duration, direction, duration, origin, weighted=True
            )
        return _slot_mean(stream, slot_duration, direction, duration, origin)

    origin, n_slots = _slot_grid(stream, slot_duration, duration, origin)
    timestamps, sizes = _direction_views(stream, direction)

    values = np.zeros(n_slots)
    if timestamps.size:
        indices = _slot_index(timestamps, origin, slot_duration)
        valid = (indices >= 0) & (indices < n_slots)
        indices = indices[valid]
        timestamps = timestamps[valid]
        sizes = sizes[valid]
        for slot in np.unique(indices):
            mask = indices == slot
            values[slot] = aggregator(timestamps[mask], sizes[mask])
    return SlotSeries(slot_duration=slot_duration, start_time=origin, values=values)


def _slot_bincount(
    stream: PacketStream,
    slot_duration: float,
    direction: Optional[Direction],
    duration: Optional[float],
    origin: Optional[float],
    weighted: bool,
) -> SlotSeries:
    """Per-slot packet counts (or payload-byte sums) via one ``bincount``.

    Timestamps and payload sizes are fetched with one
    :func:`_direction_views` call so the ``valid`` mask computed from the
    timestamps always subsets the *matching* size column (previously the
    sizes were re-read from the stream after masking, which relied on the
    stream not being appended to in between).
    """
    origin, n_slots = _slot_grid(stream, slot_duration, duration, origin)
    timestamps, sizes = _direction_views(stream, direction)

    values = np.zeros(n_slots)
    if timestamps.size:
        indices = _slot_index(timestamps, origin, slot_duration)
        valid = (indices >= 0) & (indices < n_slots)
        indices = indices[valid]
        weights = sizes[valid] if weighted else None
        values = np.bincount(indices, weights=weights, minlength=n_slots).astype(float)
    return SlotSeries(slot_duration=slot_duration, start_time=origin, values=values)


def _slot_mean(
    stream: PacketStream,
    slot_duration: float,
    direction: Optional[Direction],
    duration: Optional[float],
    origin: Optional[float],
) -> SlotSeries:
    """Per-slot mean payload size: one slotting pass, two ``bincount`` calls."""
    origin, n_slots = _slot_grid(stream, slot_duration, duration, origin)
    timestamps, sizes = _direction_views(stream, direction)

    values = np.zeros(n_slots)
    if timestamps.size:
        indices = _slot_index(timestamps, origin, slot_duration)
        valid = (indices >= 0) & (indices < n_slots)
        indices = indices[valid]
        sums = np.bincount(indices, weights=sizes[valid], minlength=n_slots)
        counts = np.bincount(indices, minlength=n_slots)
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(counts > 0, sums / counts, 0.0)
    return SlotSeries(slot_duration=slot_duration, start_time=origin, values=values)


def throughput_series(
    stream: PacketStream,
    slot_duration: float,
    direction: Direction,
    duration: Optional[float] = None,
    origin: Optional[float] = None,
) -> SlotSeries:
    """Per-slot payload throughput in Mbps."""
    series = _slot_bincount(
        stream, slot_duration, direction, duration, origin, weighted=True
    )
    series.values *= 8 / slot_duration / 1e6
    return series


def packet_rate_series(
    stream: PacketStream,
    slot_duration: float,
    direction: Direction,
    duration: Optional[float] = None,
    origin: Optional[float] = None,
) -> SlotSeries:
    """Per-slot packet rate in packets per second."""
    series = _slot_bincount(
        stream, slot_duration, direction, duration, origin, weighted=False
    )
    series.values /= slot_duration
    return series


def exponential_moving_average(values: Sequence[float], alpha: float) -> np.ndarray:
    """EMA smoothing: ``attr_t = alpha * attr_t + (1 - alpha) * attr_{t-1}``.

    Equation (1) of the paper.  ``alpha`` is the weight of the *current*
    slot; smaller values smooth more aggressively.  ``values`` may be a 1-D
    sequence (one series) or a 2-D ``(n_series, n_slots)`` array, in which
    case every row is smoothed independently in one vectorised recurrence
    (bit-identical to smoothing each row on its own).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    smoothed = np.empty_like(values)
    smoothed[..., 0] = values[..., 0]
    for index in range(1, values.shape[-1]):
        smoothed[..., index] = (
            alpha * values[..., index] + (1.0 - alpha) * smoothed[..., index - 1]
        )
    return smoothed
