"""Bidirectional volumetric attributes for player-activity classification (§4.3.1).

Per ``I``-second slot the method computes four standard volumetric
attributes of the game streaming flow — downstream throughput, downstream
packet rate, upstream throughput and upstream packet rate — then

1. converts each attribute to its *relative* fraction of the session's peak
   value observed so far (above a launch-calibrated threshold), making the
   representation independent of the absolute bitrate of the title/settings;
2. smooths each attribute with an exponential moving average (Equation 1)
   with current-slot weight ``alpha``, suppressing spurious one-slot
   behaviours like an accidental mouse movement while spectating.

The generator below supports both offline (whole-session) extraction used
for training and an online streaming mode used by the real-time pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.packet import Direction, PacketStream
from repro.net.timeseries import exponential_moving_average

#: Attribute names in canonical order.
VOLUMETRIC_FEATURE_NAMES = (
    "down_throughput_rel",
    "down_packet_rate_rel",
    "up_throughput_rel",
    "up_packet_rate_rel",
)


@dataclass
class VolumetricSlot:
    """Raw and relative volumetric attributes of one ``I``-second slot."""

    slot_index: int
    down_throughput_mbps: float
    down_packet_rate: float
    up_throughput_kbps: float
    up_packet_rate: float
    relative: np.ndarray

    def as_dict(self) -> Dict[str, float]:
        return {
            "slot_index": self.slot_index,
            "down_throughput_mbps": self.down_throughput_mbps,
            "down_packet_rate": self.down_packet_rate,
            "up_throughput_kbps": self.up_throughput_kbps,
            "up_packet_rate": self.up_packet_rate,
            **dict(zip(VOLUMETRIC_FEATURE_NAMES, self.relative.tolist())),
        }


class VolumetricAttributeGenerator:
    """Computes EMA-smoothed relative volumetric attributes per slot.

    Parameters
    ----------
    slot_duration:
        Slot size ``I`` in seconds (1 second in the deployed system).
    alpha:
        EMA weight of the current slot (0.5 in the deployed system;
        evaluated between 0.1 and 1.0 in Fig. 10).
    peak_floor_fraction:
        Fraction of the launch-stage peak used as the minimum peak estimate,
        so that early gameplay slots are not normalised against a tiny peak.
    """

    def __init__(
        self,
        slot_duration: float = 1.0,
        alpha: float = 0.5,
        peak_floor_fraction: float = 0.25,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= peak_floor_fraction <= 1.0:
            raise ValueError(
                f"peak_floor_fraction must be in [0, 1], got {peak_floor_fraction}"
            )
        self.slot_duration = slot_duration
        self.alpha = alpha
        self.peak_floor_fraction = peak_floor_fraction

    # ------------------------------------------------------------ offline
    def raw_slot_matrix(
        self,
        stream: PacketStream,
        duration: Optional[float] = None,
        origin: Optional[float] = None,
    ) -> np.ndarray:
        """Raw per-slot attributes: columns are (down Mbps, down pps, up Kbps, up pps)."""
        origin = stream.start_time if origin is None else origin
        all_times = stream.timestamps()
        if duration is None:
            duration = float(all_times.max() - origin) if all_times.size else 0.0
        n_slots = max(1, int(np.ceil(duration / self.slot_duration)))

        matrix = np.zeros((n_slots, 4))
        for column, direction in ((0, Direction.DOWNSTREAM), (2, Direction.UPSTREAM)):
            times = stream.timestamps(direction)
            sizes = stream.payload_sizes(direction)
            if not times.size:
                continue
            indices = np.floor((times - origin) / self.slot_duration).astype(int)
            valid = (indices >= 0) & (indices < n_slots)
            indices = indices[valid]
            sizes_v = sizes[valid]
            byte_sum = np.bincount(indices, weights=sizes_v, minlength=n_slots)
            pkt_count = np.bincount(indices, minlength=n_slots)
            if direction is Direction.DOWNSTREAM:
                matrix[:, 0] = byte_sum * 8 / self.slot_duration / 1e6
                matrix[:, 1] = pkt_count / self.slot_duration
            else:
                matrix[:, 2] = byte_sum * 8 / self.slot_duration / 1e3
                matrix[:, 3] = pkt_count / self.slot_duration
        return matrix

    def relative_matrix(self, raw: np.ndarray, causal: bool = True) -> np.ndarray:
        """Convert raw attributes to fractions of the (running) peak.

        Parameters
        ----------
        causal:
            When ``True`` (default, matching the real-time system) each slot
            is normalised by the peak observed in slots up to and including
            itself; when ``False`` the whole-session peak is used.
        """
        if raw.ndim != 2 or raw.shape[1] != 4:
            raise ValueError(f"raw matrix must have 4 columns, got shape {raw.shape}")
        if causal:
            peaks = np.maximum.accumulate(raw, axis=0)
        else:
            peaks = np.tile(raw.max(axis=0), (raw.shape[0], 1))
        session_peak = raw.max(axis=0)
        floor = self.peak_floor_fraction * session_peak
        peaks = np.maximum(peaks, floor[None, :])
        peaks = np.where(peaks <= 0, 1.0, peaks)
        return np.clip(raw / peaks, 0.0, 1.0)

    def smooth(self, relative: np.ndarray) -> np.ndarray:
        """Apply the EMA of Equation 1 column-wise."""
        smoothed = np.empty_like(relative)
        for column in range(relative.shape[1]):
            smoothed[:, column] = exponential_moving_average(
                relative[:, column], self.alpha
            )
        return smoothed

    def transform(
        self,
        stream: PacketStream,
        duration: Optional[float] = None,
        origin: Optional[float] = None,
        causal: bool = True,
    ) -> np.ndarray:
        """Full offline pipeline: raw -> relative -> EMA-smoothed attributes."""
        raw = self.raw_slot_matrix(stream, duration=duration, origin=origin)
        return self.smooth(self.relative_matrix(raw, causal=causal))

    def transform_many(
        self, streams: Sequence[PacketStream], causal: bool = True
    ) -> List[np.ndarray]:
        """Batched :meth:`transform` over a corpus of sessions.

        Per-slot counting stays per session (one pair of ``bincount`` calls
        each), but the EMA recurrences of all sessions advance in lockstep on
        one zero-padded ``(n_sessions, max_slots, 4)`` stack.  Smoothing is
        elementwise per session, so each returned ``(n_slots_i, 4)`` matrix
        is bit-identical to its per-session :meth:`transform`.
        """
        if not streams:
            return []
        return self.smooth_many(
            [
                self.relative_matrix(self.raw_slot_matrix(stream), causal=causal)
                for stream in streams
            ]
        )

    def smooth_many(self, relatives: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Apply :meth:`smooth` to many sessions' relative matrices at once.

        The EMA recurrences of all sessions advance in lockstep on one
        zero-padded ``(n_sessions, max_slots, 4)`` stack; each returned
        matrix is bit-identical to its per-session :meth:`smooth`.
        """
        if not relatives:
            return []
        lengths = [matrix.shape[0] for matrix in relatives]
        max_length = max(lengths)
        if max_length == 0:
            return [matrix.copy() for matrix in relatives]
        stacked = np.zeros((len(relatives), max_length, 4))
        for index, matrix in enumerate(relatives):
            stacked[index, : matrix.shape[0]] = matrix
        # smooth along the slot axis for all sessions and columns at once
        smoothed = exponential_moving_average(
            stacked.transpose(0, 2, 1), self.alpha
        ).transpose(0, 2, 1)
        return [smoothed[index, :length] for index, length in enumerate(lengths)]

    def slots(
        self,
        stream: PacketStream,
        duration: Optional[float] = None,
        origin: Optional[float] = None,
    ) -> List[VolumetricSlot]:
        """Per-slot records combining raw and processed attributes."""
        raw = self.raw_slot_matrix(stream, duration=duration, origin=origin)
        processed = self.smooth(self.relative_matrix(raw))
        return [
            VolumetricSlot(
                slot_index=index,
                down_throughput_mbps=float(raw[index, 0]),
                down_packet_rate=float(raw[index, 1]),
                up_throughput_kbps=float(raw[index, 2]),
                up_packet_rate=float(raw[index, 3]),
                relative=processed[index],
            )
            for index in range(raw.shape[0])
        ]


class OnlineVolumetricTracker:
    """Streaming (slot-by-slot) version of the attribute generator.

    The real-time pipeline feeds one slot of raw counters at a time; the
    tracker maintains running peaks and the EMA state.  One slot is four
    numbers, so the state lives in python floats: every step is the same
    single IEEE operation the generator's array expressions apply per
    element, without a dozen numpy calls per slot.
    """

    def __init__(self, alpha: float = 0.5, peak_floor: float = 1e-6) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.peak_floor = peak_floor
        self._peaks: List[float] = [peak_floor] * 4
        self._ema: Optional[List[float]] = None

    def update(self, raw_slot: Sequence[float]) -> np.ndarray:
        """Consume one slot of raw attributes and return smoothed relatives."""
        raw = np.asarray(raw_slot, dtype=float)
        if raw.shape != (4,):
            raise ValueError(f"raw_slot must have 4 values, got shape {raw.shape}")
        return np.array(self.step(raw.tolist()))

    def step(self, raw: Sequence[float]) -> List[float]:
        """:meth:`update` on four python floats, returning four.

        Unrolled over the four lanes: each line is the per-element IEEE
        operation of the generator's array expressions, in the same order.
        """
        r0, r1, r2, r3 = raw
        p0, p1, p2, p3 = self._peaks
        p0, p1, p2, p3 = max(p0, r0), max(p1, r1), max(p2, r2), max(p3, r3)
        self._peaks = [p0, p1, p2, p3]
        c0 = min(max(r0 / (1.0 if p0 <= 0 else p0), 0.0), 1.0)
        c1 = min(max(r1 / (1.0 if p1 <= 0 else p1), 0.0), 1.0)
        c2 = min(max(r2 / (1.0 if p2 <= 0 else p2), 0.0), 1.0)
        c3 = min(max(r3 / (1.0 if p3 <= 0 else p3), 0.0), 1.0)
        if self._ema is not None:
            alpha, decay = self.alpha, 1.0 - self.alpha
            e0, e1, e2, e3 = self._ema
            c0, c1 = alpha * c0 + decay * e0, alpha * c1 + decay * e1
            c2, c3 = alpha * c2 + decay * e2, alpha * c3 + decay * e3
        self._ema = [c0, c1, c2, c3]
        return [c0, c1, c2, c3]

    def reset(self) -> None:
        """Clear peaks and EMA state (e.g. at the start of a new session)."""
        self._peaks = [self.peak_floor] * 4
        self._ema = None

    def snapshot(self) -> dict:
        """Copy of the carried state (peaks + EMA) as a plain dict."""
        return {
            "alpha": self.alpha,
            "peak_floor": self.peak_floor,
            "peaks": np.array(self._peaks),
            "ema": None if self._ema is None else np.array(self._ema),
        }

    def restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`snapshot`; subsequent updates continue bit-identically."""
        self.alpha = snapshot["alpha"]
        self.peak_floor = snapshot["peak_floor"]
        self._peaks = snapshot["peaks"].tolist()
        ema = snapshot["ema"]
        self._ema = None if ema is None else ema.tolist()
