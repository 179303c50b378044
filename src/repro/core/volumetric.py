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

The raw per-slot attributes come from the slot reducer's counters
(:func:`repro.core.reducers.raw_slot_matrix`); the generator below holds
the array transforms applied to them offline, and
:class:`OnlineVolumetricTracker` the slot-by-slot form used by the
real-time pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


#: Attribute names in canonical order.
VOLUMETRIC_FEATURE_NAMES = (
    "down_throughput_rel",
    "down_packet_rate_rel",
    "up_throughput_rel",
    "up_packet_rate_rel",
)


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


class VolumetricAttributeGenerator:
    """Computes EMA-smoothed relative volumetric attributes per slot.

    Parameters
    ----------
    alpha:
        EMA weight of the current slot (0.5 in the deployed system;
        evaluated between 0.1 and 1.0 in Fig. 10).
    peak_floor_fraction:
        Fraction of the launch-stage peak used as the minimum peak estimate,
        so that early gameplay slots are not normalised against a tiny peak.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        peak_floor_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= peak_floor_fraction <= 1.0:
            raise ValueError(
                f"peak_floor_fraction must be in [0, 1], got {peak_floor_fraction}"
            )
        self.alpha = alpha
        self.peak_floor_fraction = peak_floor_fraction

    # ------------------------------------------------------------ offline
    def relative_matrix(self, raw: np.ndarray) -> np.ndarray:
        """Convert raw attributes to fractions of the running peak.

        Each slot is normalised by the peak observed in slots up to and
        including itself (causal, as in the real-time system), floored at
        ``peak_floor_fraction`` of the whole-session peak.
        """
        if raw.ndim != 2 or raw.shape[1] != 4:
            raise ValueError(f"raw matrix must have 4 columns, got shape {raw.shape}")
        peaks = np.maximum.accumulate(raw, axis=0)
        floor = self.peak_floor_fraction * raw.max(axis=0)
        peaks = np.maximum(peaks, floor[None, :])
        peaks = np.where(peaks <= 0, 1.0, peaks)
        return np.clip(raw / peaks, 0.0, 1.0)

    def smooth_many(self, relatives: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Apply the EMA of Equation 1 to many sessions' relative matrices.

        The recurrences of all sessions and columns advance in lockstep on
        one zero-padded ``(n_sessions, max_slots, 4)`` stack.  The EMA is
        elementwise per session, so each returned matrix is bit-identical to
        smoothing its columns one at a time (pinned by
        ``tests/test_tick_fold.py``).
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

    def step(self, raw: Sequence[float]) -> List[float]:
        """Consume one slot of four raw attributes; return four smoothed relatives.

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

    def snapshot(self) -> dict:
        """Copy of the carried state (peaks + EMA) as a plain dict."""
        return {
            "alpha": self.alpha,
            "peak_floor": self.peak_floor,
            "peaks": np.array(self._peaks),
            "ema": None if self._ema is None else np.array(self._ema),
        }

    def restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`snapshot`; subsequent steps continue bit-identically."""
        self.alpha = snapshot["alpha"]
        self.peak_floor = snapshot["peak_floor"]
        self._peaks = snapshot["peaks"].tolist()
        ema = snapshot["ema"]
        self._ema = None if ema is None else ema.tolist()
