"""Objective QoE measurement and context-calibrated effective QoE (§5.3).

The ISP's existing observability module (the gray box of Fig. 6) labels each
game streaming session's objective QoE as *good*, *medium* or *bad* by
mapping measured frame rate, throughput, latency and packet loss onto fixed
expected ranges (e.g. below 30 FPS or below 8 Mbps → bad).  The paper's
contribution is the *calibration* of those expectations with the classified
gameplay context: low-demand titles (e.g. Hearthstone) and low-demand stages
(idle/passive) legitimately stream at lower frame rates and bitrates, so the
frame-rate and throughput expectations are scaled down accordingly, while
the latency and loss expectations stay unchanged.

This module provides:

* :class:`ObjectiveQoEEstimator` — frame rate, streaming lag, resolution and
  loss estimated from the RTP streaming flow (the "state-of-the-art QoE
  measurement module" the paper builds upon [32]);
* :class:`QoEThresholds` / :func:`qoe_level_from_metrics` — the ISP's
  objective QoE mapping;
* :class:`EffectiveQoECalibrator` — the context-based calibration producing
  effective QoE levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.packet import Direction, PacketStream
from repro.simulation.catalog import (
    CATALOG,
    ActivityPattern,
    GameTitle,
    PlayerStage,
    UNKNOWN_TITLE,
)
from repro.simulation.traffic import DOWNSTREAM_STAGE_LEVELS, FRAME_RATE_STAGE_LEVELS


#: Downstream inter-arrival gaps larger than this are *inter-frame* gaps
#: (frame pacing rather than intra-burst spacing); their 95th percentile
#: approximates worst-case frame delivery lag.  Shared with the approximate
#: QoE reducer (:class:`repro.core.reducers.ApproxQoEIntervalReducer`) so
#: both tiers measure the same gap population.
FRAME_GAP_SECONDS = 0.002

#: Larger spacing marks the start of a new delivery burst — the RTP-free
#: fallback for frame-rate estimation counts these bursts.
BURST_GAP_SECONDS = 0.004


class QoELevel(Enum):
    """The three QoE levels used by the ISP observability system."""

    GOOD = "good"
    MEDIUM = "medium"
    BAD = "bad"


@dataclass(frozen=True)
class QoEMetrics:
    """Objective QoE / QoS metrics of one streaming session (or interval)."""

    frame_rate: float
    throughput_mbps: float
    latency_ms: float
    loss_rate: float
    streaming_lag_ms: Optional[float] = None
    resolution_estimate: Optional[str] = None


@dataclass(frozen=True)
class QoEThresholds:
    """Expected value ranges mapping metrics onto QoE levels.

    A metric below its ``bad`` threshold (or above, for latency/loss) makes
    the session *bad*; between ``bad`` and ``good`` thresholds makes it
    *medium*; otherwise *good*.  Defaults follow §5.3 ("a session with a
    streaming frame rate lower than 30 FPS and/or a throughput below 8 Mbps
    will be labeled with bad objective QoE").
    """

    frame_rate_good: float = 50.0
    frame_rate_bad: float = 30.0
    throughput_good_mbps: float = 12.0
    throughput_bad_mbps: float = 8.0
    latency_good_ms: float = 40.0
    latency_bad_ms: float = 80.0
    loss_good: float = 0.005
    loss_bad: float = 0.02

    def __post_init__(self) -> None:
        if self.frame_rate_bad > self.frame_rate_good:
            raise ValueError("frame_rate_bad must not exceed frame_rate_good")
        if self.throughput_bad_mbps > self.throughput_good_mbps:
            raise ValueError("throughput_bad_mbps must not exceed throughput_good_mbps")
        if self.latency_good_ms > self.latency_bad_ms:
            raise ValueError("latency_good_ms must not exceed latency_bad_ms")
        if self.loss_good > self.loss_bad:
            raise ValueError("loss_good must not exceed loss_bad")


def _level_low_is_bad(value: float, good: float, bad: float) -> QoELevel:
    if value < bad:
        return QoELevel.BAD
    if value < good:
        return QoELevel.MEDIUM
    return QoELevel.GOOD


def _level_high_is_bad(value: float, good: float, bad: float) -> QoELevel:
    if value > bad:
        return QoELevel.BAD
    if value > good:
        return QoELevel.MEDIUM
    return QoELevel.GOOD


_LEVEL_RANK = {QoELevel.GOOD: 0, QoELevel.MEDIUM: 1, QoELevel.BAD: 2}
_LEVELS_BY_RANK = (QoELevel.GOOD, QoELevel.MEDIUM, QoELevel.BAD)


def _rank_levels(
    frame_rate: np.ndarray,
    throughput: np.ndarray,
    latency: np.ndarray,
    loss: np.ndarray,
    frame_rate_good,
    frame_rate_bad,
    throughput_good,
    throughput_bad,
    latency_good,
    latency_bad,
    loss_good,
    loss_bad,
) -> np.ndarray:
    """Worst-verdict QoE rank (0=good, 1=medium, 2=bad) per session.

    Thresholds may be scalars (shared expectations) or per-session arrays
    (calibrated expectations).  Comparisons are the same strict ones as the
    scalar mapping (value < bad ⇒ bad, value < good ⇒ medium, else good;
    flipped for latency/loss), so ranks match per-session calls exactly.
    """

    def low_is_bad(value, good, bad):
        return np.where(value < bad, 2, np.where(value < good, 1, 0))

    def high_is_bad(value, good, bad):
        return np.where(value > bad, 2, np.where(value > good, 1, 0))

    return np.maximum.reduce(
        [
            low_is_bad(frame_rate, frame_rate_good, frame_rate_bad),
            low_is_bad(throughput, throughput_good, throughput_bad),
            high_is_bad(latency, latency_good, latency_bad),
            high_is_bad(loss, loss_good, loss_bad),
        ]
    )


def _metric_arrays(metrics: Sequence[QoEMetrics]) -> tuple:
    """The four gated metrics of a batch as stacked arrays."""
    return (
        np.array([m.frame_rate for m in metrics]),
        np.array([m.throughput_mbps for m in metrics]),
        np.array([m.latency_ms for m in metrics]),
        np.array([m.loss_rate for m in metrics]),
    )


def qoe_levels_from_metrics_batch(
    metrics: Sequence[QoEMetrics],
    thresholds: Sequence[QoEThresholds],
) -> List[QoELevel]:
    """Vectorised :func:`qoe_level_from_metrics` over many sessions.

    ``thresholds`` supplies one (possibly calibrated) expected-range set per
    session.  The four per-metric verdicts of every session are computed on
    stacked arrays with the same strict comparisons as the scalar mapping
    (value < bad ⇒ bad, value < good ⇒ medium, else good; flipped for
    latency/loss) and the worst verdict wins, so results match per-session
    calls exactly.
    """
    if len(metrics) != len(thresholds):
        raise ValueError(
            f"{len(metrics)} metric sets but {len(thresholds)} threshold sets"
        )
    if not metrics:
        return []
    frame_rate, throughput, latency, loss = _metric_arrays(metrics)
    ranks = _rank_levels(
        frame_rate,
        throughput,
        latency,
        loss,
        np.array([t.frame_rate_good for t in thresholds]),
        np.array([t.frame_rate_bad for t in thresholds]),
        np.array([t.throughput_good_mbps for t in thresholds]),
        np.array([t.throughput_bad_mbps for t in thresholds]),
        np.array([t.latency_good_ms for t in thresholds]),
        np.array([t.latency_bad_ms for t in thresholds]),
        np.array([t.loss_good for t in thresholds]),
        np.array([t.loss_bad for t in thresholds]),
    )
    return [_LEVELS_BY_RANK[rank] for rank in ranks]


def qoe_level_from_metrics(
    metrics: QoEMetrics, thresholds: Optional[QoEThresholds] = None
) -> QoELevel:
    """Map session metrics onto a QoE level (worst individual verdict wins)."""
    thresholds = thresholds or QoEThresholds()
    verdicts = [
        _level_low_is_bad(
            metrics.frame_rate, thresholds.frame_rate_good, thresholds.frame_rate_bad
        ),
        _level_low_is_bad(
            metrics.throughput_mbps,
            thresholds.throughput_good_mbps,
            thresholds.throughput_bad_mbps,
        ),
        _level_high_is_bad(
            metrics.latency_ms, thresholds.latency_good_ms, thresholds.latency_bad_ms
        ),
        _level_high_is_bad(metrics.loss_rate, thresholds.loss_good, thresholds.loss_bad),
    ]
    return max(verdicts, key=lambda level: _LEVEL_RANK[level])


def _distinct_count(values: np.ndarray) -> int:
    """Number of distinct values (``np.unique(values).size`` via one sort)."""
    if values.size == 0:
        return 0
    ordered = np.sort(values)
    return int(1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def _percentile_95(values: np.ndarray) -> float:
    """``numpy.percentile(values, 95)`` of a non-empty 1-D float array, spelled out.

    The two order statistics around the virtual index ``(n - 1) * 0.95`` come
    from one sort, and the interpolation is numpy's own ``_lerp`` in numpy's
    own order — ``a + (b - a) * w`` under a weight of one half,
    ``b - (b - a) * (1 - w)`` from one half on — so the result is bit-equal to
    the general routine at a fraction of its fixed cost.  NaN in, NaN out.
    """
    ordered = np.sort(values)
    last = ordered.size - 1
    if math.isnan(ordered[last]):  # NaNs sort to the end
        return math.nan
    virtual = last * 0.95
    below = int(virtual)
    weight = virtual - below
    low = float(ordered[below])
    high = float(ordered[min(below + 1, last)])
    if weight < 0.5:
        return low + (high - low) * weight
    return high - (high - low) * (1 - weight)


class ObjectiveQoEEstimator:
    """Estimates objective QoE metrics from a game streaming flow.

    Frame rate is inferred from distinct RTP timestamps (one per rendered
    frame); packet loss from RTP sequence gaps; streaming lag is approximated
    from the spread of per-frame packet bursts (a congested link stretches
    frame delivery); resolution is coarsely estimated from the per-frame
    byte budget.
    """

    def __init__(self, slot_duration: float = 1.0) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        self.slot_duration = slot_duration

    def estimate(
        self,
        stream: PacketStream,
        latency_ms: Optional[float] = None,
    ) -> QoEMetrics:
        """Estimate session-average metrics from packets.

        ``latency_ms`` may be supplied from out-of-band measurements (e.g.
        TWAMP probes); when omitted a lag-based proxy is used.

        All inputs are read as cached per-direction views of the columnar
        stream (no per-packet work, no intermediate child stream) and fed
        through :meth:`estimate_arrays`, the same core the streaming
        runtime's bounded QoE reducer finalises through.
        """
        return self.estimate_arrays(
            duration_s=stream.duration,
            down_times=stream.timestamps(Direction.DOWNSTREAM),
            down_payload_bytes=float(
                stream.payload_sizes(Direction.DOWNSTREAM).sum()
            ),
            rtp_timestamps=stream.rtp_timestamps(Direction.DOWNSTREAM),
            rtp_sequences=stream.rtp_sequences(Direction.DOWNSTREAM),
            latency_ms=latency_ms,
        )

    def estimate_arrays(
        self,
        duration_s: float,
        down_times: np.ndarray,
        down_payload_bytes: float,
        rtp_timestamps: np.ndarray,
        rtp_sequences: np.ndarray,
        latency_ms: Optional[float] = None,
    ) -> QoEMetrics:
        """Estimate metrics from the QoE-relevant downstream columns.

        ``down_times`` / ``rtp_timestamps`` / ``rtp_sequences`` must be in
        stream (time-sorted arrival) order, exactly the per-direction views
        of a sorted :class:`PacketStream`; ``down_payload_bytes`` is the
        downstream payload byte total (integral, so accumulation order
        cannot change it).  Given equal inputs the result is bit-identical
        to :meth:`estimate` — this is the entry point for bounded session
        state that retains columns instead of packets.
        """
        duration = max(duration_s, 1e-9)
        throughput = down_payload_bytes * 8 / duration / 1e6

        if rtp_timestamps.size:
            frame_rate = _distinct_count(rtp_timestamps) / duration
        else:
            # fall back to burst detection on arrival times
            frame_rate = (
                float(np.sum(np.diff(down_times) > BURST_GAP_SECONDS) + 1) / duration
                if down_times.size > 1
                else 0.0
            )

        loss = self._loss_from_sequences(rtp_sequences)
        lag = self._lag_from_bursts(down_times)
        resolution = self._resolution_from_bitrate(throughput, frame_rate)
        return QoEMetrics(
            frame_rate=float(frame_rate),
            throughput_mbps=float(throughput),
            latency_ms=float(latency_ms if latency_ms is not None else lag),
            loss_rate=float(loss),
            streaming_lag_ms=float(lag),
            resolution_estimate=resolution,
        )

    def estimate_many(
        self,
        streams: Sequence[PacketStream],
        latency_ms: Optional[float] = None,
    ) -> List[QoEMetrics]:
        """Estimate metrics for a corpus of sessions.

        Each session's estimate is already fully vectorised (unique RTP
        timestamps, sequence-gap expansion and burst percentiles run on the
        columnar arrays), so the batch form simply maps over sessions;
        results equal per-session :meth:`estimate` calls.
        """
        return [self.estimate(stream, latency_ms=latency_ms) for stream in streams]

    def estimate_approx(
        self,
        duration_s: float,
        down_payload_bytes: float,
        n_down_packets: int,
        n_frames: int,
        n_rtp: int,
        burst_gap_count: int,
        gap_count: int,
        gap_max_s: float,
        gap_samples: np.ndarray,
        seq_received: int,
        seq_lost: int,
        latency_ms: Optional[float] = None,
    ) -> QoEMetrics:
        """Estimate metrics from O(1) per-session aggregates (the approx tier).

        The inputs are the fixed-size fold state of
        :class:`repro.core.reducers.ApproxQoEIntervalReducer` — no packet
        columns exist any more at this point.  Each metric mirrors the exact
        formula of :meth:`estimate_arrays` on its aggregate:

        * **throughput** — byte total over duration, *exact* (the byte sum
          is integral and order-free);
        * **frame rate** — ``n_frames`` counts strict record highs of the
          RTP timestamp, which equals the distinct count whenever the RTP
          clock is non-decreasing in arrival order (undercounts under
          cross-batch frame interleaving, never overcounts).  Without RTP,
          ``burst_gap_count`` reproduces the burst-detection fallback
          exactly (same :data:`BURST_GAP_SECONDS` population);
        * **loss** — sequence-range minus counting-set arithmetic, exact
          while the session's sequence numbers span at most one 16-bit wrap
          and the stream has no resets (see the reducer's docstring for the
          error model past that);
        * **lag** — the 95th percentile of the reservoir-sampled inter-frame
          gaps; exact while ``gap_count`` fits the reservoir, a fixed-seed
          unbiased sample estimate beyond it.
        """
        duration = max(duration_s, 1e-9)
        throughput = down_payload_bytes * 8 / duration / 1e6

        if n_rtp:
            frame_rate = n_frames / duration
        else:
            frame_rate = (
                float(burst_gap_count + 1) / duration if n_down_packets > 1 else 0.0
            )

        # mirror _loss_from_sequences: fewer than two observed sequence
        # numbers cannot witness a gap
        if seq_received >= 2 and (seq_received + seq_lost) > 0:
            loss = seq_lost / (seq_received + seq_lost)
        else:
            loss = 0.0

        # mirror _lag_from_bursts: below 10 packets the percentile is noise
        if n_down_packets < 10 or gap_count == 0:
            lag = 0.0
        elif gap_samples.size:
            lag = _percentile_95(gap_samples) * 1000.0
        else:  # defensive: aggregates from a foreign producer
            lag = float(gap_max_s * 1000.0)

        resolution = self._resolution_from_bitrate(throughput, frame_rate)
        return QoEMetrics(
            frame_rate=float(frame_rate),
            throughput_mbps=float(throughput),
            latency_ms=float(latency_ms if latency_ms is not None else lag),
            loss_rate=float(loss),
            streaming_lag_ms=float(lag),
            resolution_estimate=resolution,
        )

    def _loss_from_sequences(self, sequences: np.ndarray) -> float:
        """Loss rate from downstream RTP sequence numbers (arrival order)."""
        if sequences.size < 2:
            return 0.0
        received = int(sequences.size)
        gaps = (sequences[1:] - sequences[:-1] - 1) & 0xFFFF
        # small gaps are candidate losses; large jumps are stream resets
        # (e.g. a new RTP segment), not loss bursts.  A skipped sequence
        # number that still shows up elsewhere in the flow was merely
        # reordered by jitter, not lost.
        candidate = (gaps > 0) & (gaps < 200)
        lost = 0
        if candidate.any():
            gap_sizes = gaps[candidate]
            gap_starts = sequences[:-1][candidate]
            # expand every gap into its skipped sequence numbers at once:
            # start_i + (1 .. gap_i), flattened across all gaps
            offsets = np.arange(int(gap_sizes.sum())) - np.repeat(
                np.cumsum(gap_sizes) - gap_sizes, gap_sizes
            )
            skipped = (np.repeat(gap_starts, gap_sizes) + offsets + 1) & 0xFFFF
            if sequences.min() >= 0 and sequences.max() <= 0xFFFF:
                # membership via a 64k table instead of unique + isin
                seen_mask = np.zeros(0x10000, dtype=bool)
                seen_mask[sequences] = True
                lost = int(np.count_nonzero(~seen_mask[skipped]))
            else:
                lost = int(
                    np.count_nonzero(~np.isin(skipped, np.unique(sequences)))
                )
        total = received + lost
        return lost / total if total else 0.0

    def _lag_from_bursts(self, times: np.ndarray) -> float:
        """95th-percentile inter-frame gap (ms) from downstream timestamps."""
        if times.size < 10:
            return 0.0
        gaps = times[1:] - times[:-1]
        # inter-frame gaps (larger than intra-burst spacing) indicate pacing;
        # their 95th percentile approximates worst-case frame delivery lag
        frame_gaps = gaps[gaps > FRAME_GAP_SECONDS]
        if frame_gaps.size == 0:
            return 0.0
        return _percentile_95(frame_gaps) * 1000.0

    def _resolution_from_bitrate(self, throughput_mbps: float, frame_rate: float) -> str:
        if frame_rate <= 0 or throughput_mbps <= 0:
            return "unknown"
        bits_per_frame = throughput_mbps * 1e6 / frame_rate
        if bits_per_frame < 1.5e5:
            return "SD"
        if bits_per_frame < 3.5e5:
            return "HD"
        if bits_per_frame < 7e5:
            return "FHD"
        if bits_per_frame < 1.2e6:
            return "QHD"
        return "UHD"


@dataclass
class EffectiveQoECalibrator:
    """Calibrates objective QoE expectations with the classified game context.

    Parameters
    ----------
    base_thresholds:
        The ISP's uncalibrated expected value ranges.
    pattern_demand:
        Relative bandwidth/frame-rate demand assumed for sessions known only
        by their gameplay activity pattern (vs an average high-demand title).
    min_scale:
        Lower bound on the demand scaling so expectations never collapse to
        zero.
    """

    base_thresholds: QoEThresholds = field(default_factory=QoEThresholds)
    pattern_demand: Dict[ActivityPattern, float] = field(
        default_factory=lambda: {
            ActivityPattern.SPECTATE_AND_PLAY: 0.85,
            ActivityPattern.CONTINUOUS_PLAY: 0.75,
        }
    )
    min_scale: float = 0.15
    #: Reference throughput (Mbps) corresponding to a demand scale of 1.0 —
    #: roughly the active-stage bitrate of the most demanding titles at FHD.
    reference_demand_mbps: float = 28.0

    # ------------------------------------------------------------ scaling
    def _title_demand_scale(self, title: Optional[GameTitle]) -> float:
        """How demanding a title is relative to the reference (0..1]."""
        if title is None:
            return 1.0
        clusters = title.bitrate_clusters_mbps
        mid_cluster = clusters[min(1, len(clusters) - 1)]
        typical = (mid_cluster[0] + mid_cluster[1]) / 2.0
        return float(np.clip(typical / self.reference_demand_mbps, self.min_scale, 1.0))

    def _stage_demand_scale(
        self, stage_fractions: Optional[Dict[PlayerStage, float]]
    ) -> Dict[str, float]:
        """Throughput and frame-rate scales implied by the stage mix."""
        if not stage_fractions:
            return {"throughput": 1.0, "frame_rate": 1.0}
        total = sum(
            stage_fractions.get(stage, 0.0) for stage in PlayerStage.gameplay_stages()
        )
        if total <= 0:
            return {"throughput": 1.0, "frame_rate": 1.0}
        throughput_scale = 0.0
        frame_scale = 0.0
        for stage in PlayerStage.gameplay_stages():
            weight = stage_fractions.get(stage, 0.0) / total
            throughput_scale += weight * DOWNSTREAM_STAGE_LEVELS[stage]
            frame_scale += weight * FRAME_RATE_STAGE_LEVELS[stage]
        return {
            "throughput": float(np.clip(throughput_scale, self.min_scale, 1.0)),
            "frame_rate": float(np.clip(frame_scale, self.min_scale, 1.0)),
        }

    def _calibration_scales_batch(
        self,
        title_names: Sequence[Optional[str]],
        patterns: Sequence[Optional[ActivityPattern]],
        stage_fractions: Sequence[Optional[Dict[PlayerStage, float]]],
        fps_settings: Sequence[Optional[int]],
    ) -> tuple:
        """Per-session (frame_scale, throughput_scale) arrays, vectorised.

        The context-demand derivation of :meth:`calibrated_thresholds` for a
        whole batch at once: the demand of each *distinct* title/pattern is
        derived once (the catalog lookup and clip run per unique context, not
        per session), the stage-mix scaling runs on one stacked fraction
        matrix, and the final clips/caps are elementwise array ops.  Every
        arithmetic step applies the same float64 operations in the same
        association order as the scalar path, so the scales are bit-identical
        to per-session :meth:`calibrated_thresholds` calls.
        """
        n = len(title_names)
        # ---- intrinsic demand per distinct context (title beats pattern)
        tokens: List[str] = []
        for name, pattern in zip(title_names, patterns):
            title = CATALOG.get(name) if name and name != UNKNOWN_TITLE else None
            if title is not None:
                tokens.append(f"t:{name}")
            elif pattern is not None:
                tokens.append(f"p:{pattern.value}")
            else:
                tokens.append("-")
        unique_tokens, inverse = np.unique(np.asarray(tokens, dtype=object), return_inverse=True)
        unique_demand = np.empty(unique_tokens.size)
        for index, token in enumerate(unique_tokens.tolist()):
            if token.startswith("t:"):
                unique_demand[index] = self._title_demand_scale(CATALOG[token[2:]])
            elif token.startswith("p:"):
                unique_demand[index] = self.pattern_demand.get(
                    ActivityPattern(token[2:]), 1.0
                )
            else:
                unique_demand[index] = 1.0
        demand = unique_demand[inverse]

        # ---- stage-mix scaling on one stacked fraction matrix
        stages = PlayerStage.gameplay_stages()
        fractions = np.zeros((n, len(stages)))
        for row, mix in enumerate(stage_fractions):
            if mix:
                fractions[row] = [mix.get(stage, 0.0) for stage in stages]
        # accumulate in stage order, matching the scalar loop's association
        totals = np.zeros(n)
        for column in range(len(stages)):
            totals = totals + fractions[:, column]
        scaled_mix = totals > 0
        safe_totals = np.where(scaled_mix, totals, 1.0)
        weights = fractions / safe_totals[:, None]
        throughput_stage = np.zeros(n)
        frame_stage = np.zeros(n)
        for column, stage in enumerate(stages):
            throughput_stage = throughput_stage + weights[:, column] * DOWNSTREAM_STAGE_LEVELS[stage]
            frame_stage = frame_stage + weights[:, column] * FRAME_RATE_STAGE_LEVELS[stage]
        throughput_stage = np.where(
            scaled_mix, np.clip(throughput_stage, self.min_scale, 1.0), 1.0
        )
        frame_stage = np.where(
            scaled_mix, np.clip(frame_stage, self.min_scale, 1.0), 1.0
        )

        throughput_scale = np.maximum(self.min_scale, demand * throughput_stage)
        frame_scale = np.maximum(self.min_scale, demand * frame_stage)
        # None means "no cap"; the mask must come from None-ness, not a
        # numeric sentinel, to match the scalar path for any fps value
        capped = np.array(
            [value is not None and value < 60 for value in fps_settings], dtype=bool
        )
        if capped.any():
            fps = np.array(
                [60.0 if value is None else float(value) for value in fps_settings]
            )
            frame_scale = np.where(
                capped, np.minimum(frame_scale, fps / 60.0), frame_scale
            )
        return frame_scale, throughput_scale

    def calibrated_thresholds_batch(
        self,
        title_names: Sequence[Optional[str]],
        patterns: Sequence[Optional[ActivityPattern]],
        stage_fractions: Sequence[Optional[Dict[PlayerStage, float]]],
        fps_settings: Optional[Sequence[Optional[int]]] = None,
    ) -> List[QoEThresholds]:
        """Batched :meth:`calibrated_thresholds`: one threshold set per session.

        The numeric derivation runs once on stacked arrays
        (:meth:`_calibration_scales_batch`); only the final
        :class:`QoEThresholds` construction remains per session.  Results are
        identical to per-session :meth:`calibrated_thresholds` calls.
        """
        if fps_settings is None:
            fps_settings = [None] * len(title_names)
        frame_scale, throughput_scale = self._calibration_scales_batch(
            title_names, patterns, stage_fractions, fps_settings
        )
        base = self.base_thresholds
        return [
            replace(
                base,
                frame_rate_good=base.frame_rate_good * fs,
                frame_rate_bad=base.frame_rate_bad * fs,
                throughput_good_mbps=base.throughput_good_mbps * ts,
                throughput_bad_mbps=base.throughput_bad_mbps * ts,
            )
            for fs, ts in zip(frame_scale, throughput_scale)
        ]

    def calibrated_thresholds(
        self,
        title_name: Optional[str] = None,
        pattern: Optional[ActivityPattern] = None,
        stage_fractions: Optional[Dict[PlayerStage, float]] = None,
        fps_setting: Optional[int] = None,
    ) -> QoEThresholds:
        """Expected value ranges calibrated for the given context.

        Frame-rate and throughput expectations scale down with the title's
        intrinsic demand (or the pattern's, when the title is unknown) and
        with the session's idle/passive share; latency and loss expectations
        are left unchanged (as in the paper).
        """
        title = CATALOG.get(title_name) if title_name and title_name != UNKNOWN_TITLE else None
        if title is not None:
            demand = self._title_demand_scale(title)
        elif pattern is not None:
            demand = self.pattern_demand.get(pattern, 1.0)
        else:
            demand = 1.0
        stage_scales = self._stage_demand_scale(stage_fractions)

        throughput_scale = max(self.min_scale, demand * stage_scales["throughput"])
        # frame-rate expectations also relax for low-demand contexts: a card
        # game with near-static scenes neither needs 60 fps nor high bitrate
        frame_scale = max(self.min_scale, demand * stage_scales["frame_rate"])
        if fps_setting is not None and fps_setting < 60:
            # a user streaming at 30 fps cannot be expected to exceed it
            frame_scale = min(frame_scale, fps_setting / 60.0)

        base = self.base_thresholds
        return replace(
            base,
            frame_rate_good=base.frame_rate_good * frame_scale,
            frame_rate_bad=base.frame_rate_bad * frame_scale,
            throughput_good_mbps=base.throughput_good_mbps * throughput_scale,
            throughput_bad_mbps=base.throughput_bad_mbps * throughput_scale,
        )

    # ------------------------------------------------------------ labeling
    def objective_level(self, metrics: QoEMetrics) -> QoELevel:
        """Uncalibrated (objective) QoE level."""
        return qoe_level_from_metrics(metrics, self.base_thresholds)

    def objective_levels(self, metrics: Sequence[QoEMetrics]) -> List[QoELevel]:
        """Uncalibrated QoE levels for a batch of sessions (vectorised).

        The shared base expectations broadcast against the stacked metric
        arrays, so no per-session threshold objects are materialised.
        """
        if not metrics:
            return []
        base = self.base_thresholds
        frame_rate, throughput, latency, loss = _metric_arrays(metrics)
        ranks = _rank_levels(
            frame_rate,
            throughput,
            latency,
            loss,
            base.frame_rate_good,
            base.frame_rate_bad,
            base.throughput_good_mbps,
            base.throughput_bad_mbps,
            base.latency_good_ms,
            base.latency_bad_ms,
            base.loss_good,
            base.loss_bad,
        )
        return [_LEVELS_BY_RANK[rank] for rank in ranks]

    def effective_levels(
        self,
        metrics: Sequence[QoEMetrics],
        title_names: Sequence[Optional[str]],
        patterns: Sequence[Optional[ActivityPattern]],
        stage_fractions: Sequence[Optional[Dict[PlayerStage, float]]],
        fps_settings: Optional[Sequence[Optional[int]]] = None,
    ) -> List[QoELevel]:
        """Context-calibrated QoE levels for a batch of sessions.

        Per-session calibrated expectations are derived from the classified
        context in one vectorised pass (:meth:`_calibration_scales_batch` —
        no per-session ``QoEThresholds`` objects are built), then the
        metric-to-level mapping runs once over the stacked arrays.  Levels
        equal per-session :meth:`effective_level` calls exactly.
        ``title_names`` / ``patterns`` / ``stage_fractions`` (and optional
        ``fps_settings``) must align index-wise with ``metrics``.
        """
        if not (len(metrics) == len(title_names) == len(patterns) == len(stage_fractions)):
            raise ValueError("batch calibration inputs must have equal lengths")
        if not metrics:
            return []
        if fps_settings is None:
            fps_settings = [None] * len(metrics)
        frame_scale, throughput_scale = self._calibration_scales_batch(
            title_names, patterns, stage_fractions, fps_settings
        )
        base = self.base_thresholds
        frame_rate, throughput, latency, loss = _metric_arrays(metrics)
        ranks = _rank_levels(
            frame_rate,
            throughput,
            latency,
            loss,
            base.frame_rate_good * frame_scale,
            base.frame_rate_bad * frame_scale,
            base.throughput_good_mbps * throughput_scale,
            base.throughput_bad_mbps * throughput_scale,
            base.latency_good_ms,
            base.latency_bad_ms,
            base.loss_good,
            base.loss_bad,
        )
        return [_LEVELS_BY_RANK[rank] for rank in ranks]

    def effective_level(
        self,
        metrics: QoEMetrics,
        title_name: Optional[str] = None,
        pattern: Optional[ActivityPattern] = None,
        stage_fractions: Optional[Dict[PlayerStage, float]] = None,
        fps_setting: Optional[int] = None,
    ) -> QoELevel:
        """Context-calibrated (effective) QoE level."""
        thresholds = self.calibrated_thresholds(
            title_name=title_name,
            pattern=pattern,
            stage_fractions=stage_fractions,
            fps_setting=fps_setting,
        )
        return qoe_level_from_metrics(metrics, thresholds)
