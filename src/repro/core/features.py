"""The 51 launch-stage attributes used for game-title classification (§4.2.2).

Fig. 7 of the paper describes the attribute formulation: per ``T``-second
time slot, the packets of each group (full / steady / sparse) are summarised
with

* packet **count**: ``sum`` (1 attribute per group);
* payload **size**: ``sum, mean, median, min, max, stddev, kurtosis, skew``
  (8 attributes per group);
* **inter-arrival time**: ``sum, mean, median, min, max, stddev, kurtosis,
  skew`` (8 attributes per group);

giving 17 attributes per group and 51 in total per time slot.  A session's
feature vector concatenates the per-slot attributes of all slots in the
analysed window (first ``N`` seconds); for model training, per-slot vectors
are averaged over slots to obtain a fixed-length 51-dimensional description,
mirroring the batched processing of §4.2.3.

All 51 attributes of every slot of a batch are computed with grouped
reductions over a single concatenated value array (DESIGN.md §3): segment
ids combine (slot, group), counts/sums/moments come from ``np.bincount`` and
order statistics from the (segment, value) order of two stable argsorts —
no per-slot or per-group Python loops.  :func:`launch_feature_matrix` takes
the labeled rows of a whole batch from one
:meth:`~repro.core.packet_groups.PacketGroupLabeler.label_windows` pass.

The module also provides the baseline "flow volumetric" attributes (packet
rate and throughput per slot) the paper compares against in Table 3.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.packet_groups import PacketGroup, PacketGroupLabeler
from repro.net.packet import Direction, PacketStream

#: Statistical representation functions applied to payload sizes and
#: inter-arrival times (Fig. 7).
_STAT_NAMES = ("sum", "mean", "median", "min", "max", "stddev", "kurtosis", "skew")

#: Metric prefixes per packet group: ct = packet count, sz = payload size,
#: it = inter-arrival time.
_GROUP_PREFIXES = {
    PacketGroup.FULL: "full",
    PacketGroup.STEADY: "steady",
    PacketGroup.SPARSE: "sparse",
}

#: A slot with no packets of a group contributes all-zero statistics; a
#: degenerate (constant) group has no higher-moment shape.
_DEGENERATE_STD = 1e-12


def _grouped_stat_matrix(
    values: np.ndarray,
    segments: np.ndarray,
    n_segments: int,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The eight :data:`_STAT_NAMES` statistics for every segment at once.

    ``segments`` assigns each value to one of ``n_segments`` groups; empty
    segments produce all-zero rows (an absent group in a slot is itself a
    signal) and single-value / constant segments have zero higher moments.
    Moments are accumulated with ``np.bincount`` (kurtosis/skew follow
    scipy's biased formulas) and order statistics are read from one
    value-sorted pass.  ``counts`` may supply a precomputed
    ``bincount(segments)``.
    """
    out = np.zeros((n_segments, len(_STAT_NAMES)))
    if counts is None:
        counts = np.bincount(segments, minlength=n_segments) if values.size else np.zeros(
            n_segments, dtype=int
        )
    nonempty = counts > 0
    if not nonempty.any():
        return out
    cnt = counts[nonempty].astype(float)

    sums = np.bincount(segments, weights=values, minlength=n_segments)
    mean = np.zeros(n_segments)
    mean[nonempty] = sums[nonempty] / cnt

    deviations = values - mean[segments]
    m2 = np.bincount(segments, weights=deviations * deviations, minlength=n_segments)
    m3 = np.bincount(segments, weights=deviations ** 3, minlength=n_segments)
    m4 = np.bincount(segments, weights=deviations ** 4, minlength=n_segments)
    m2[nonempty] /= cnt
    m3[nonempty] /= cnt
    m4[nonempty] /= cnt
    std = np.sqrt(m2)

    # order statistics: one value-sorted pass, segments stay contiguous
    order = _segment_order(values, segments)
    sorted_values = values[order]
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    ne_starts = starts[nonempty]
    ne_counts = counts[nonempty]
    mins = np.zeros(n_segments)
    maxs = np.zeros(n_segments)
    medians = np.zeros(n_segments)
    mins[nonempty] = sorted_values[ne_starts]
    maxs[nonempty] = sorted_values[ne_starts + ne_counts - 1]
    lower = sorted_values[ne_starts + (ne_counts - 1) // 2]
    upper = sorted_values[ne_starts + ne_counts // 2]
    medians[nonempty] = (lower + upper) / 2.0

    # degenerate (constant or single-value) segments have no shape
    shaped = nonempty & (std > _DEGENERATE_STD)
    kurtosis = np.zeros(n_segments)
    skew = np.zeros(n_segments)
    with np.errstate(all="ignore"):
        raw_kurtosis = m4 / (m2 * m2) - 3.0
        raw_skew = m3 / (m2 ** 1.5)
    kurtosis[shaped] = np.where(
        np.isfinite(raw_kurtosis[shaped]), raw_kurtosis[shaped], 0.0
    )
    skew[shaped] = np.where(np.isfinite(raw_skew[shaped]), raw_skew[shaped], 0.0)

    out[:, 0] = sums
    out[:, 1] = mean
    out[:, 2] = medians
    out[:, 3] = mins
    out[:, 4] = maxs
    out[:, 5] = std
    out[:, 6] = kurtosis
    out[:, 7] = skew
    return out


def _segment_order(values: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """The permutation sorting rows by (segment, value), ties in row order.

    ``np.lexsort((values, segments))``'s order from two stable argsorts:
    by value, then by segment (radix-sorted as 16-bit keys when the
    segment ids fit).
    """
    by_value = np.argsort(values, kind="stable")
    keys = segments[by_value]
    if keys.size and keys.max() < 2**16:
        keys = keys.astype(np.uint16)
    return by_value[np.argsort(keys, kind="stable")]


def _group_feature_names(prefix: str) -> List[str]:
    names = [f"{prefix}_ct_sum"]
    names.extend(f"{prefix}_sz_{stat}" for stat in _STAT_NAMES)
    names.extend(f"{prefix}_it_{stat}" for stat in _STAT_NAMES)
    return names


#: The 51 attribute names in canonical order (full, steady, sparse).
PACKET_GROUP_FEATURE_NAMES: List[str] = (
    _group_feature_names("full")
    + _group_feature_names("steady")
    + _group_feature_names("sparse")
)

#: Baseline flow-volumetric attribute names (per slot averages).
FLOW_VOLUMETRIC_FEATURE_NAMES: List[str] = [
    "down_packet_rate_mean",
    "down_packet_rate_std",
    "down_throughput_mean",
    "down_throughput_std",
]


def _labeled_feature_matrix(
    sizes: np.ndarray,
    times: np.ndarray,
    codes: np.ndarray,
    slot_ids: np.ndarray,
    n_slots: int,
) -> np.ndarray:
    """The 51 attributes of ``n_slots`` slots from their labeled rows.

    Row ``i`` belongs to slot ``slot_ids[i]`` and group ``codes[i]``;
    segment ``slot * 3 + group`` keys every grouped reduction.
    """
    features = np.zeros((n_slots, len(PACKET_GROUP_FEATURE_NAMES)))
    n_segments = n_slots * 3
    segments = slot_ids.astype(np.int64) * 3 + codes
    counts = np.bincount(segments, minlength=n_segments)
    size_stats = _grouped_stat_matrix(sizes, segments, n_segments, counts=counts)

    # inter-arrival times: consecutive same-segment diffs in (segment, time)
    # order reproduce np.diff(np.sort(times)) per (slot, group), even for
    # hand-built slots whose timestamps are not chronological
    order = _segment_order(times, segments)
    seg_sorted = segments[order]
    time_sorted = times[order]
    same_segment = seg_sorted[1:] == seg_sorted[:-1]
    interarrivals = (time_sorted[1:] - time_sorted[:-1])[same_segment]
    ia_segments = seg_sorted[1:][same_segment]
    ia_stats = _grouped_stat_matrix(interarrivals, ia_segments, n_segments)

    for group_code in range(3):
        base = group_code * 17
        features[:, base] = counts[group_code::3]
        features[:, base + 1 : base + 9] = size_stats[group_code::3]
        features[:, base + 9 : base + 17] = ia_stats[group_code::3]
    return features


def volumetric_launch_features(
    stream: PacketStream,
    window_seconds: float = 5.0,
    slot_duration: float = 1.0,
) -> np.ndarray:
    """Baseline flow-volumetric features (Table 3 comparison).

    Standard per-slot packet rate and throughput of the downstream direction,
    summarised by mean and standard deviation over the window.
    """
    if window_seconds <= 0 or slot_duration <= 0:
        raise ValueError("window_seconds and slot_duration must be positive")
    downstream = stream.filter_direction(Direction.DOWNSTREAM)
    origin = stream.start_time
    times = downstream.timestamps()
    sizes = downstream.payload_sizes()
    in_window = (times >= origin) & (times < origin + window_seconds)
    times = times[in_window]
    sizes = sizes[in_window]
    n_slots = max(1, int(np.ceil(window_seconds / slot_duration)))
    rates = np.zeros(n_slots)
    throughputs = np.zeros(n_slots)
    if times.size:
        indices = np.floor((times - origin) / slot_duration).astype(int)
        indices = np.clip(indices, 0, n_slots - 1)
        rates = np.bincount(indices, minlength=n_slots) / slot_duration
        throughputs = (
            np.bincount(indices, weights=sizes, minlength=n_slots)
            * 8
            / slot_duration
            / 1e6
        )
    return np.array(
        [rates.mean(), rates.std(), throughputs.mean(), throughputs.std()],
        dtype=float,
    )


def launch_feature_matrix(
    streams: Sequence[PacketStream],
    window_seconds: float = 5.0,
    labeler: Optional[PacketGroupLabeler] = None,
    aggregate: str = "mean",
) -> np.ndarray:
    """Stack launch feature vectors of many sessions into a matrix.

    The window rows of every session are labeled in one pass
    (:meth:`PacketGroupLabeler.label_windows`), then all attributes of the
    whole batch are computed in one grouped reduction — no per-session or
    per-slot step beyond slicing each session's window.

    Parameters
    ----------
    streams:
        The session packet streams (non-empty sequence).
    window_seconds:
        The classification window ``N`` applied to every session.
    labeler:
        Shared packet-group labeler; defaults to the paper's configuration.
    aggregate:
        ``"mean"`` (default) averages the per-slot attribute vectors, giving
        an ``(n_sessions, 51)`` matrix; ``"concat"`` concatenates them in
        slot order, giving ``(n_sessions, 51 * n_slots)``.  Every session
        labels the same number of slots (``ceil(window / T)``, empty slots
        included), so concatenated rows always align.

    A single session is the one-element call
    ``launch_feature_matrix([stream])[0]``: each slot's statistics depend
    only on its own packets, and the grouped reductions accumulate
    per-segment values in the same order regardless of how slots are
    batched.
    """
    if not streams:
        raise ValueError("streams must not be empty")
    if aggregate not in ("mean", "concat"):
        raise ValueError(f"aggregate must be 'mean' or 'concat', got {aggregate!r}")
    labeler = labeler or PacketGroupLabeler()
    rows = labeler.label_windows(streams, window_seconds=window_seconds)
    per_slot = _labeled_feature_matrix(
        rows.payload_sizes,
        rows.timestamps,
        rows.label_codes,
        rows.slot_ids,
        int(rows.slot_counts.sum()),
    )
    blocks = np.split(per_slot, np.cumsum(rows.slot_counts)[:-1])
    if aggregate == "mean":
        return np.stack([block.mean(axis=0) for block in blocks])
    return np.stack([block.reshape(-1) for block in blocks])
