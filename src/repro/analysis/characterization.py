"""Traffic characterisation analyses (§3, Fig. 3–5).

These functions compute, from labeled sessions, the data series the paper
plots in its characterisation section: the full/steady/sparse launch scatter
(Fig. 3), the per-stage bidirectional throughput time series (Fig. 4) and
the stage playtime shares plus transition probabilities per gameplay
activity pattern (Fig. 5).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.packet_groups import PacketGroup, PacketGroupLabeler
from repro.core.reducers import raw_slot_matrix
from repro.core.transition import STAGE_ORDER
from repro.simulation.activity_model import gameplay_fractions
from repro.simulation.catalog import ActivityPattern, PlayerStage
from repro.simulation.session import GameSession


def launch_group_scatter(
    session: GameSession,
    window_seconds: float = 60.0,
    labeler: Optional[PacketGroupLabeler] = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Fig. 3 data: (arrival time, payload size) per packet group.

    Returns ``{"full"|"steady"|"sparse": {"times": ..., "sizes": ...}}`` for
    the downstream packets of the first ``window_seconds`` of the session.
    """
    labeler = labeler or PacketGroupLabeler()
    slots = labeler.label_window(session.packets, window_seconds=window_seconds)
    scatter = labeler.group_scatter(slots)
    return {
        group.value: {"times": times, "sizes": sizes}
        for group, (times, sizes) in scatter.items()
    }


def session_volumetric_timeseries(
    session: GameSession,
    slot_duration: float = 1.0,
) -> Dict[str, np.ndarray]:
    """Fig. 4 data: per-slot downstream Mbps, upstream Kbps and stage labels.

    The slot grid covers the session's duration from its first packet; the
    rates are the slot reducer's (:func:`~repro.core.reducers.raw_slot_matrix`,
    the numbers the stage classifier reads), rescaled by the session's
    generation ``rate_scale`` so the series is reported at physical scale.
    """
    stream = session.packets
    n_slots = math.ceil(session.duration / slot_duration)
    raw = raw_slot_matrix(stream, slot_duration, n_slots=n_slots)
    scale = session.rate_scale if session.rate_scale > 0 else 1.0
    stages = [
        session.stage_at((index + 0.5) * slot_duration).value
        for index in range(raw.shape[0])
    ]
    return {
        "time_s": stream.start_time + np.arange(raw.shape[0]) * slot_duration,
        "down_mbps": raw[:, 0] / scale,
        "up_kbps": raw[:, 2] / scale,
        "up_pps": raw[:, 3] / scale,
        "stage": np.array(stages),
    }


def stage_transition_statistics(
    sessions: Sequence[GameSession],
    slot_duration: float = 1.0,
) -> Dict[ActivityPattern, Dict[str, object]]:
    """Fig. 5 data: stage playtime shares and transition probabilities.

    For each gameplay activity pattern present in the corpus the function
    reports the mean fraction of gameplay time per stage and the stage-level
    transition probability matrix estimated from ground-truth timelines
    (row-stochastic, ordered active/passive/idle as in
    :data:`repro.core.transition.STAGE_ORDER`).
    """
    del slot_duration  # stage-level statistics use the ground-truth timeline
    by_pattern: Dict[ActivityPattern, List[GameSession]] = {}
    for session in sessions:
        by_pattern.setdefault(session.pattern, []).append(session)

    results: Dict[ActivityPattern, Dict[str, object]] = {}
    stage_index = {stage: i for i, stage in enumerate(STAGE_ORDER)}
    for pattern, group in by_pattern.items():
        fraction_totals = {stage: 0.0 for stage in PlayerStage.gameplay_stages()}
        counts = np.zeros((3, 3))
        for session in group:
            fractions = gameplay_fractions(session.timeline)
            for stage in PlayerStage.gameplay_stages():
                fraction_totals[stage] += fractions[stage]
            gameplay = [
                interval.stage
                for interval in session.timeline
                if interval.stage in stage_index
            ]
            for src, dst in zip(gameplay[:-1], gameplay[1:]):
                counts[stage_index[src], stage_index[dst]] += 1
        n_sessions = len(group)
        row_sums = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            probabilities = np.where(row_sums > 0, counts / row_sums, 0.0)
        results[pattern] = {
            "stage_fractions": {
                stage: fraction_totals[stage] / n_sessions
                for stage in PlayerStage.gameplay_stages()
            },
            "transition_matrix": probabilities,
            "stage_order": tuple(stage.value for stage in STAGE_ORDER),
            "n_sessions": n_sessions,
        }
    return results


def packet_group_share(
    session: GameSession,
    window_seconds: float = 60.0,
    labeler: Optional[PacketGroupLabeler] = None,
) -> Dict[str, float]:
    """Fraction of launch-window downstream packets per group."""
    labeler = labeler or PacketGroupLabeler()
    slots = labeler.label_window(session.packets, window_seconds=window_seconds)
    counts = labeler.group_counts(slots)
    total = sum(counts.values())
    if total == 0:
        return {group.value: 0.0 for group in PacketGroup}
    return {group.value: counts[group] / total for group in PacketGroup}
