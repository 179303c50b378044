"""Markov model of player activity stages (Fig. 5).

The paper characterises two gameplay activity patterns by (a) the fraction of
playtime spent in idle/passive/active stages and (b) the probabilities of
transitioning between stages.  This module encodes those statistics and
samples ground-truth stage timelines for synthetic sessions: a launch period
followed by alternating stage visits whose dwell times are tuned so that the
long-run stage fractions approach the paper's Fig. 5 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.simulation.catalog import ActivityPattern, PlayerStage

#: Stage transition probabilities per gameplay activity pattern (Fig. 5).
#: ``TRANSITIONS[pattern][from_stage][to_stage]`` = probability of moving to
#: ``to_stage`` when leaving ``from_stage``.
TRANSITIONS: Dict[ActivityPattern, Dict[PlayerStage, Dict[PlayerStage, float]]] = {
    ActivityPattern.SPECTATE_AND_PLAY: {
        PlayerStage.IDLE: {PlayerStage.ACTIVE: 0.68, PlayerStage.PASSIVE: 0.32},
        PlayerStage.ACTIVE: {PlayerStage.PASSIVE: 0.61, PlayerStage.IDLE: 0.39},
        PlayerStage.PASSIVE: {PlayerStage.ACTIVE: 0.77, PlayerStage.IDLE: 0.23},
    },
    ActivityPattern.CONTINUOUS_PLAY: {
        PlayerStage.IDLE: {PlayerStage.ACTIVE: 0.96, PlayerStage.PASSIVE: 0.04},
        PlayerStage.ACTIVE: {PlayerStage.IDLE: 0.92, PlayerStage.PASSIVE: 0.08},
        PlayerStage.PASSIVE: {PlayerStage.ACTIVE: 0.96, PlayerStage.IDLE: 0.04},
    },
}

#: Long-run fraction of gameplay time per stage and pattern (Fig. 5).
STAGE_FRACTIONS: Dict[ActivityPattern, Dict[PlayerStage, float]] = {
    ActivityPattern.SPECTATE_AND_PLAY: {
        PlayerStage.IDLE: 0.210,
        PlayerStage.PASSIVE: 0.234,
        PlayerStage.ACTIVE: 0.556,
    },
    ActivityPattern.CONTINUOUS_PLAY: {
        PlayerStage.IDLE: 0.203,
        PlayerStage.PASSIVE: 0.043,
        PlayerStage.ACTIVE: 0.654,
    },
}


@dataclass(frozen=True)
class StageInterval:
    """A contiguous ground-truth stage interval within a session."""

    stage: PlayerStage
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"interval end ({self.end}) must exceed start ({self.start})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        """Whether the timestamp lies in ``[start, end)``."""
        return self.start <= timestamp < self.end


def _stationary_visit_rates(
    pattern: ActivityPattern,
) -> Dict[PlayerStage, float]:
    """Stationary visit frequencies of the embedded jump chain."""
    stages = list(PlayerStage.gameplay_stages())
    matrix = np.zeros((len(stages), len(stages)))
    for i, src in enumerate(stages):
        for j, dst in enumerate(stages):
            matrix[i, j] = TRANSITIONS[pattern][src].get(dst, 0.0)
    eigenvalues, eigenvectors = np.linalg.eig(matrix.T)
    index = int(np.argmin(np.abs(eigenvalues - 1.0)))
    stationary = np.real(eigenvectors[:, index])
    stationary = np.abs(stationary)
    stationary = stationary / stationary.sum()
    return dict(zip(stages, stationary.tolist()))


class ActivityPatternModel:
    """Samples ground-truth stage timelines for one gameplay pattern.

    Mean dwell times per stage are derived so that the expected fraction of
    time per stage matches Fig. 5: ``fraction ~ visit_rate * mean_dwell``.
    A base dwell scale (seconds) controls how often transitions happen; the
    paper's spectate-and-play examples switch every few tens of seconds.
    """

    def __init__(
        self,
        pattern: ActivityPattern,
        base_dwell_s: float = 45.0,
        launch_duration_s: float = 50.0,
    ) -> None:
        if base_dwell_s <= 0:
            raise ValueError(f"base_dwell_s must be positive, got {base_dwell_s}")
        if launch_duration_s <= 0:
            raise ValueError(
                f"launch_duration_s must be positive, got {launch_duration_s}"
            )
        self.pattern = pattern
        self.base_dwell_s = base_dwell_s
        self.launch_duration_s = launch_duration_s
        self.transition_probs = TRANSITIONS[pattern]
        self.target_fractions = STAGE_FRACTIONS[pattern]
        visit_rates = _stationary_visit_rates(pattern)
        # mean dwell per stage proportional to target fraction / visit rate
        raw = {
            stage: self.target_fractions[stage] / max(visit_rates[stage], 1e-9)
            for stage in PlayerStage.gameplay_stages()
        }
        mean_raw = float(np.mean(list(raw.values())))
        self.mean_dwell_s = {
            stage: base_dwell_s * raw[stage] / mean_raw
            for stage in PlayerStage.gameplay_stages()
        }

    def transition_matrix(self) -> np.ndarray:
        """3×3 stage-transition matrix in (idle, passive, active) order."""
        stages = list(PlayerStage.gameplay_stages())
        matrix = np.zeros((3, 3))
        for i, src in enumerate(stages):
            for j, dst in enumerate(stages):
                matrix[i, j] = self.transition_probs[src].get(dst, 0.0)
        return matrix

    def sample_next_stage(
        self, current: PlayerStage, rng: np.random.Generator
    ) -> PlayerStage:
        """Draw the next stage after leaving ``current``."""
        options = self.transition_probs[current]
        stages = list(options.keys())
        probs = np.array([options[stage] for stage in stages])
        probs = probs / probs.sum()
        return stages[int(rng.choice(len(stages), p=probs))]

    def sample_dwell(self, stage: PlayerStage, rng: np.random.Generator) -> float:
        """Draw a dwell duration (seconds) for one visit to ``stage``."""
        mean = self.mean_dwell_s[stage]
        # gamma-distributed dwell keeps durations positive with mild spread
        return float(rng.gamma(shape=3.0, scale=mean / 3.0))

    def sample_timeline(
        self,
        gameplay_duration_s: float,
        rng: Optional[np.random.Generator] = None,
        launch_duration_s: Optional[float] = None,
        initial_stage: PlayerStage = PlayerStage.IDLE,
    ) -> List[StageInterval]:
        """Sample a full session timeline: launch followed by gameplay stages.

        Parameters
        ----------
        gameplay_duration_s:
            Total duration of the gameplay portion (excluding launch).
        launch_duration_s:
            Duration of the launch stage; defaults to the model's setting.
        initial_stage:
            Stage entered right after launch (idle, per Fig. 5 where launch
            transitions to idle with probability 1).
        """
        if gameplay_duration_s <= 0:
            raise ValueError(
                f"gameplay_duration_s must be positive, got {gameplay_duration_s}"
            )
        rng = rng or np.random.default_rng()
        launch = launch_duration_s if launch_duration_s is not None else self.launch_duration_s

        timeline: List[StageInterval] = [
            StageInterval(stage=PlayerStage.LAUNCH, start=0.0, end=launch)
        ]
        cursor = launch
        end_time = launch + gameplay_duration_s
        stage = initial_stage
        while cursor < end_time:
            dwell = min(self.sample_dwell(stage, rng), end_time - cursor)
            if dwell <= 0:
                break
            timeline.append(StageInterval(stage=stage, start=cursor, end=cursor + dwell))
            cursor += dwell
            stage = self.sample_next_stage(stage, rng)
        return timeline


def stage_at(timeline: List[StageInterval], timestamp: float) -> PlayerStage:
    """Ground-truth stage at a given timestamp (clamps to the last interval)."""
    if not timeline:
        raise ValueError("timeline is empty")
    for interval in timeline:
        if interval.contains(timestamp):
            return interval.stage
    return timeline[-1].stage


def stage_durations(timeline: List[StageInterval]) -> Dict[PlayerStage, float]:
    """Total seconds per stage in a timeline."""
    totals: Dict[PlayerStage, float] = {stage: 0.0 for stage in PlayerStage}
    for interval in timeline:
        totals[interval.stage] += interval.duration
    return totals


def gameplay_fractions(timeline: List[StageInterval]) -> Dict[PlayerStage, float]:
    """Fraction of gameplay (non-launch) time per stage."""
    totals = stage_durations(timeline)
    gameplay_total = sum(
        totals[stage] for stage in PlayerStage.gameplay_stages()
    )
    if gameplay_total <= 0:
        return {stage: 0.0 for stage in PlayerStage.gameplay_stages()}
    return {
        stage: totals[stage] / gameplay_total
        for stage in PlayerStage.gameplay_stages()
    }
