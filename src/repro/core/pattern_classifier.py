"""Gameplay-activity-pattern inference (§4.3.2).

When the game title cannot be confidently classified, the paper falls back
to inferring the coarse-grained gameplay activity pattern — *continuous-play*
vs *spectate-and-play* — from the stochastic transition behaviour of the
classified player activity stages.  A Random Forest consumes the nine
normalised transition attributes; a prediction is only emitted once its
confidence exceeds a threshold (75% in deployment), trading responsiveness
against accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.activity_classifier import balanced_resample
from repro.core.transition import (
    TRANSITION_FEATURE_NAMES,
    prefix_transition_features,
    transition_features_from_stages,
)
from repro.ml.base import BaseClassifier
from repro.ml.forest import RandomForestClassifier
from repro.simulation.catalog import ActivityPattern, PlayerStage


@dataclass
class PatternPrediction:
    """Result of one gameplay-activity-pattern inference."""

    pattern: Optional[ActivityPattern]
    confidence: float
    confident: bool
    slots_observed: int

    @property
    def label(self) -> str:
        """The pattern value, or "undecided" before the confidence gate opens."""
        return self.pattern.value if self.pattern is not None else "undecided"


class GameplayPatternClassifier:
    """Infers the gameplay activity pattern from stage-transition attributes.

    Parameters
    ----------
    confidence_threshold:
        Minimum predicted-class probability before a result is emitted
        (0.75 in the deployed system).
    min_slots:
        Minimum number of observed gameplay slots before attempting an
        inference ("upon receiving a sufficient number of past states").
    model:
        Underlying classifier; defaults to a Random Forest with 100 trees
        and maximum depth 10 (the paper's best performer, Fig. 15).
    """

    def __init__(
        self,
        confidence_threshold: float = 0.75,
        min_slots: int = 30,
        model: Optional[BaseClassifier] = None,
        balance_classes: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError(
                f"confidence_threshold must be in [0, 1], got {confidence_threshold}"
            )
        if min_slots < 1:
            raise ValueError(f"min_slots must be >= 1, got {min_slots}")
        self.confidence_threshold = confidence_threshold
        self.min_slots = min_slots
        self.balance_classes = balance_classes
        self._random_state = random_state
        self.model = model or RandomForestClassifier(
            n_estimators=100, max_depth=10, random_state=random_state
        )

    # ------------------------------------------------------------ features
    def feature_names(self) -> List[str]:
        """Names of the nine transition attributes."""
        return list(TRANSITION_FEATURE_NAMES)

    # ------------------------------------------------------------ training
    def fit_stage_sequences(
        self,
        stage_sequences: Sequence[Sequence[PlayerStage]],
        patterns: Sequence[ActivityPattern],
    ) -> "GameplayPatternClassifier":
        """Train from per-session stage sequences and their pattern labels."""
        if len(stage_sequences) != len(patterns):
            raise ValueError(
                f"{len(stage_sequences)} sequences but {len(patterns)} pattern labels"
            )
        X = np.stack([transition_features_from_stages(seq) for seq in stage_sequences])
        return self.fit_features(X, patterns)

    def fit_features(self, X: np.ndarray, y: Sequence) -> "GameplayPatternClassifier":
        """Train directly on precomputed transition-attribute vectors.

        When ``balance_classes`` is set (default), the minority pattern is
        oversampled to the majority size — the Table 1 catalog is heavily
        skewed toward spectate-and-play titles, which would otherwise bias
        the model against continuous-play sessions.
        """
        X = np.atleast_2d(X)
        labels = np.array(
            [p.value if isinstance(p, ActivityPattern) else p for p in y]
        )
        if self.balance_classes:
            X, labels = balanced_resample(X, labels, self._random_state)
        self.model.fit(X, labels)
        return self

    # ----------------------------------------------------------- inference
    def first_confident(
        self, proba: np.ndarray, gameplay_seen: np.ndarray
    ) -> Tuple[int, PatternPrediction]:
        """The confidence gate over consecutive eligible slots of one session.

        ``proba`` holds the forest's class probabilities of the slots in
        order, ``gameplay_seen`` the gameplay-slot count at each.  Returns
        the index of the first slot whose top probability reaches
        ``confidence_threshold`` with its confident prediction; when no slot
        does, ``-1`` with the undecided prediction of the last slot.  The
        one rule behind the offline replay and the live engine's gate.
        """
        best = np.argmax(proba, axis=1)
        confidences = proba[np.arange(proba.shape[0]), best]
        confident = confidences >= self.confidence_threshold
        if not confident.any():
            return -1, PatternPrediction(
                pattern=None,
                confidence=float(confidences[-1]),
                confident=False,
                slots_observed=int(gameplay_seen[-1]),
            )
        winner = int(np.argmax(confident))
        return winner, PatternPrediction(
            pattern=ActivityPattern(str(self.model.classes_[int(best[winner])])),
            confidence=float(confidences[winner]),
            confident=True,
            slots_observed=int(gameplay_seen[winner]),
        )

    #: first chunk size (eligible slots per session per round) of the
    #: batched incremental replay; later rounds grow geometrically
    _BATCH_CHUNK = 16

    def predict_incremental_many(
        self, stage_sequences: Sequence[Sequence[PlayerStage]]
    ) -> List[Tuple[PatternPrediction, int]]:
        """The first slot at which each stage sequence's confidence gate opens.

        Per sequence, returns the first confident prediction and the number
        of gameplay slots that were needed (the paper's "time to confident
        inference", about five minutes on average at the 75% threshold).
        Slots before ``min_slots`` gameplay slots are never evaluated.  When
        no confident prediction is reached, the prediction of the final
        eligible slot (undecided) and the total gameplay-slot count are
        returned; with no eligible slot at all, a zero-confidence undecided
        prediction.

        Vectorised on both axes: the per-slot transition-modeler replay
        becomes one cumulative prefix-attribute matrix per session
        (:func:`~repro.core.transition.prefix_transition_features`), and the
        forest evaluates the eligible slots of *all* unresolved sessions
        together, a growing chunk per round.  Chunking preserves the
        sequential early exit — a session whose gate opens in its first few
        eligible slots never pays for the rest of its timeline — while
        keeping the number of ``predict_proba`` calls logarithmic instead of
        one per slot.  One sequence is ``predict_incremental_many([s])[0]``;
        the slot-by-slot replay is the oracle in
        ``tests/test_batch_pipeline.py``.
        """
        prefixes = [prefix_transition_features(seq) for seq in stage_sequences]
        n_sessions = len(prefixes)
        results: List[Optional[Tuple[PatternPrediction, int]]] = [None] * n_sessions

        pending: List[int] = []
        positions = [0] * n_sessions
        eligible: List[np.ndarray] = []
        for index, (features, gameplay_seen) in enumerate(prefixes):
            slots = np.flatnonzero(gameplay_seen >= self.min_slots)
            eligible.append(slots)
            if slots.size:
                pending.append(index)
            else:
                total = int(gameplay_seen[-1]) if gameplay_seen.size else 0
                results[index] = (
                    PatternPrediction(
                        pattern=None, confidence=0.0, confident=False, slots_observed=0
                    ),
                    total,
                )

        chunk = self._BATCH_CHUNK
        while pending:
            spans: List[Tuple[int, np.ndarray]] = []
            blocks: List[np.ndarray] = []
            for index in pending:
                slots = eligible[index][positions[index] : positions[index] + chunk]
                spans.append((index, slots))
                blocks.append(prefixes[index][0][slots])
            proba = self.model.predict_proba(np.vstack(blocks))

            cursor = 0
            still_pending: List[int] = []
            for index, slots in spans:
                gameplay_seen = prefixes[index][1]
                winner, prediction = self.first_confident(
                    proba[cursor : cursor + slots.size], gameplay_seen[slots]
                )
                cursor += slots.size
                if winner >= 0:
                    results[index] = (prediction, prediction.slots_observed)
                    continue
                positions[index] += slots.size
                if positions[index] >= eligible[index].size:
                    # never confident: the sequential replay reports the
                    # prediction of the final slot (the last eligible one)
                    results[index] = (prediction, int(gameplay_seen[-1]))
                else:
                    still_pending.append(index)
            pending = still_pending
            chunk *= 4
        return results  # type: ignore[return-value]

    def evaluate(
        self,
        stage_sequences: Sequence[Sequence[PlayerStage]],
        patterns: Sequence[ActivityPattern],
    ) -> dict:
        """Accuracy per pattern over labeled sequences (confidence gate off).

        Every sequence's full transition attributes are classified in one
        ``predict_proba`` pass and the most probable pattern is compared to
        the truth, whatever its confidence and slot count.
        """
        correct = {pattern: 0 for pattern in ActivityPattern}
        totals = {pattern: 0 for pattern in ActivityPattern}
        if len(stage_sequences):
            X = np.stack([transition_features_from_stages(seq) for seq in stage_sequences])
            classes = self.model.classes_
            winners = self.model.predict_proba(X).argmax(axis=1)
            for winner, truth in zip(winners.tolist(), patterns):
                totals[truth] += 1
                correct[truth] += ActivityPattern(str(classes[winner])) is truth
        per_pattern = {
            pattern: (correct[pattern] / totals[pattern]) if totals[pattern] else float("nan")
            for pattern in ActivityPattern
        }
        overall_total = sum(totals.values())
        overall = sum(correct.values()) / overall_total if overall_total else float("nan")
        return {"overall": overall, "per_pattern": per_pattern}
