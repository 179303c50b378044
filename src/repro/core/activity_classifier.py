"""Player-activity-stage classification (§4.3.1).

A Random Forest consumes the EMA-smoothed relative volumetric attributes of
each ``I``-second slot and labels the slot as *idle*, *passive* or *active*.
Training labels come from the ground-truth stage annotations of the lab
corpus; the launch stage is excluded (it is delimited separately by the
pipeline and handled by the game-title classifier).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.volumetric import VOLUMETRIC_FEATURE_NAMES, VolumetricAttributeGenerator
from repro.ml.base import BaseClassifier
from repro.ml.forest import RandomForestClassifier
from repro.net.packet import PacketStream
from repro.simulation.catalog import PlayerStage


class PlayerActivityClassifier:
    """Classifies per-slot player activity stages from volumetric attributes.

    Parameters
    ----------
    slot_duration:
        Classification slot ``I`` in seconds (1 second in deployment).
    alpha:
        EMA weight of the current slot (0.5 in deployment).
    model:
        Underlying classifier; defaults to a Random Forest (the paper's
        best performer for this task).
    """

    def __init__(
        self,
        slot_duration: float = 1.0,
        alpha: float = 0.5,
        model: Optional[BaseClassifier] = None,
        balance_classes: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        self.slot_duration = slot_duration
        self.alpha = alpha
        self.balance_classes = balance_classes
        self.generator = VolumetricAttributeGenerator(
            slot_duration=slot_duration, alpha=alpha
        )
        self.model = model or RandomForestClassifier(
            n_estimators=100, max_depth=10, random_state=random_state
        )
        self._random_state = random_state

    # ------------------------------------------------------------ features
    def feature_names(self) -> List[str]:
        """Names of the four volumetric attributes."""
        return list(VOLUMETRIC_FEATURE_NAMES)

    def session_features_and_labels(
        self,
        stream: PacketStream,
        slot_labels: Sequence[PlayerStage],
        skip_launch: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-slot feature matrix and aligned stage labels for one session.

        ``slot_labels`` must provide the ground-truth stage of every slot
        (as produced by :meth:`GameSession.slot_ground_truth`); slots beyond
        the provided labels are dropped, and launch slots are excluded when
        ``skip_launch`` is set.
        """
        features = self.generator.transform(stream)
        n = min(features.shape[0], len(slot_labels))
        features = features[:n]
        labels = list(slot_labels[:n])
        if skip_launch:
            keep = [label is not PlayerStage.LAUNCH for label in labels]
            features = features[np.array(keep, dtype=bool)]
            labels = [label for label in labels if label is not PlayerStage.LAUNCH]
        return features, np.array([label.value for label in labels])

    def corpus_features_and_labels(
        self,
        streams: Sequence[PacketStream],
        slot_labels: Sequence[Sequence[PlayerStage]],
        skip_launch: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate per-slot features/labels over a corpus of sessions."""
        if len(streams) != len(slot_labels):
            raise ValueError(
                f"{len(streams)} streams but {len(slot_labels)} label sequences"
            )
        feature_blocks = []
        label_blocks = []
        for stream, labels in zip(streams, slot_labels):
            X, y = self.session_features_and_labels(stream, labels, skip_launch)
            if X.shape[0]:
                feature_blocks.append(X)
                label_blocks.append(y)
        if not feature_blocks:
            raise ValueError("no labeled slots available for training")
        return np.vstack(feature_blocks), np.concatenate(label_blocks)

    # ------------------------------------------------------------ training
    def fit(
        self,
        streams: Sequence[PacketStream],
        slot_labels: Sequence[Sequence[PlayerStage]],
    ) -> "PlayerActivityClassifier":
        """Train on labeled sessions."""
        X, y = self.corpus_features_and_labels(streams, slot_labels)
        return self.fit_features(X, y)

    def fit_features(self, X: np.ndarray, y: np.ndarray) -> "PlayerActivityClassifier":
        """Train directly on a precomputed slot feature matrix.

        When ``balance_classes`` is set (default), minority stages (typically
        *passive*, which covers only a small share of slots in short
        sessions) are oversampled to the majority class size so the model is
        not biased toward the frequent stages.
        """
        if self.balance_classes:
            X, y = self._balanced_resample(X, y)
        self.model.fit(X, y)
        return self

    def _balanced_resample(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self._random_state)
        classes, counts = np.unique(y, return_counts=True)
        target = counts.max()
        X_parts = [X]
        y_parts = [y]
        for label, count in zip(classes, counts):
            deficit = int(target - count)
            if deficit <= 0:
                continue
            indices = np.flatnonzero(y == label)
            resampled = rng.choice(indices, size=deficit, replace=True)
            X_parts.append(X[resampled])
            y_parts.append(y[resampled])
        return np.vstack(X_parts), np.concatenate(y_parts)

    # ----------------------------------------------------------- inference
    def _stages(self, X: np.ndarray) -> List[PlayerStage]:
        """Most probable stage of every feature row.

        Shared by the public predictors below, which do not call each other:
        each is a layer boundary the e2e tracer times under one span name.
        """
        # one enum lookup per class, not per row: the live stage gate comes
        # here with one or two rows a tick
        stages = [PlayerStage(value) for value in self.model.classes_.tolist()]
        winners = self.model.predict_proba(X).argmax(axis=1)
        return [stages[index] for index in winners.tolist()]

    def predict_slots(self, stream: PacketStream) -> List[PlayerStage]:
        """Predict the stage of every slot of a session."""
        return self._stages(self.generator.transform(stream))

    def predict_features(self, X: np.ndarray) -> List[PlayerStage]:
        """Predict stages for precomputed slot features (one row or a matrix)."""
        return self._stages(X)

    def predict_raw_slots(
        self, raw_matrix: np.ndarray, causal: bool = True
    ) -> List[PlayerStage]:
        """Predict the stage timeline from a raw per-slot counter matrix.

        ``raw_matrix`` holds the four raw volumetric attributes per slot
        (down Mbps, down pps, up Kbps, up pps) — the public entry point for
        deployment probes that retain only per-slot counters instead of
        packets.  The relative conversion and EMA smoothing run identically
        to :meth:`predict_slots`, so for a matrix equal to
        :meth:`VolumetricAttributeGenerator.raw_slot_matrix` of a stream the
        timeline is bit-identical (pinned by ``tests/test_runtime.py``).
        """
        raw = np.asarray(raw_matrix, dtype=float)
        if raw.shape[0] == 0:
            return []
        features = self.generator.smooth(
            self.generator.relative_matrix(raw, causal=causal)
        )
        return self.predict_features(features)

    def predict_slots_many(
        self, streams: Sequence[PacketStream]
    ) -> List[List[PlayerStage]]:
        """Batched :meth:`predict_slots`: one forest pass for a whole corpus.

        The per-slot volumetric attributes of every session are stacked into
        one matrix (the per-session extraction is already vectorised) and
        classified with a single ``model.predict`` call, then split back into
        per-session stage timelines.  Tree traversal is row-independent, so
        the timelines are identical to per-session :meth:`predict_slots`
        calls.
        """
        if not streams:
            return []
        return self._predict_feature_blocks(self.generator.transform_many(streams))

    def predict_raw_slots_many(
        self, raw_matrices: Sequence[np.ndarray], causal: bool = True
    ) -> List[List[PlayerStage]]:
        """Batched :meth:`predict_raw_slots`: timelines from counter matrices.

        Each ``(n_slots_i, 4)`` raw matrix holds the four raw volumetric
        attributes per slot (down Mbps, down pps, up Kbps, up pps) — the
        entry point for bounded session states and deployment probes that
        retain only per-slot counters.  The relative conversion runs per
        session, the EMA recurrences advance in lockstep
        (:meth:`VolumetricAttributeGenerator.smooth_many`) and one forest
        pass classifies every slot, so for matrices equal to
        ``raw_slot_matrix`` of the streams the timelines are bit-identical
        to :meth:`predict_slots_many` (and :meth:`predict_slots`).
        """
        if not len(raw_matrices):
            return []
        relatives = [
            self.generator.relative_matrix(np.asarray(raw, dtype=float), causal=causal)
            if np.asarray(raw).shape[0]
            else np.zeros((0, 4))
            for raw in raw_matrices
        ]
        return self._predict_feature_blocks(self.generator.smooth_many(relatives))

    def _predict_feature_blocks(
        self, blocks: Sequence[np.ndarray]
    ) -> List[List[PlayerStage]]:
        """One forest pass over stacked per-session slot features."""
        lengths = [block.shape[0] for block in blocks]
        if sum(lengths) == 0:
            return [[] for _ in lengths]
        stages = self._stages(np.vstack([b for b in blocks if b.shape[0]]))
        timelines: List[List[PlayerStage]] = []
        cursor = 0
        for length in lengths:
            timelines.append(stages[cursor : cursor + length])
            cursor += length
        return timelines

    def evaluate(
        self,
        streams: Sequence[PacketStream],
        slot_labels: Sequence[Sequence[PlayerStage]],
    ) -> dict:
        """Per-stage and overall slot accuracy over a labeled corpus."""
        X, y = self.corpus_features_and_labels(streams, slot_labels)
        predicted = self.model.predict(X)
        overall = float(np.mean(predicted == y))
        per_stage = {}
        for stage in PlayerStage.gameplay_stages():
            mask = y == stage.value
            if mask.any():
                per_stage[stage] = float(np.mean(predicted[mask] == stage.value))
        return {"overall": overall, "per_stage": per_stage}
