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

from repro.core.reducers import raw_slot_matrix
from repro.core.transition import STAGES
from repro.core.volumetric import VOLUMETRIC_FEATURE_NAMES, VolumetricAttributeGenerator
from repro.ml.base import BaseClassifier
from repro.ml.forest import RandomForestClassifier
from repro.net.packet import PacketStream
from repro.simulation.catalog import PlayerStage


def balanced_resample(
    X: np.ndarray, y: np.ndarray, random_state: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Oversample every minority class to the majority class size.

    Shared by the stage and pattern classifiers' ``balance_classes``: the
    deficit of each class (in sorted label order) is drawn with replacement
    from that class's rows by one ``default_rng(random_state)``, and the
    draws are appended after the original rows.
    """
    rng = np.random.default_rng(random_state)
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


class PlayerActivityClassifier:
    """Classifies per-slot player activity stages from volumetric attributes.

    Parameters
    ----------
    slot_duration:
        Classification slot ``I`` in seconds (1 second in deployment).
    alpha:
        EMA weight of the current slot (0.5 in deployment).
    model:
        Underlying classifier; defaults to a Random Forest of 20 trees of
        depth 8 (DESIGN.md §11 "Forest sizes").
    """

    def __init__(
        self,
        slot_duration: float = 1.0,
        alpha: float = 0.5,
        model: Optional[BaseClassifier] = None,
        balance_classes: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        self.slot_duration = slot_duration
        self.alpha = alpha
        self.balance_classes = balance_classes
        self.generator = VolumetricAttributeGenerator(alpha=alpha)
        self.model = model or RandomForestClassifier(
            n_estimators=20, max_depth=8, random_state=random_state
        )
        self._random_state = random_state

    # ------------------------------------------------------------ features
    def feature_names(self) -> List[str]:
        """Names of the four volumetric attributes."""
        return list(VOLUMETRIC_FEATURE_NAMES)

    def corpus_features_and_labels(
        self,
        streams: Sequence[PacketStream],
        slot_labels: Sequence[Sequence[PlayerStage]],
        skip_launch: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-slot features and aligned stage labels of a corpus, concatenated.

        ``slot_labels`` must provide the ground-truth stage of every slot of
        each session (as produced by :meth:`GameSession.slot_ground_truth`);
        slots beyond the provided labels are dropped, and launch slots are
        excluded when ``skip_launch`` is set.
        """
        if len(streams) != len(slot_labels):
            raise ValueError(
                f"{len(streams)} streams but {len(slot_labels)} label sequences"
            )
        feature_blocks = []
        label_blocks = []
        raw = [raw_slot_matrix(stream, self.slot_duration) for stream in streams]
        for features, labels in zip(self._slot_features(raw), slot_labels):
            n = min(features.shape[0], len(labels))
            labels = list(labels[:n])
            keep = [not (skip_launch and label is PlayerStage.LAUNCH) for label in labels]
            if any(keep):
                feature_blocks.append(features[:n][np.array(keep, dtype=bool)])
                label_blocks.append(
                    np.array([label.value for label, kept in zip(labels, keep) if kept])
                )
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
            X, y = balanced_resample(X, y, self._random_state)
        self.model.fit(X, y)
        return self

    # ----------------------------------------------------------- inference
    def _winners(self, X: np.ndarray) -> Tuple[List[PlayerStage], np.ndarray]:
        """The stage of each forest class, and every row's most probable class.

        Shared by the public predictors below, which do not call each other:
        each is a layer boundary the e2e tracer times under one span name.
        """
        # one enum lookup per class, not per row: the live stage gate comes
        # here with one or two rows a tick
        stages = [PlayerStage(value) for value in self.model.classes_.tolist()]
        return stages, self.model.predict_proba(X).argmax(axis=1)

    def predict_features(self, X: np.ndarray) -> List[PlayerStage]:
        """Predict stages for precomputed slot features (one row or a matrix)."""
        stages, winners = self._winners(X)
        return [stages[index] for index in winners.tolist()]

    def predict_raw_slots_many(self, raw_matrices: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The stage code of every slot of every session, in one forest pass.

        Each ``(n_slots_i, 4)`` raw matrix holds the four raw volumetric
        attributes per slot (down Mbps, down pps, up Kbps, up pps): a
        session's closing counters, or :func:`~repro.core.reducers.raw_slot_matrix`
        of its stream.  The slot features of every session are stacked into
        one matrix, classified together and split back into per-session
        stage timelines, as int arrays of stage codes (positions in
        :data:`~repro.core.transition.STAGES`, whose members a report lists).
        Tree traversal is row-independent, so a session's timeline does not
        depend on its batch; one session is ``predict_raw_slots_many([raw])[0]``.
        """
        blocks = self._slot_features(raw_matrices)
        lengths = [block.shape[0] for block in blocks]
        if sum(lengths) == 0:
            return [np.zeros(0, dtype=np.intp) for _ in lengths]
        stages, winners = self._winners(np.vstack([b for b in blocks if b.shape[0]]))
        code_of_class = np.array([STAGES.index(stage) for stage in stages], dtype=np.intp)
        return np.split(code_of_class[winners], np.cumsum(lengths)[:-1])

    def _slot_features(self, raw_matrices: Sequence[np.ndarray]) -> List[np.ndarray]:
        """raw -> relative -> smoothed: the slot features of every session.

        The one derivation training and :meth:`predict_raw_slots_many`
        share.  The relative conversion runs per session and the EMA
        recurrences of all sessions advance in lockstep
        (:meth:`VolumetricAttributeGenerator.smooth_many`).
        """
        relatives = [
            self.generator.relative_matrix(np.asarray(raw, dtype=float))
            if np.asarray(raw).shape[0]
            else np.zeros((0, 4))
            for raw in raw_matrices
        ]
        return self.generator.smooth_many(relatives)

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
