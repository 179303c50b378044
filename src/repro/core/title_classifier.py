"""Game-title classification from the first seconds of a session (§4.2).

The classifier consumes the 51 packet-group attributes extracted from the
first ``N`` seconds (5 in the deployed system) of a game streaming flow and
predicts the game title.  Predictions whose confidence falls below a
threshold are reported as ``"unknown"`` — the paper observes that most
misclassified sessions have confidence below 40%, so unknown-labeling keeps
precision high and defers those sessions to the coarse-grained gameplay
activity pattern inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import (
    FLOW_VOLUMETRIC_FEATURE_NAMES,
    PACKET_GROUP_FEATURE_NAMES,
    launch_feature_matrix,
    volumetric_launch_features,
)
from repro.core.packet_groups import PacketGroupLabeler
from repro.ml.base import BaseClassifier
from repro.ml.forest import RandomForestClassifier
from repro.net.packet import PacketStream
from repro.simulation.catalog import UNKNOWN_TITLE


@dataclass
class TitlePrediction:
    """Outcome of classifying one streaming session's launch window."""

    title: str
    confidence: float
    probabilities: dict

    @property
    def is_unknown(self) -> bool:
        return self.title == UNKNOWN_TITLE


class GameTitleClassifier:
    """Classifies the game title from launch-stage packet-group attributes.

    Parameters
    ----------
    window_seconds:
        Analysis window ``N`` (seconds of downstream packets after flow
        start); 5 seconds in the deployed system.
    slot_duration:
        Attribute time slot ``T`` (seconds); 1 second in the deployed system.
    size_variation:
        Packet-group labeling parameter ``V`` (default 10%).
    confidence_threshold:
        Predictions below this confidence are labeled ``"unknown"``
        (default 0.4, per §4.4.1).
    model:
        Underlying classifier; defaults to a random forest of 30 trees of
        depth 8 (DESIGN.md §11 "Forest sizes"; the paper deploys 500 x 10).
    feature_mode:
        ``"packet-group"`` (the paper's 51 attributes) or ``"flow-volumetric"``
        (the Table 3 baseline).
    """

    def __init__(
        self,
        window_seconds: float = 5.0,
        slot_duration: float = 1.0,
        size_variation: float = 0.10,
        confidence_threshold: float = 0.4,
        model: Optional[BaseClassifier] = None,
        feature_mode: str = "packet-group",
        feature_aggregate: str = "concat",
        random_state: Optional[int] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if not 0.0 <= confidence_threshold < 1.0:
            raise ValueError(
                f"confidence_threshold must be in [0, 1), got {confidence_threshold}"
            )
        if feature_mode not in ("packet-group", "flow-volumetric"):
            raise ValueError(
                "feature_mode must be 'packet-group' or 'flow-volumetric', "
                f"got {feature_mode!r}"
            )
        if feature_aggregate not in ("mean", "concat"):
            raise ValueError(
                f"feature_aggregate must be 'mean' or 'concat', got {feature_aggregate!r}"
            )
        self.feature_aggregate = feature_aggregate
        self.window_seconds = window_seconds
        self.slot_duration = slot_duration
        self.size_variation = size_variation
        self.confidence_threshold = confidence_threshold
        self.feature_mode = feature_mode
        self.model = model or RandomForestClassifier(
            n_estimators=30, max_depth=8, random_state=random_state
        )
        self._labeler = PacketGroupLabeler(
            slot_duration=slot_duration, size_variation=size_variation
        )

    # ------------------------------------------------------------ features
    def feature_names(self) -> List[str]:
        """Names of the attributes consumed by the model.

        With ``feature_aggregate="concat"`` the 51 per-slot attributes are
        repeated once per slot with a ``[n]`` suffix, mirroring Fig. 7's
        ``full_ct_sum[n]`` notation.
        """
        if self.feature_mode == "packet-group":
            if self.feature_aggregate == "mean":
                return list(PACKET_GROUP_FEATURE_NAMES)
            n_slots = max(1, int(np.ceil(self.window_seconds / self.slot_duration)))
            return [
                f"{name}[{slot}]"
                for slot in range(n_slots)
                for name in PACKET_GROUP_FEATURE_NAMES
            ]
        return list(FLOW_VOLUMETRIC_FEATURE_NAMES)

    def feature_matrix(self, streams: Sequence[PacketStream]) -> np.ndarray:
        """Feature rows of many sessions according to ``feature_mode``.

        In ``"packet-group"`` mode the 51 per-slot attributes of the whole
        corpus are computed in one grouped reduction
        (:func:`~repro.core.features.launch_feature_matrix`); one session is
        ``feature_matrix([stream])[0]``.
        """
        if not streams:
            raise ValueError("streams must not be empty")
        if self.feature_mode == "packet-group":
            return launch_feature_matrix(
                streams,
                window_seconds=self.window_seconds,
                labeler=self._labeler,
                aggregate=self.feature_aggregate,
            )
        return np.stack(
            [
                volumetric_launch_features(
                    stream,
                    window_seconds=self.window_seconds,
                    slot_duration=self.slot_duration,
                )
                for stream in streams
            ]
        )

    # ------------------------------------------------------------ training
    def fit(
        self,
        streams: Sequence[PacketStream],
        titles: Sequence[str],
    ) -> "GameTitleClassifier":
        """Train on labeled launch windows."""
        if len(streams) != len(titles):
            raise ValueError(
                f"{len(streams)} streams but {len(titles)} title labels"
            )
        X = self.feature_matrix(streams)
        self.model.fit(X, np.asarray(titles))
        return self

    def fit_features(self, X: np.ndarray, titles: Sequence[str]) -> "GameTitleClassifier":
        """Train directly on a precomputed feature matrix."""
        self.model.fit(X, np.asarray(titles))
        return self

    # ----------------------------------------------------------- inference
    def predict_features(self, X: np.ndarray) -> List[TitlePrediction]:
        """Classify sessions from precomputed feature rows (one row or a matrix)."""
        proba = self.model.predict_proba(np.atleast_2d(X))
        classes = self.model.classes_
        predictions: List[TitlePrediction] = []
        for row in proba:
            best = int(np.argmax(row))
            confidence = float(row[best])
            title = str(classes[best])
            if confidence < self.confidence_threshold:
                title = UNKNOWN_TITLE
            predictions.append(
                TitlePrediction(
                    title=title,
                    confidence=confidence,
                    probabilities={
                        str(label): float(p) for label, p in zip(classes, row)
                    },
                )
            )
        return predictions

    def predict_streams(self, streams: Sequence[PacketStream]) -> List[TitlePrediction]:
        """Classify sessions with one batched extraction + forest pass.

        The launch attributes of the whole corpus are extracted in one
        grouped reduction and the forest traverses all rows in a single
        ``predict_proba`` call; one session is ``predict_streams([s])[0]``.
        """
        if not streams:
            return []
        return self.predict_features(self.feature_matrix(streams))

    def evaluate(
        self, streams: Sequence[PacketStream], titles: Sequence[str]
    ) -> Tuple[float, List[TitlePrediction]]:
        """Accuracy (ignoring the unknown fallback) plus raw predictions."""
        predictions = self.predict_streams(streams)
        labels = np.asarray(titles)
        predicted = np.array([p.title for p in predictions])
        return float(np.mean(predicted == labels)), predictions
