"""Stage-transition modelling (§4.3.2, the "stage transition modeler" of Fig. 6).

For every session the modeler maintains a 3×3 matrix counting, per slot, the
transition from the previous slot's classified stage to the current one
(including self-retention).  Normalised to probabilities across the
monitored duration, the nine values form the attribute vector the gameplay
activity pattern classifier consumes; Table 5 reports their permutation
importance (transitions from active to idle being the most informative).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.catalog import PlayerStage

#: Stage ordering of matrix rows/columns.
STAGE_ORDER: Tuple[PlayerStage, ...] = (
    PlayerStage.ACTIVE,
    PlayerStage.PASSIVE,
    PlayerStage.IDLE,
)

#: Names of the nine transition attributes ("from_to" in STAGE_ORDER).
TRANSITION_FEATURE_NAMES: List[str] = [
    f"{src.value}_to_{dst.value}" for src in STAGE_ORDER for dst in STAGE_ORDER
]

_STAGE_INDEX = {stage: index for index, stage in enumerate(STAGE_ORDER)}


class StageTransitionModeler:
    """Accumulates per-slot stage transitions for one session.

    The modeler ignores the launch stage and any unknown labels; it counts a
    transition for every consecutive pair of gameplay-stage slots.
    """

    def __init__(self) -> None:
        self._counts = np.zeros((3, 3))
        self._previous: Optional[PlayerStage] = None
        self._n_slots = 0

    # ------------------------------------------------------------- updates
    def update(self, stage: PlayerStage) -> None:
        """Consume the classified stage of the next slot."""
        if stage not in _STAGE_INDEX:
            # launch or unexpected labels break the chain without counting
            self._previous = None
            return
        self._n_slots += 1
        if self._previous is not None:
            self._counts[_STAGE_INDEX[self._previous], _STAGE_INDEX[stage]] += 1
        self._previous = stage

    def update_sequence(self, stages: Sequence[PlayerStage]) -> None:
        """Consume a whole sequence of per-slot stages."""
        for stage in stages:
            self.update(stage)

    def reset(self) -> None:
        """Clear all state (start of a new session)."""
        self._counts = np.zeros((3, 3))
        self._previous = None
        self._n_slots = 0

    # ------------------------------------------------------------ outputs
    @property
    def n_slots(self) -> int:
        """Number of gameplay-stage slots consumed so far."""
        return self._n_slots

    @property
    def n_transitions(self) -> int:
        """Number of transitions counted so far."""
        return int(self._counts.sum())

    def counts(self) -> np.ndarray:
        """Raw 3×3 transition count matrix (copy)."""
        return self._counts.copy()

    def probability_matrix(self) -> np.ndarray:
        """Transition counts normalised over all observed transitions.

        The paper normalises the nine cells "to their probabilities across
        time slots within the monitored duration", i.e. jointly rather than
        per row, so the attribute vector also encodes how much time is spent
        in each stage.
        """
        total = self._counts.sum()
        if total == 0:
            return np.zeros((3, 3))
        return self._counts / total

    def row_stochastic_matrix(self) -> np.ndarray:
        """Per-source-stage conditional transition probabilities."""
        matrix = self._counts.copy()
        row_sums = matrix.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            normalised = np.where(row_sums > 0, matrix / row_sums, 0.0)
        return normalised

    def feature_vector(self) -> np.ndarray:
        """The nine-attribute vector consumed by the pattern classifier."""
        return self.probability_matrix().reshape(-1)

    def feature_dict(self) -> Dict[str, float]:
        """``{attribute name: probability}`` mapping of the nine attributes."""
        return dict(zip(TRANSITION_FEATURE_NAMES, self.feature_vector().tolist()))


def transition_features_from_stages(stages: Sequence[PlayerStage]) -> np.ndarray:
    """One-shot helper: nine transition attributes of a stage sequence."""
    modeler = StageTransitionModeler()
    modeler.update_sequence(stages)
    return modeler.feature_vector()


def stage_index_codes(stages: Sequence[PlayerStage]) -> np.ndarray:
    """Map a stage sequence onto :data:`STAGE_ORDER` indices (int64 array).

    Gameplay stages map to 0..2 (active, passive, idle); launch and any
    unexpected labels map to ``-1``, which breaks the transition chain
    exactly like :meth:`StageTransitionModeler.update` does.
    """
    return np.asarray(
        [_STAGE_INDEX.get(stage, -1) for stage in stages], dtype=np.int64
    )


def prefix_transition_features(
    stages: Sequence[PlayerStage],
) -> Tuple[np.ndarray, np.ndarray]:
    """Transition attributes of every prefix of a stage sequence, vectorised.

    For a sequence of ``n`` per-slot stages, returns

    * an ``(n, 9)`` float matrix whose row ``t`` equals
      ``StageTransitionModeler.feature_vector()`` after consuming slots
      ``0..t`` (inclusive) — the attribute vector the incremental pattern
      inference evaluates at slot ``t``;
    * an ``(n,)`` int array whose entry ``t`` counts the gameplay-stage slots
      observed up to and including slot ``t``.

    The per-slot replay of :meth:`StageTransitionModeler.update` is replaced
    by one cumulative sum over a one-hot transition matrix: a transition is
    counted at slot ``t`` exactly when both slot ``t-1`` and slot ``t`` carry
    gameplay stages (any launch/unknown slot resets the chain), and each
    prefix's probability matrix is its cumulative counts normalised by the
    cumulative total.  Counts are exact small integers, so the resulting
    rows are bit-identical to the sequential modeler's.
    """
    idx = stage_index_codes(stages)
    n = idx.size
    gameplay_seen = np.cumsum(idx >= 0)
    one_hot = np.zeros((n, 9))
    if n > 1:
        valid = (idx[1:] >= 0) & (idx[:-1] >= 0)
        slots = np.flatnonzero(valid) + 1
        codes = idx[slots - 1] * 3 + idx[slots]
        one_hot[slots, codes] = 1.0
    cumulative = np.cumsum(one_hot, axis=0)
    totals = cumulative.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        features = np.where(totals > 0, cumulative / totals, 0.0)
    return features, gameplay_seen


class PrefixTransitionTracker:
    """Streaming :func:`prefix_transition_features`: carry counts across batches.

    The streaming runtime receives a session's classified stages a slot or
    two at a time; re-deriving every prefix from the whole sequence would
    cost O(n) per batch (O(n²) per session).  The tracker carries the nine
    transition counts, the previous stage and the gameplay-slot count across
    calls as python numbers, so each :meth:`extend` is O(k) in the batch size
    with two array constructions, while the concatenated outputs stay
    bit-identical to one :func:`prefix_transition_features` call over the
    full sequence — counts are exact small integers (their total is exact in
    any order), and each attribute is the same single division of a count by
    the prefix total.
    """

    def __init__(self) -> None:
        self._counts: List[float] = [0.0] * 9
        self._prev = -1
        self._gameplay_seen = 0

    @property
    def gameplay_seen(self) -> int:
        """Gameplay-stage slots consumed so far."""
        return self._gameplay_seen

    @property
    def n_transitions(self) -> int:
        """Transitions counted so far."""
        return int(sum(self._counts))

    def feature_vector(self) -> np.ndarray:
        """The current nine-attribute prefix vector (all slots so far)."""
        total = sum(self._counts)
        if total == 0:
            return np.zeros(9)
        return np.array(self._counts) / total

    def extend(self, stages: Sequence[PlayerStage]) -> Tuple[np.ndarray, np.ndarray]:
        """Consume the next batch of slots; return their prefix attributes.

        Returns the ``(k, 9)`` attribute matrix and ``(k,)`` gameplay-slot
        counts for the ``k`` new slots, exactly the rows
        :func:`prefix_transition_features` would produce for those positions.
        """
        if not len(stages):
            return np.zeros((0, 9)), np.zeros(0, dtype=np.int64)
        counts = self._counts
        previous = self._prev
        total = sum(counts)
        features: List[List[float]] = []
        gameplay: List[int] = []
        for stage in stages:
            current = _STAGE_INDEX.get(stage, -1)
            if current >= 0:
                self._gameplay_seen += 1
                if previous >= 0:
                    counts[previous * 3 + current] += 1.0
                    total += 1.0
            previous = current
            features.append(
                [count / total for count in counts] if total else [0.0] * 9
            )
            gameplay.append(self._gameplay_seen)
        self._prev = previous
        return np.array(features), np.array(gameplay, dtype=np.int64)

    def snapshot(self) -> dict:
        """Copy of the carried counts as a plain dict."""
        return {
            "counts": np.array(self._counts),
            "prev": self._prev,
            "gameplay_seen": self._gameplay_seen,
        }

    def restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`snapshot`; subsequent extends continue bit-identically."""
        self._counts = snapshot["counts"].tolist()
        self._prev = snapshot["prev"]
        self._gameplay_seen = snapshot["gameplay_seen"]


def stage_occupancy(stages: Sequence[PlayerStage]) -> Dict[PlayerStage, float]:
    """Fraction of gameplay slots per stage in a stage sequence."""
    gameplay = [stage for stage in stages if stage in _STAGE_INDEX]
    if not gameplay:
        return {stage: 0.0 for stage in STAGE_ORDER}
    return {
        stage: sum(1 for s in gameplay if s is stage) / len(gameplay)
        for stage in STAGE_ORDER
    }
