"""Stage-transition modelling (§4.3.2, the "stage transition modeler" of Fig. 6).

For every session the modeler counts, per slot, the transition from the
previous slot's classified stage to the current one (including
self-retention) in a 3×3 matrix.  Normalised to probabilities across the
monitored duration, the nine values form the attribute vector the gameplay
activity pattern classifier consumes; Table 5 reports their permutation
importance (transitions from active to idle being the most informative).

The modeler has one body per use: :func:`prefix_transition_features` gives
the vector after every slot of a whole sequence (offline inference, and
through its last row, :func:`transition_features_from_stages`, training);
:class:`PrefixTransitionTracker` gives the same rows a few slots at a time
(the streaming runtime).

Whole sequences travel as integer *stage codes* (positions in
:data:`STAGES`): the stage forest's winners become codes once, the
transition attributes and the pipeline's stage fractions read them with
array indexing, and a report turns them into :class:`PlayerStage` members
once.  :func:`stage_codes` converts a sequence of stages (ground truth, a
report's timeline) into codes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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

#: Every stage, in code order: a stage code is a position in this tuple.
STAGES: Tuple[PlayerStage, ...] = tuple(PlayerStage)

_CODE_OF = {stage: code for code, stage in enumerate(STAGES)}

#: The :data:`STAGE_ORDER` position of each stage code, -1 off the gameplay
#: stages; the trailing entry is code -1's (an unknown label)
_ORDER_OF_CODE = np.array([_STAGE_INDEX.get(stage, -1) for stage in STAGES] + [-1])


def stage_codes(stages: Sequence[PlayerStage]) -> np.ndarray:
    """The stage codes of a sequence of stages; anything else is -1 (unknown)."""
    return np.array([_CODE_OF.get(stage, -1) for stage in stages], dtype=np.intp)


def prefix_transition_features(codes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Transition attributes of every prefix of a stage-code sequence, vectorised.

    For a sequence of ``n`` per-slot stage codes (:data:`STAGES`
    positions, -1 for an unknown label), returns

    * an ``(n, 9)`` float matrix whose row ``t`` holds the nine transition
      attributes of slots ``0..t`` (inclusive) — the vector the incremental
      pattern inference evaluates at slot ``t``;
    * an ``(n,)`` int array whose entry ``t`` counts the gameplay-stage slots
      observed up to and including slot ``t``.

    A transition is counted at slot ``t`` exactly when both slot ``t-1`` and
    slot ``t`` carry gameplay stages (launch and unknown codes break the
    chain without counting), so one cumulative sum over a one-hot transition
    matrix counts every prefix.  The paper normalises the nine cells "to
    their probabilities across time slots within the monitored duration",
    i.e. jointly rather than per row: each row is the prefix's counts over
    their total, so the vector also encodes how much time is spent in each
    stage.  Counts are exact small integers, so the rows equal a
    slot-by-slot replay's bit for bit.
    """
    idx = _ORDER_OF_CODE[np.asarray(codes, dtype=np.intp)]
    n = idx.size
    gameplay_seen = np.cumsum(idx >= 0)
    one_hot = np.zeros((n, 9))
    if n > 1:
        valid = (idx[1:] >= 0) & (idx[:-1] >= 0)
        slots = np.flatnonzero(valid) + 1
        cells = idx[slots - 1] * 3 + idx[slots]
        one_hot[slots, cells] = 1.0
    cumulative = np.cumsum(one_hot, axis=0)
    totals = cumulative.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        features = np.where(totals > 0, cumulative / totals, 0.0)
    return features, gameplay_seen


def transition_features_from_stages(codes: Sequence[int]) -> np.ndarray:
    """The nine transition attributes of a whole stage-code sequence.

    The last row of :func:`prefix_transition_features` (zeros when there
    are no slots): the vector the pattern forest trains on.
    """
    if not len(codes):
        return np.zeros(9)
    return prefix_transition_features(codes)[0][-1]


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
    the prefix total.  It takes :class:`PlayerStage` members (the live stage
    gate's verdicts), where the whole-sequence form takes their
    :func:`stage_codes`.
    """

    def __init__(self) -> None:
        self._counts: List[float] = [0.0] * 9
        self._prev = -1
        self._gameplay_seen = 0

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
