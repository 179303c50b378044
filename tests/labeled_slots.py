"""The 51 launch attributes of already labeled slots, for tests.

The library computes a batch's attributes straight from its labeled rows
(``repro.core.features._labeled_feature_matrix`` over one
``label_windows`` pass).  A test that holds :class:`LabeledSlot` objects —
from ``label_window`` or built by hand — turns them into those rows here.
"""

from typing import Sequence

import numpy as np

from repro.core.features import PACKET_GROUP_FEATURE_NAMES, _labeled_feature_matrix
from repro.core.packet_groups import LabeledSlot


def slot_feature_matrix(slots: Sequence[LabeledSlot]) -> np.ndarray:
    """The ``(n_slots, 51)`` attributes of ``slots``, one row per slot.

    Each row depends only on its own slot's packets, and their timestamps
    need not be chronological.
    """
    lengths = [slot.label_codes.size for slot in slots]
    if not sum(lengths):
        return np.zeros((len(slots), len(PACKET_GROUP_FEATURE_NAMES)))
    return _labeled_feature_matrix(
        np.concatenate([slot.payload_sizes for slot in slots]),
        np.concatenate([slot.timestamps for slot in slots]),
        np.concatenate([slot.label_codes for slot in slots]),
        np.repeat(np.arange(len(slots)), lengths),
        len(slots),
    )
