"""The paper's primary contribution: cloud-gaming context classification.

This subpackage implements the two novel processes of Fig. 6 plus the
objective/effective QoE modules they calibrate:

* :mod:`repro.core.packet_groups` — labeling launch-stage downstream packets
  as *full*, *steady* or *sparse* (§4.2.1).
* :mod:`repro.core.features` — the 51 per-time-slot statistical attributes
  of the three packet groups (§4.2.2, Fig. 7).
* :mod:`repro.core.title_classifier` — game-title classification from the
  first N seconds of a streaming session (§4.2).
* :mod:`repro.core.volumetric` — EMA-smoothed relative volumetric attributes
  per I-second slot (§4.3.1).
* :mod:`repro.core.activity_classifier` — player-activity-stage
  classification (§4.3.1).
* :mod:`repro.core.transition` — the 3×3 stage-transition matrix modeler
  (§4.3.2).
* :mod:`repro.core.pattern_classifier` — confidence-gated gameplay-activity-
  pattern inference (§4.3.2).
* :mod:`repro.core.qoe` — objective QoE estimation and context-calibrated
  effective QoE (§5.3).
* :mod:`repro.core.pipeline` — the end-to-end real-time pipeline of Fig. 6.

Each classifier verdict has one entry point, the batched form:
``launch_feature_matrix`` / ``GameTitleClassifier.predict_streams`` for the
title, ``PlayerActivityClassifier.predict_raw_slots_many`` for the stage
timeline (fed the slot reducer's counts, ``repro.core.reducers.raw_slot_matrix``
for a stream) and ``GameplayPatternClassifier.predict_incremental_many`` for
the pattern.  One session is a one-element call, e.g.
``predict_raw_slots_many([raw_slot_matrix(stream, I)])[0]``.
"""

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.features import (
    PACKET_GROUP_FEATURE_NAMES,
    launch_feature_matrix,
    volumetric_launch_features,
)
from repro.core.packet_groups import PacketGroup, PacketGroupLabeler
from repro.core.pattern_classifier import GameplayPatternClassifier
from repro.core.pipeline import ContextClassificationPipeline, SessionContextReport
from repro.core.qoe import (
    EffectiveQoECalibrator,
    ObjectiveQoEEstimator,
    QoELevel,
    QoEThresholds,
)
from repro.core.title_classifier import GameTitleClassifier
from repro.core.transition import TRANSITION_FEATURE_NAMES
from repro.core.volumetric import VolumetricAttributeGenerator

__all__ = [
    "PacketGroup",
    "PacketGroupLabeler",
    "PACKET_GROUP_FEATURE_NAMES",
    "launch_feature_matrix",
    "volumetric_launch_features",
    "GameTitleClassifier",
    "VolumetricAttributeGenerator",
    "PlayerActivityClassifier",
    "TRANSITION_FEATURE_NAMES",
    "GameplayPatternClassifier",
    "ObjectiveQoEEstimator",
    "EffectiveQoECalibrator",
    "QoELevel",
    "QoEThresholds",
    "ContextClassificationPipeline",
    "SessionContextReport",
]
