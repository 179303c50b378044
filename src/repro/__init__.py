"""repro — reproduction of "Games Are Not Equal: Classifying Cloud Gaming
Contexts for Effective User Experience Measurement" (ACM IMC 2025).

The package is organised in six layers:

* :mod:`repro.net` — packet/flow/RTP/PCAP substrate and the cloud-gaming
  flow detector.
* :mod:`repro.ml` — numpy-only machine-learning substrate (random forest,
  SVM, KNN, metrics, cross-validation, permutation importance).
* :mod:`repro.simulation` — synthetic GeForce-NOW-like traffic generation
  (lab corpus and ISP-scale session records).
* :mod:`repro.core` — the paper's contribution: packet-group labeling,
  launch-attribute extraction, game-title classification, player-activity
  stage classification, gameplay-pattern inference and effective-QoE
  calibration, wired together in :class:`repro.core.pipeline.
  ContextClassificationPipeline`.
* :mod:`repro.runtime` — the streaming deployment runtime: live flow
  demux, per-session online cascade state machines, sharded workers and
  fitted-pipeline persistence (DESIGN.md §6).
* :mod:`repro.analysis` / :mod:`repro.experiments` — the analyses behind
  every table and figure of the paper.

Quickstart::

    from repro import ContextClassificationPipeline, generate_lab_dataset

    lab = generate_lab_dataset(sessions_per_title=3, random_state=7)
    pipeline = ContextClassificationPipeline(random_state=7).fit(lab.sessions)
    report = pipeline.process(lab.sessions[0])
    print(report.context_label, report.effective_qoe)
"""

from repro.core import (
    ContextClassificationPipeline,
    EffectiveQoECalibrator,
    GameplayPatternClassifier,
    GameTitleClassifier,
    ObjectiveQoEEstimator,
    PacketGroupLabeler,
    PlayerActivityClassifier,
    QoELevel,
    SessionContextReport,
)
from repro.net import (
    CloudGamingFlowDetector,
    Direction,
    NetworkConditions,
    PacketStream,
    read_pcap_columns,
    read_pcap_stream,
    write_pcap,
)
from repro.runtime import (
    SessionFeed,
    ShardedEngine,
    StreamingEngine,
    load_pipeline,
    pcap_feed,
    save_pipeline,
)
from repro.simulation import (
    ActivityPattern,
    GameSession,
    GameTitle,
    Genre,
    ISPDeploymentSimulator,
    PlayerStage,
    SessionConfig,
    SessionGenerator,
    StreamingSettings,
    generate_lab_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ContextClassificationPipeline",
    "SessionContextReport",
    "GameTitleClassifier",
    "PlayerActivityClassifier",
    "GameplayPatternClassifier",
    "PacketGroupLabeler",
    "ObjectiveQoEEstimator",
    "EffectiveQoECalibrator",
    "QoELevel",
    # net
    "PacketStream",
    "Direction",
    "CloudGamingFlowDetector",
    "NetworkConditions",
    "read_pcap_columns",
    "read_pcap_stream",
    "write_pcap",
    # runtime
    "StreamingEngine",
    "ShardedEngine",
    "SessionFeed",
    "pcap_feed",
    "save_pipeline",
    "load_pipeline",
    # simulation
    "GameTitle",
    "Genre",
    "ActivityPattern",
    "PlayerStage",
    "GameSession",
    "SessionConfig",
    "SessionGenerator",
    "StreamingSettings",
    "ISPDeploymentSimulator",
    "generate_lab_dataset",
]
