"""repro.runtime — the streaming deployment runtime (DESIGN.md §6).

Everything between a live packet feed and the paper's Fig. 6 cascade:

* :class:`~repro.runtime.engine.StreamingEngine` — flow demux, per-session
  state machines, the online cascade (title / stage / pattern gates) and
  offline-identical close-time reports;
* :class:`~repro.runtime.shard.ShardedEngine` — multi-core sharding of
  live feeds;
* :class:`~repro.runtime.feed.SessionFeed` / :func:`~repro.runtime.feed.
  pcap_feed` — feed sources over simulated corpora and real captures;
* :func:`~repro.runtime.persistence.save_pipeline` /
  :func:`~repro.runtime.persistence.load_pipeline` — fitted-model
  persistence so deployments load instead of refitting;
* the typed :mod:`~repro.runtime.events` the engine emits.
"""

from repro.net.flow import FlowDemux, canonical_flow_key, flow_addresses
from repro.runtime.engine import OverloadPolicy, StreamingEngine
from repro.runtime.events import (
    ContextEvent,
    FlowShed,
    ModelSwapped,
    PatternInferred,
    QoEInterval,
    SessionRecovered,
    SessionReport,
    SessionStarted,
    StageUpdate,
    TitleClassified,
    TitleReclassified,
    WorkerRestarted,
)
from repro.runtime.faults import (
    CorruptRTP,
    DelayTick,
    DuplicateTick,
    FaultPlan,
    KillWorker,
    StallWorker,
    TruncateBatch,
    apply_feed_faults,
)
from repro.runtime.feed import SessionFeed, pcap_feed
from repro.runtime.persistence import (
    PIPELINE_FORMAT,
    load_pipeline,
    pipeline_digest,
    save_pipeline,
)
from repro.runtime.shard import ShardedEngine, default_worker_count
from repro.runtime.shm import ShmColumnRing
from repro.runtime.state import FlowContext, SessionState
from repro.runtime.supervisor import ShardSupervisor

__all__ = [
    "ContextEvent",
    "CorruptRTP",
    "DelayTick",
    "DuplicateTick",
    "FaultPlan",
    "FlowContext",
    "FlowDemux",
    "FlowShed",
    "KillWorker",
    "ModelSwapped",
    "OverloadPolicy",
    "PatternInferred",
    "PIPELINE_FORMAT",
    "QoEInterval",
    "SessionFeed",
    "SessionRecovered",
    "SessionReport",
    "SessionStarted",
    "SessionState",
    "ShardSupervisor",
    "ShardedEngine",
    "ShmColumnRing",
    "StageUpdate",
    "StallWorker",
    "StreamingEngine",
    "TitleClassified",
    "TitleReclassified",
    "TruncateBatch",
    "WorkerRestarted",
    "apply_feed_faults",
    "canonical_flow_key",
    "default_worker_count",
    "flow_addresses",
    "load_pipeline",
    "pcap_feed",
    "pipeline_digest",
    "save_pipeline",
]
