"""Typed context events emitted by the streaming runtime.

The deployed system (Fig. 6) does not produce one report per finished
session — it emits context *as it becomes known*: the game title after the
first ``N`` seconds of a flow, the player activity stage every slot, the
gameplay pattern once the confidence gate opens, and the calibrated QoE
verdict when the session ends.  The event types below are the runtime's
public contract; consumers (dashboards, per-subscriber aggregators, the
examples) pattern-match on the concrete class.

All events carry the canonical :class:`~repro.net.flow.FlowKey` of the flow
they describe and the feed-clock ``time`` (seconds) at which the underlying
condition became true.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern_classifier import PatternPrediction
from repro.core.pipeline import SessionContextReport
from repro.core.qoe import QoELevel, QoEMetrics
from repro.core.title_classifier import TitlePrediction
from repro.net.flow import FlowKey
from repro.simulation.catalog import PlayerStage

__all__ = [
    "ContextEvent",
    "FlowShed",
    "SessionRecovered",
    "SessionStarted",
    "TitleClassified",
    "TitleReclassified",
    "StageUpdate",
    "PatternInferred",
    "QoEInterval",
    "SessionReport",
    "WorkerRestarted",
    "ModelSwapped",
]


@dataclass(frozen=True)
class ContextEvent:
    """Base class: which flow, and when (feed-clock seconds)."""

    flow: FlowKey
    time: float


@dataclass(frozen=True)
class SessionStarted(ContextEvent):
    """A new 5-tuple flow appeared in the feed."""


@dataclass(frozen=True)
class TitleClassified(ContextEvent):
    """The title gate opened: ``N`` seconds of the flow have been observed.

    ``prediction`` equals what offline :meth:`GameTitleClassifier.
    predict_stream` reports for the same session (the classifier only reads
    the launch window) as long as no window packet arrives after the gate.
    Short sessions whose window never fills are classified at flow close
    instead (``time`` is then the close clock, not ``origin + N``).
    """

    prediction: TitlePrediction


@dataclass(frozen=True)
class TitleReclassified(ContextEvent):
    """Window packets arrived after the title gate and changed the verdict.

    Emitted when launch-window rows land in a later batch (cross-batch
    reordering) and re-running the classifier over the completed window
    yields a different prediction — or when the close-time report's title
    differs from the last emitted prediction.  The event stream therefore
    always ends consistent with the final report: the last
    ``TitleClassified`` / ``TitleReclassified`` prediction of a flow equals
    ``SessionReport.report.title``.
    """

    prediction: TitlePrediction
    previous: TitlePrediction


@dataclass(frozen=True)
class StageUpdate(ContextEvent):
    """One activity slot completed and was classified online.

    The stage is the runtime's *provisional* verdict: it is computed from
    causal (running-peak) relative volumetric attributes, whereas the
    offline timeline normalises early slots against a whole-session peak
    floor.  The authoritative timeline arrives with :class:`SessionReport`.
    """

    slot_index: int
    stage: PlayerStage


@dataclass(frozen=True)
class PatternInferred(ContextEvent):
    """The gameplay-pattern confidence gate opened for this flow."""

    prediction: PatternPrediction


@dataclass(frozen=True)
class QoEInterval(ContextEvent):
    """Provisional QoE verdict for one completed measurement window.

    Emitted every ``W`` seconds (10 s by default) per live flow so degraded
    sessions surface before they close.  ``metrics`` are estimated from the
    interval's downstream columns alone, with throughput rescaled to
    physical scale for reduced-fidelity synthetic flows exactly like the
    close-time report; ``objective`` maps them through the uncalibrated
    expectations.  When a session closes inside an unsealed window, that
    trailing window is flushed with ``partial=True`` and ``end_s`` at the
    session's last packet; a flow whose last packet's window already sealed
    while the feed ran on (e.g. an idle-timeout close) ends on that full
    window instead — consumers should treat :class:`SessionReport`, not a
    partial window, as the close marker.  Windows with no downstream
    traffic report all-zero metrics (objective *bad*) — a stalled stream is
    exactly what the provisional feed exists to expose.

    In ``session_mode="approx"`` the engine sets ``approximate=True`` and
    the metrics come from the window's fixed-size aggregates
    (:meth:`ObjectiveQoEEstimator.estimate_approx`) instead of its packet
    columns; ``frozen`` then flags a window whose RTP clock never advanced
    past the previous window's last-seen timestamp while packets kept
    flowing — a frozen image the exact tier can only infer from a zero
    frame rate.  ``candidate_gap_packets`` is the approx tier's per-window
    candidate-gap ledger (see
    :class:`~repro.core.reducers.SealedApproxQoEInterval`): the total size
    of the sequence gaps revealed inside the window, localising loss bursts
    to their sealing window; always 0 for exact-tier windows.
    """

    interval_index: int
    start_s: float
    end_s: float
    metrics: QoEMetrics
    objective: QoELevel
    n_packets: int
    partial: bool = False
    approximate: bool = False
    frozen: bool = False
    candidate_gap_packets: int = 0


@dataclass(frozen=True)
class SessionReport(ContextEvent):
    """The flow closed; ``report`` is what offline ``process()`` returns.

    Bit-identical to the offline call on the same packets in the
    ``"full"`` tier always, and in ``"bounded"`` / ``"approx"`` whenever
    ``origin_shifts`` is 0 (``"approx"`` against
    ``process(qoe_mode="approx")``).  ``origin_shifts`` counts the batches
    that delivered a packet older than the session's first-seen timestamp:
    the feed reorders *across* batches.  ``"full"`` refolds its retained
    history and stays exact; the other tiers keep the late anchor, clip
    those rows into slot 0 and measure the duration from the late origin,
    so a non-zero count there marks a report that may differ from offline.

    ``reason`` is ``"eof"`` (feed ended / explicit close) or ``"idle"``
    (no packets for the engine's idle timeout).
    """

    report: SessionContextReport
    reason: str
    n_packets: int
    duration_s: float
    origin_shifts: int = 0


@dataclass(frozen=True)
class FlowShed(ContextEvent):
    """The overload policy dropped this flow past the hard state ceiling.

    Shedding is the runtime's last-resort degradation
    (:class:`~repro.runtime.engine.OverloadPolicy`): the flow's state is
    discarded without a close report, but never silently — this event
    accounts for it, later packets of the flow are counted (and dropped)
    instead of reopening a session, and unaffected flows' reports are
    unchanged.  ``state_bytes``/``n_packets`` describe the shed session at
    the moment it was dropped; ``total_state_bytes`` is the engine-wide
    state footprint that breached the ceiling.
    """

    state_bytes: int
    n_packets: int
    total_state_bytes: int


@dataclass(frozen=True)
class SessionRecovered(ContextEvent):
    """This flow's state was re-homed onto a respawned shard worker.

    Emitted exactly once per worker-restart incident for every flow that
    was live in the restored snapshot; ``time`` is the feed clock at
    recovery.  The flow's subsequent events and close report are
    bit-identical to an uninterrupted run (snapshot + replay reconstruction
    is exact — DESIGN.md §8).
    """

    shard: int


@dataclass(frozen=True)
class WorkerRestarted:
    """A shard worker died (or hung past the recv deadline) and was respawned.

    Not a :class:`ContextEvent`: a worker restart concerns every flow on the
    shard, so there is no single ``flow`` — consumers filtering on
    ``event.flow`` should special-case this type.  One event per incident,
    followed immediately by one :class:`SessionRecovered` per re-homed flow.

    ``reason`` is ``"dead"`` (process exited / pipe broke) or ``"hung"``
    (no reply within the supervisor's recv deadline).  ``replayed_ticks``
    is the length of the replay ring that reconstructed the un-checkpointed
    suffix; ``recovery_latency_s`` is wall-clock respawn + restore + replay.
    """

    shard: int
    time: float
    reason: str
    n_flows: int
    replayed_ticks: int
    recovery_latency_s: float


@dataclass(frozen=True)
class ModelSwapped:
    """The engine hot-swapped its classification pipeline between ticks.

    Not a :class:`ContextEvent`: a swap concerns the whole engine, not one
    flow — consumers filtering on ``event.flow`` should special-case this
    type (analytics rollups ignore it entirely, so swap events never
    perturb fleet digests).  Emitted exactly once per swap: tick ``N`` ran
    the old model, tick ``N + 1`` runs the new one, and no flow, session
    or reducer state is touched in between.  ``old_digest`` / ``new_digest``
    are :func:`~repro.runtime.persistence.pipeline_digest` values — equal
    digests identify an identity swap (a no-op deployment rehearsal whose
    reports stay bit-identical).  On a sharded engine one event is emitted
    per shard (``shard`` is its index, or ``None`` on a single engine) and
    the supervisor sequences the swap so every shard cuts over on the same
    tick boundary.
    """

    time: float
    old_digest: str
    new_digest: str
    shard: "int | None" = None
