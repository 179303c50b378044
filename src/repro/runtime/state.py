"""Per-session state machines for the streaming runtime.

A :class:`SessionState` is everything the runtime holds for one live flow:
the per-stage reducer cascade
(:class:`~repro.core.reducers.SessionReducerCascade` — launch-window buffer,
integer-exact slot counters with the carried EMA, per-interval QoE columns)
plus the online gate bookkeeping (provisional stage timeline, transition
prefix counts for the pattern gate, title-gate flags).

Three memory modes (DESIGN.md §7):

* ``"bounded"`` (default) — no packet history.  State is O(slots) counters,
  the O(window) launch buffer and the three downstream QoE columns
  (~24 bytes per downstream packet), yet close-time reports finalise
  bit-identical to offline ``process()`` because every reducer's fold is
  exact.  The one approximation: a packet *older than the session origin*
  arriving in a later batch clips into slot/interval 0, so such feeds
  should use full mode.
* ``"full"`` — additionally retains the raw batches, enabling
  ``cascade.assembled_stream()`` and an exact refold when the origin shifts.
* ``"approx"`` — no QoE columns either: the QoE stage folds into the
  O(intervals) :class:`~repro.core.reducers.ApproxQoEIntervalReducer`
  (fixed-size aggregates per 10 s window), so per-session state is flat in
  the packet rate.  Close reports carry ``qoe_approximate=True`` and equal
  offline ``process(..., qoe_mode="approx")`` on the same packets; context
  fields stay exact — only the QoE metrics are approximate, with the error
  bounds documented on the reducer.

The state itself never calls a classifier and wraps nothing: the engine
folds ticks into ``state.cascade`` and asks it which gates are due, harvests
feature rows from many sessions and runs each forest once per tick
(DESIGN.md §6), and reports come from the shared
:meth:`ContextClassificationPipeline.finalize_cascades` driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.reducers import SessionReducerCascade
from repro.core.title_classifier import TitlePrediction
from repro.core.transition import PrefixTransitionTracker
from repro.net.flow import FlowKey
from repro.simulation.catalog import PlayerStage

__all__ = ["FlowContext", "SessionState"]

#: Valid values of ``SessionState(mode=...)``.
SESSION_MODES = ("bounded", "full", "approx")


@dataclass(frozen=True)
class FlowContext:
    """Out-of-band knowledge about a flow.

    ``platform`` overrides signature-based detection (simulated feeds know
    they replay GeForce NOW sessions); ``rate_scale`` records the fidelity a
    synthetic flow was generated at so final QoE metrics are reported at
    physical scale — both mirror what offline ``process(GameSession)``
    receives from :meth:`ContextClassificationPipeline._as_stream`.
    ``region`` tags the flow's serving region for the fleet analytics tier
    (:mod:`repro.analytics`); untagged flows fold under the aggregator's
    default region.
    """

    platform: Optional[str] = None
    rate_scale: float = 1.0
    region: Optional[str] = None


class SessionState:
    """Online cascade state of one live flow.

    ``window_rows_pending`` counts launch-window rows folded since the title
    gate last looked: the engine clears it when the gate fires and treats a
    non-zero count on a fired state as the re-classification trigger.
    """

    __slots__ = (
        "key",
        "context",
        "cascade",
        "mode",
        "timeline",
        "transitions",
        "title_fired",
        "title_prediction",
        "pattern_resolved",
        "last_pattern_confidence",
        "window_rows_pending",
    )

    def __init__(
        self,
        key: FlowKey,
        slot_duration: float,
        alpha: float,
        context: Optional[FlowContext] = None,
        window_seconds: float = 5.0,
        qoe_interval_s: float = 10.0,
        mode: str = "bounded",
    ) -> None:
        if mode not in SESSION_MODES:
            raise ValueError(f"mode must be one of {SESSION_MODES}, got {mode!r}")
        self.key = key
        self.context = context or FlowContext()
        self.mode = mode
        self.cascade = SessionReducerCascade(
            slot_duration=slot_duration,
            alpha=alpha,
            window_seconds=window_seconds,
            qoe_interval_seconds=qoe_interval_s,
            keep_history=(mode == "full"),
            qoe_mode="approx" if mode == "approx" else "exact",
        )
        self.timeline: List[PlayerStage] = []
        self.transitions = PrefixTransitionTracker()
        self.title_fired = False
        self.title_prediction: Optional[TitlePrediction] = None
        self.pattern_resolved = False
        self.last_pattern_confidence = 0.0
        self.window_rows_pending = 0

    # ------------------------------------------------------------ accounting
    def state_nbytes(self) -> int:
        """Approximate bytes of this session's live state (arrays only)."""
        return self.cascade.state_nbytes()

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict:
        """Complete session state as a plain python/numpy dict.

        A state rebuilt with :meth:`from_snapshot` and fed the same
        subsequent batches/clock ticks produces bit-identical events and the
        same close report — the unit of the sharded runtime's
        checkpoint/replay recovery.  Everything inside is picklable (frozen
        dataclasses, enums, numpy arrays, nested dicts).
        """
        return {
            "key": self.key,
            "context": self.context,
            "mode": self.mode,
            "cascade": self.cascade.snapshot(),
            "timeline": list(self.timeline),
            "transitions": self.transitions.snapshot(),
            "title_fired": self.title_fired,
            "title_prediction": self.title_prediction,
            "pattern_resolved": self.pattern_resolved,
            "last_pattern_confidence": self.last_pattern_confidence,
            "window_rows_pending": self.window_rows_pending,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "SessionState":
        """Rebuild a session state from a :meth:`snapshot` dict."""
        state = cls.__new__(cls)
        state.key = snapshot["key"]
        state.context = snapshot["context"]
        state.mode = snapshot["mode"]
        state.cascade = SessionReducerCascade.from_snapshot(snapshot["cascade"])
        state.timeline = list(snapshot["timeline"])
        state.transitions = PrefixTransitionTracker()
        state.transitions.restore(snapshot["transitions"])
        state.title_fired = snapshot["title_fired"]
        state.title_prediction = snapshot["title_prediction"]
        state.pattern_resolved = snapshot["pattern_resolved"]
        state.last_pattern_confidence = snapshot["last_pattern_confidence"]
        state.window_rows_pending = snapshot["window_rows_pending"]
        return state
