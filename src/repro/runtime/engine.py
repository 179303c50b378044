"""The streaming deployment engine: live flow demux + online Fig. 6 cascade.

:class:`StreamingEngine` turns a fitted
:class:`~repro.core.pipeline.ContextClassificationPipeline` into a
long-running service.  Packet batches (``PacketColumns``) arrive through
:meth:`StreamingEngine.ingest`; the engine demultiplexes them by canonical
5-tuple, maintains one :class:`~repro.runtime.state.SessionState` per live
flow (the bounded reducer cascade of DESIGN.md §7), and advances every
session through the paper's gates as the feed clock moves:

* **title gate** — once ``N`` seconds of a flow have been observed, its
  launch-window buffer is classified (batched across all flows whose gate
  opens in the same tick) and a :class:`TitleClassified` event fires.  A
  flow whose window never fills is classified at close instead, and window
  packets arriving *after* the gate (cross-batch reordering) trigger a
  re-classification (:class:`TitleReclassified` when the verdict changes);
* **stage slots** — every completed ``I``-second slot is classified from
  causal volumetric attributes with the EMA recurrence carried across
  batches; the newly completed slots of *all* sessions share one forest
  pass per tick (:class:`StageUpdate` events);
* **pattern gate** — each new gameplay slot past ``min_slots`` evaluates
  the session's transition-attribute prefix (carried by
  :class:`~repro.core.transition.PrefixTransitionTracker`); all eligible
  rows of all unresolved sessions share one forest pass, and the first
  confident row fires :class:`PatternInferred` — the same first-confident-
  slot semantics as offline ``predict_incremental``;
* **QoE windows** — every completed ``W``-second interval (10 s by
  default) emits a provisional :class:`QoEInterval` verdict from the QoE
  reducer's per-interval downstream columns, so degraded sessions surface
  before they end;
* **close** — when a flow goes idle (or the feed ends) the engine
  finalises the session's reducers through the *same*
  :meth:`ContextClassificationPipeline.finalize_cascades` driver the
  offline ``process()`` path uses, producing a :class:`SessionReport`
  **bit-identical** to offline ``process()`` on the same packets (pinned
  by ``tests/test_runtime.py`` and ``tests/test_reducers.py``) — no packet
  history is replayed, in either session mode.

Single-process by design; :class:`~repro.runtime.shard.ShardedEngine`
partitions flows across workers for multi-core deployments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dataclasses_replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.pattern_classifier import PatternPrediction
from repro.core.pipeline import ContextClassificationPipeline
from repro.core.reducers import (
    SealedApproxQoEInterval,
    SealedQoEInterval,
    TickFacts,
)
from repro.net.flow import FlowDemux, FlowKey, FlowTick
from repro.simulation.catalog import ActivityPattern
from repro.net.packet import PacketColumns
from repro.runtime.events import (
    ContextEvent,
    FlowShed,
    ModelSwapped,
    PatternInferred,
    QoEInterval,
    SessionReport,
    SessionStarted,
    StageUpdate,
    TitleClassified,
    TitleReclassified,
)
from repro.runtime.state import SESSION_MODES, FlowContext, SessionState

__all__ = ["OverloadPolicy", "StreamingEngine", "build_qoe_interval_event"]


def build_qoe_interval_event(
    pipeline: ContextClassificationPipeline,
    key: FlowKey,
    context: FlowContext,
    interval: Union[SealedApproxQoEInterval, SealedQoEInterval],
    latency_ms: Optional[float] = None,
) -> QoEInterval:
    """One sealed measurement window as a provisional :class:`QoEInterval`.

    Exact windows carry their downstream columns (:class:`SealedQoEInterval`
    → ``estimate_arrays``); approx windows carry fixed-size aggregates
    (:class:`SealedApproxQoEInterval` → ``estimate_approx``), and the event
    is flagged ``approximate`` with the reducer's freeze verdict and
    candidate-gap ledger attached.  Shared by the streaming engine and the
    fleet tier's offline corpus fold (:func:`repro.analytics.fleet.
    fold_corpus`), so both paths compute bit-identical events from equal
    sealed windows.
    """
    approximate = isinstance(interval, SealedApproxQoEInterval)
    if approximate:
        metrics = pipeline.qoe_estimator.estimate_approx(
            duration_s=interval.duration_s,
            down_payload_bytes=interval.payload_bytes,
            n_down_packets=interval.n_packets,
            n_frames=interval.n_new_frames,
            n_rtp=interval.n_rtp,
            burst_gap_count=interval.burst_gap_count,
            gap_count=interval.gap_count,
            gap_max_s=interval.gap_max_s,
            gap_samples=interval.gap_samples,
            seq_received=interval.seq_received,
            seq_lost=interval.seq_lost,
            latency_ms=latency_ms,
        )
    else:
        metrics = pipeline.qoe_estimator.estimate_arrays(
            duration_s=interval.duration_s,
            down_times=interval.down_times,
            down_payload_bytes=interval.payload_bytes,
            rtp_timestamps=interval.rtp_timestamps,
            rtp_sequences=interval.rtp_sequences,
            latency_ms=latency_ms,
        )
    if context.rate_scale != 1.0:
        metrics = dataclasses_replace(
            metrics,
            throughput_mbps=metrics.throughput_mbps / context.rate_scale,
        )
    return QoEInterval(
        flow=key,
        time=interval.end_s,
        interval_index=interval.index,
        start_s=interval.start_s,
        end_s=interval.end_s,
        metrics=metrics,
        objective=pipeline.qoe_calibrator.objective_level(metrics),
        n_packets=interval.n_packets,
        partial=interval.partial,
        approximate=approximate,
        frozen=approximate and interval.frozen,
        candidate_gap_packets=(
            interval.candidate_gap_packets if approximate else 0
        ),
    )


def _check_swap_geometry(
    old: ContextClassificationPipeline, new: ContextClassificationPipeline
) -> None:
    """Reject a hot swap that would reinterpret live per-session fold state.

    Title window seconds, activity slot duration and the EMA weight are
    baked into every live session's accumulated reducers; a replacement
    pipeline must agree on them.  Pure gate parameters (confidence
    thresholds, minimum slots) carry no state and may differ.  Shared by
    :meth:`StreamingEngine.swap_pipeline`,
    :meth:`~repro.runtime.shard.ShardedEngine.request_swap` and
    :meth:`~repro.runtime.supervisor.ShardSupervisor.swap_all` so every
    swap path fails fast in the caller instead of crashing a worker.
    """
    mismatches = [
        f"{name}: {old_value!r} != {new_value!r}"
        for name, old_value, new_value in (
            (
                "title_window_seconds",
                old.title_classifier.window_seconds,
                new.title_classifier.window_seconds,
            ),
            (
                "slot_duration",
                old.activity_classifier.slot_duration,
                new.activity_classifier.slot_duration,
            ),
            (
                "alpha",
                old.activity_classifier.alpha,
                new.activity_classifier.alpha,
            ),
        )
        if old_value != new_value
    ]
    if mismatches:
        raise ValueError(
            "swap_pipeline: fold geometry mismatch, live session state "
            "would be reinterpreted (" + "; ".join(mismatches) + ")"
        )


@dataclass(frozen=True)
class OverloadPolicy:
    """Graceful-degradation thresholds for :class:`StreamingEngine.ingest`.

    Throughput degrades by policy instead of by OOM (DESIGN.md §8):

    * past ``soft_state_bytes`` of total live session state, **new** flows
      auto-open in ``"approx"`` mode (O(intervals) QoE aggregates instead of
      packet columns) — existing flows are untouched and every close report
      stays exact for the mode it opened in;
    * past ``hard_state_bytes`` (or above ``max_live_flows`` live sessions),
      flows are shed largest-state-first until back under the ceiling, each
      with a :class:`~repro.runtime.events.FlowShed` event; later packets of
      a shed flow are counted (``shed_packets``) and dropped, never reopened;
    * thresholds are evaluated every ``check_every_ticks`` ingested batches
      (state accounting walks every live session, so sparse checks trade
      ceiling precision for per-tick cost).

    In the sharded runtime the policy is applied per shard engine, so the
    byte/flow ceilings bound each worker, not the fleet total.
    """

    soft_state_bytes: Optional[int] = None
    hard_state_bytes: Optional[int] = None
    max_live_flows: Optional[int] = None
    check_every_ticks: int = 1

    def __post_init__(self) -> None:
        if self.check_every_ticks < 1:
            raise ValueError(
                f"check_every_ticks must be >= 1, got {self.check_every_ticks}"
            )
        for name in ("soft_state_bytes", "hard_state_bytes", "max_live_flows"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


class StreamingEngine:
    """Single-process streaming runtime over a fitted pipeline.

    Parameters
    ----------
    pipeline:
        A fitted :class:`ContextClassificationPipeline`; gate parameters
        (title window, slot duration, EMA weight, pattern confidence
        threshold and minimum slots) are read from its classifiers so the
        online cascade matches the offline configuration exactly.
    idle_timeout_s:
        Close a flow when the feed clock moves this far past its last
        packet (``None`` disables idle closing; flows then close at feed
        end / explicit :meth:`close`).
    latency_ms:
        Optional out-of-band access latency forwarded to the QoE stage of
        every final report (and every provisional interval verdict).
    session_mode:
        ``"bounded"`` (default) keeps O(slots) counters plus the QoE
        columns per session — no packet history; ``"full"`` additionally
        retains the raw batches (exact under pre-origin reordering, and
        :meth:`SessionReducerCascade.assembled_stream` stays available); close
        reports are offline-identical in both.  ``"approx"`` drops the QoE
        columns too (O(intervals) aggregates, state flat in the packet
        rate): close reports carry ``qoe_approximate=True`` and equal
        offline ``process(..., qoe_mode="approx")``.
    qoe_interval_s:
        Width of the provisional QoE measurement windows.
    analytics:
        Attach a fleet analytics aggregator
        (:class:`~repro.analytics.fleet.FleetAggregator`): ``True`` creates
        a default one, or pass a pre-configured instance.  The aggregator
        observes every emitted event (with the flow's registered context)
        and its state rides :meth:`snapshot` / :meth:`restore`, so sharded
        checkpoint/replay recovery keeps rollups exactly-once.
    """

    def __init__(
        self,
        pipeline: ContextClassificationPipeline,
        idle_timeout_s: Optional[float] = None,
        latency_ms: Optional[float] = None,
        session_mode: str = "bounded",
        qoe_interval_s: float = 10.0,
        overload: Optional[OverloadPolicy] = None,
        analytics=None,
    ) -> None:
        pipeline._require_fitted()
        if session_mode not in SESSION_MODES:
            # fail fast: deferring to the first packet would kill a forked
            # shard worker and surface only as an opaque EOFError upstream
            raise ValueError(
                f"session_mode must be one of {SESSION_MODES}, got {session_mode!r}"
            )
        self.pipeline = pipeline
        self.idle_timeout_s = idle_timeout_s
        self.latency_ms = latency_ms
        self.session_mode = session_mode
        self.qoe_interval_s = qoe_interval_s
        self.overload = overload
        self.n_shed = 0
        self.shed_packets = 0
        self.n_degraded_opens = 0
        self._shed: Set[FlowKey] = set()
        self._tick_count = 0
        self._soft_active = False
        self.title_window_seconds = pipeline.title_classifier.window_seconds
        self.slot_duration = pipeline.activity_classifier.slot_duration
        self.alpha = pipeline.activity_classifier.alpha
        self.min_pattern_slots = pipeline.pattern_classifier.min_slots
        self.pattern_threshold = pipeline.pattern_classifier.confidence_threshold
        self._demux = FlowDemux()
        self._states: Dict[FlowKey, SessionState] = {}
        self._contexts: Dict[FlowKey, FlowContext] = {}
        self._clock = float("-inf")
        if analytics:
            # imported lazily: repro.analytics imports the runtime's event
            # types, so a module-level import here would be circular
            from repro.analytics.fleet import FleetAggregator

            self.analytics = (
                analytics
                if isinstance(analytics, FleetAggregator)
                else FleetAggregator()
            )
        else:
            self.analytics = None

    # ------------------------------------------------------------ contexts
    @property
    def clock(self) -> float:
        """The feed clock: the largest packet timestamp ingested so far."""
        return self._clock

    @property
    def live_flows(self) -> List[FlowKey]:
        """Keys of the currently open sessions."""
        return list(self._states)

    def set_flow_context(self, key: FlowKey, context: FlowContext) -> None:
        """Register out-of-band platform / rate-scale knowledge for a flow."""
        self._contexts[key] = context
        state = self._states.get(key)
        if state is not None:
            state.context = context

    def state_nbytes(self) -> Dict[FlowKey, int]:
        """Approximate live per-session state bytes (for capacity planning)."""
        return {key: state.state_nbytes() for key, state in self._states.items()}

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict:
        """The engine's complete mutable state as a picklable dict.

        Captures the feed clock, every live session's fold state, the
        registered flow contexts and the overload bookkeeping — everything
        that is not configuration.  An engine constructed with the same
        parameters (same fitted pipeline, timeouts, modes, policy), restored
        from the snapshot and fed the same subsequent batches emits
        bit-identical events and close reports; the sharded supervisor's
        checkpoint/replay recovery is built on exactly this property
        (DESIGN.md §8).
        """
        return {
            "clock": self._clock,
            "states": [state.snapshot() for state in self._states.values()],
            "contexts": dict(self._contexts),
            "shed": set(self._shed),
            "n_shed": self.n_shed,
            "shed_packets": self.shed_packets,
            "n_degraded_opens": self.n_degraded_opens,
            "tick_count": self._tick_count,
            "soft_active": self._soft_active,
            "analytics": (
                None if self.analytics is None else self.analytics.snapshot()
            ),
        }

    def restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`snapshot` (configuration is not part of it).

        Session insertion order is preserved, so per-tick iteration over the
        restored sessions — and therefore event ordering — matches the
        engine the snapshot was taken from.  The demux canonical-key cache
        is a pure cache and restarts empty.
        """
        states = [SessionState.from_snapshot(item) for item in snapshot["states"]]
        self._states = {state.key: state for state in states}
        self._contexts = dict(snapshot["contexts"])
        self._clock = snapshot["clock"]
        self._shed = set(snapshot["shed"])
        self.n_shed = snapshot["n_shed"]
        self.shed_packets = snapshot["shed_packets"]
        self.n_degraded_opens = snapshot["n_degraded_opens"]
        self._tick_count = snapshot["tick_count"]
        self._soft_active = snapshot["soft_active"]
        self._demux = FlowDemux()
        if self.analytics is not None:
            from repro.analytics.fleet import FleetAggregator

            payload = snapshot.get("analytics")
            # an engine configured with analytics adopts the snapshot's
            # aggregator (or restarts it empty for pre-analytics snapshots)
            self.analytics = (
                FleetAggregator() if payload is None
                else FleetAggregator.from_snapshot(payload)
            )

    # ------------------------------------------------------------- hot swap
    def swap_pipeline(
        self,
        pipeline: Union[str, Path, ContextClassificationPipeline],
    ) -> ModelSwapped:
        """Atomically replace the classification pipeline between ticks.

        ``pipeline`` is a fitted :class:`ContextClassificationPipeline` or a
        directory saved by :func:`~repro.runtime.persistence.save_pipeline`
        (loaded here, kernels pre-compiled).  The swap is a single reference
        assignment: the tick that returned before this call ran entirely on
        the old model, the next tick runs entirely on the new one, and no
        flow, session or reducer state is touched — sessions spanning the
        swap keep their accumulated fold state and are classified by the new
        model from the next gate they hit.

        The new pipeline must agree with the old one on the *fold geometry*
        baked into live session state — title window seconds, activity slot
        duration and EMA weight — otherwise the accumulated per-session
        reducers would be reinterpreted under the wrong layout; a mismatch
        raises :class:`ValueError` and leaves the engine untouched.  Pure
        gate parameters (pattern confidence threshold / minimum slots) carry
        no state and are adopted from the new pipeline.

        Returns the :class:`~repro.runtime.events.ModelSwapped` event (it is
        *not* folded into the attached analytics aggregator — rollup digests
        are invariant under swaps).  An identity swap (equal digests) leaves
        every subsequent event and close report bit-identical.
        """
        from repro.runtime.persistence import load_pipeline, pipeline_digest

        if not isinstance(pipeline, ContextClassificationPipeline):
            pipeline = load_pipeline(pipeline)
        pipeline._require_fitted()
        _check_swap_geometry(self.pipeline, pipeline)
        old_digest = pipeline_digest(self.pipeline)
        new_digest = pipeline_digest(pipeline)
        pipeline.compile_kernels()
        self.pipeline = pipeline
        self.min_pattern_slots = pipeline.pattern_classifier.min_slots
        self.pattern_threshold = pipeline.pattern_classifier.confidence_threshold
        return ModelSwapped(
            time=self._clock,
            old_digest=old_digest,
            new_digest=new_digest,
            shard=None,
        )

    # ------------------------------------------------------------ ingestion
    def ingest(self, columns: PacketColumns) -> List[ContextEvent]:
        """Consume one packet batch; return the events it triggered.

        ``columns`` may interleave any number of flows in any order —
        batches demultiplex by canonical 5-tuple first, and close reports
        are invariant under how the same packets are batched (the
        offline-identity contract pinned by ``tests/test_runtime.py``).
        Returns the tick's events in deterministic order; advances the
        engine clock to the batch's newest timestamp.
        """
        clock = self._clock
        if len(columns):
            clock = max(clock, float(columns.timestamps.max()))
        tick = FlowTick.gather(columns, self._demux.split_indices(columns))
        return self.ingest_tick(tick, clock)

    def ingest_demuxed(
        self,
        pairs: Sequence[Tuple[FlowKey, PacketColumns]],
        clock: float,
    ) -> List[ContextEvent]:
        """Consume already-demultiplexed per-flow sub-batches.

        The materialised form of :meth:`ingest_tick` (serial sharding, the
        inline transport fallback): the sub-batches are concatenated into
        one tick first, so they should agree on which optional columns they
        carry (:meth:`~repro.net.flow.FlowTick.concat`).
        """
        return self.ingest_tick(FlowTick.concat(pairs), clock)

    def ingest_tick(self, tick: FlowTick, clock: float) -> List[ContextEvent]:
        """Fold one flow-sorted tick and advance every gate the clock passed.

        ``clock`` carries the feed time even when the tick is empty, so idle
        flows keep completing slots (a shard receives every tick of the
        feed, with or without rows of its own).
        """
        events: List[ContextEvent] = []
        self._clock = max(self._clock, clock)
        if tick.keys:
            self._fold_tick(tick, events)
        self._advance(events)
        # fold the tick's own events before the idle closes: close() events
        # are observed inside _close_states, so folding them here too would
        # double-count
        self._observe(events)
        if self.idle_timeout_s is not None:
            for key in [
                key
                for key, state in self._states.items()
                if state.cascade.last_ts + self.idle_timeout_s <= self._clock
            ]:
                events.extend(self.close(key, reason="idle"))
        shed_from = len(events)
        self._enforce_overload(events)
        self._observe(events[shed_from:])
        return events

    def _fold_tick(self, tick: FlowTick, events: List[ContextEvent]) -> None:
        """Fold every flow's rows of a non-empty tick into its session.

        The tick is reduced to per-flow facts once
        (:class:`~repro.core.reducers.TickFacts`); each flow then costs one
        cascade fold on scalars, and the flows whose rows cross a slot edge
        are bucketed together after the loop.  New flows open here, in tick
        order.
        """
        facts = TickFacts(tick.columns, tick.bounds)
        states, shed = self._states, self._shed
        for flow, key in enumerate(tick.keys):
            if shed and key in shed:
                # accounted, never silently dropped — and never reopened,
                # which would churn the very state the ceiling bounds
                self.shed_packets += facts.bounds[flow + 1] - facts.bounds[flow]
                continue
            state = states.get(key)
            if state is None:
                state = self._open_session(key)
                # the flow's oldest row, wherever it sits in the batch
                events.append(SessionStarted(flow=key, time=facts.first[flow]))
            state.window_rows_pending += state.cascade.fold(facts, flow)
        facts.flush()

    def _open_session(self, key: FlowKey) -> SessionState:
        """Register the state of a flow seen for the first time."""
        mode = self.session_mode
        if self._soft_active and mode != "approx":
            # soft overload: new sessions open in the O(intervals) approx
            # tier; existing flows keep their mode
            mode = "approx"
            self.n_degraded_opens += 1
        state = self._states[key] = SessionState(
            key,
            slot_duration=self.slot_duration,
            alpha=self.alpha,
            context=self._contexts.get(key),
            window_seconds=self.title_window_seconds,
            qoe_interval_s=self.qoe_interval_s,
            mode=mode,
        )
        return state

    def _observe(self, events: Sequence[ContextEvent]) -> None:
        """Fold events into the attached fleet aggregator (if any)."""
        if self.analytics is not None and events:
            self.analytics.observe_all(events, self._contexts)

    # ------------------------------------------------------------ overload
    def _enforce_overload(self, events: List[ContextEvent]) -> None:
        """Apply the overload policy after a tick (DESIGN.md §8).

        Updates the soft flag (new sessions open approx while total state
        sits above ``soft_state_bytes``) and sheds flows largest-state-first
        while the hard byte ceiling or the live-flow cap is breached.  The
        tie-break on equal state sizes is the canonical endpoint string, so
        shedding is deterministic for a deterministic feed.
        """
        policy = self.overload
        if policy is None:
            return
        self._tick_count += 1
        if self._tick_count % policy.check_every_ticks:
            return
        sizes = {key: state.state_nbytes() for key, state in self._states.items()}
        total = sum(sizes.values())
        if policy.soft_state_bytes is not None:
            self._soft_active = total >= policy.soft_state_bytes
        def over() -> bool:
            return (
                policy.hard_state_bytes is not None
                and total > policy.hard_state_bytes
            ) or (
                policy.max_live_flows is not None
                and len(self._states) > policy.max_live_flows
            )
        if not over():
            return
        order = sorted(
            self._states,
            key=lambda key: (
                -sizes[key],
                key.client_ip,
                key.client_port,
                key.server_ip,
                key.server_port,
            ),
        )
        for key in order:
            if not over():
                break
            state = self._states.pop(key)
            self._shed.add(key)
            self.n_shed += 1
            events.append(
                FlowShed(
                    flow=key,
                    time=self._clock if math.isfinite(self._clock) else state.cascade.last_ts,
                    state_bytes=sizes[key],
                    n_packets=state.cascade.n_packets,
                    total_state_bytes=total,
                )
            )
            total -= sizes[key]

    # ------------------------------------------------------------ cascade
    def _advance(self, events: List[ContextEvent]) -> None:
        """Move every session through the gates the clock has passed.

        Each gate asks the cascade a scalar question first, so a flow with
        nothing due costs one call per gate (DESIGN.md §6).
        """
        clock = self._clock
        self._advance_stages(events, self._states.values(), clock)
        self._advance_titles(events)
        for state in self._states.values():
            sealed = state.cascade.advance_qoe(clock)
            if sealed:
                self._emit_qoe_intervals(events, state, sealed)

    def _advance_titles(self, events: List[ContextEvent]) -> None:
        clock, window = self._clock, self.title_window_seconds
        gated: List[SessionState] = []
        # fired flows that received new window rows re-run the classifier:
        # late window packets (cross-batch reordering) can change the verdict
        reclassify: List[SessionState] = []
        for state in self._states.values():
            if state.title_fired:
                if state.window_rows_pending:
                    state.window_rows_pending = 0
                    reclassify.append(state)
            elif state.cascade.has_downstream and clock >= state.cascade.origin + window:
                # the title window has fully elapsed for this flow
                gated.append(state)
        if not gated and not reclassify:
            return
        predictions = self.pipeline.title_classifier.predict_streams(
            [state.cascade.launch_stream() for state in gated + reclassify]
        )
        for state, prediction in zip(gated, predictions[: len(gated)]):
            state.title_fired = True
            state.title_prediction = prediction
            state.window_rows_pending = 0  # the gate consumed the window
            events.append(
                TitleClassified(
                    flow=state.key,
                    time=state.cascade.origin + self.title_window_seconds,
                    prediction=prediction,
                )
            )
        for state, prediction in zip(reclassify, predictions[len(gated) :]):
            previous = state.title_prediction
            state.title_prediction = prediction
            if prediction != previous:
                events.append(
                    TitleReclassified(
                        flow=state.key,
                        time=self._clock,
                        prediction=prediction,
                        previous=previous,
                    )
                )

    def _advance_stages(
        self,
        events: List[ContextEvent],
        states: Iterable[SessionState],
        clock: float,
    ) -> None:
        # the due flows' rows stay python floats until this tick's one matrix
        rows: List[List[float]] = []
        pending: List[Tuple[SessionState, int, int]] = []
        for state in states:
            new_rows, first = state.cascade.advance_slots(clock)
            if new_rows:
                pending.append((state, first, len(new_rows)))
                rows += new_rows
        if not pending:
            return
        stages = self.pipeline.activity_classifier.predict_features(np.array(rows))
        cursor = 0
        gate_rows: List[Tuple[SessionState, np.ndarray, np.ndarray, np.ndarray]] = []
        for state, first, count in pending:
            new_stages = stages[cursor : cursor + count]
            cursor += count
            state.timeline.extend(new_stages)
            origin = state.cascade.origin
            for slot, stage in zip(range(first, first + count), new_stages):
                events.append(
                    StageUpdate(
                        flow=state.key,
                        time=origin + (slot + 1) * self.slot_duration,
                        slot_index=slot,
                        stage=stage,
                    )
                )
            if state.pattern_resolved:
                continue  # only the pattern gate reads the transition prefix
            prefix_features, gameplay_seen = state.transitions.extend(new_stages)
            eligible = np.flatnonzero(gameplay_seen >= self.min_pattern_slots)
            if eligible.size:
                gate_rows.append(
                    (state, prefix_features[eligible], gameplay_seen[eligible], eligible + first)
                )
        self._advance_patterns(events, gate_rows)

    def _advance_patterns(self, events: List[ContextEvent], gate_rows: List) -> None:
        """Evaluate the pattern confidence gate on all eligible new slots.

        One forest pass covers every unresolved session's eligible rows; per
        session the *first* confident row wins, matching the slot-by-slot
        semantics of offline ``predict_incremental`` on the provisional
        timeline.
        """
        if not gate_rows:
            return
        model = self.pipeline.pattern_classifier.model
        proba = model.predict_proba(
            np.vstack([rows for _, rows, _, _ in gate_rows])
        )
        classes = model.classes_
        cursor = 0
        for state, rows, gameplay_counts, slot_indices in gate_rows:
            block = proba[cursor : cursor + rows.shape[0]]
            cursor += rows.shape[0]
            best = np.argmax(block, axis=1)
            confidences = block[np.arange(block.shape[0]), best]
            state.last_pattern_confidence = float(confidences[-1])
            confident = confidences >= self.pattern_threshold
            if not confident.any():
                continue
            winner = int(np.argmax(confident))
            prediction = PatternPrediction(
                pattern=ActivityPattern(str(classes[int(best[winner])])),
                confidence=float(confidences[winner]),
                confident=True,
                slots_observed=int(gameplay_counts[winner]),
            )
            state.pattern_resolved = True
            events.append(
                PatternInferred(
                    flow=state.key,
                    time=state.cascade.origin
                    + (int(slot_indices[winner]) + 1) * self.slot_duration,
                    prediction=prediction,
                )
            )

    # ------------------------------------------------------------ QoE windows
    def _emit_qoe_intervals(
        self,
        events: List[ContextEvent],
        state: SessionState,
        sealed: Sequence[Union[SealedApproxQoEInterval, SealedQoEInterval]],
    ) -> None:
        """Turn sealed measurement windows into provisional QoE events.

        Exact windows carry their downstream columns
        (:class:`SealedQoEInterval` → ``estimate_arrays``); approx windows
        carry fixed-size aggregates (:class:`SealedApproxQoEInterval` →
        ``estimate_approx``), and the emitted event is flagged
        ``approximate`` with the reducer's freeze verdict attached.
        """
        for interval in sealed:
            events.append(
                build_qoe_interval_event(
                    self.pipeline,
                    state.key,
                    state.context,
                    interval,
                    latency_ms=self.latency_ms,
                )
            )

    # ------------------------------------------------------------ closing
    def close(self, key: FlowKey, reason: str = "eof") -> List[ContextEvent]:
        """Close one flow: flush its final slot, emit the offline-identical report.

        Returns the flow's closing events (ending in one
        :class:`SessionReport` bit-identical to offline ``process()`` on
        the same packets), or ``[]`` when ``key`` is not a live flow.
        ``reason`` is stamped on the report (``"eof"``, ``"idle"``, ...).
        """
        state = self._states.pop(key, None)
        if state is None:
            return []
        return self._close_states([state], reason)

    def close_all(self, reason: str = "eof") -> List[ContextEvent]:
        """Close every live flow (feed end); finalisation is batched.

        One classifier pass covers all closing sessions, yet each flow's
        report equals what a lone :meth:`close` would have produced.
        """
        states = list(self._states.values())
        self._states.clear()
        return self._close_states(states, reason)

    def _close_states(
        self, states: List[SessionState], reason: str
    ) -> List[ContextEvent]:
        """Flush the provisional gates, then finalise every state at once.

        All closing sessions share the batched finalisation driver
        (:meth:`ContextClassificationPipeline.finalize_cascades`) — the same
        reducer implementations offline ``process()`` drives, so every
        report is bit-identical to the offline call on the same packets.
        """
        if not states:
            return []
        events: List[ContextEvent] = []
        # flush the trailing partial slot through the online cascade first
        # (an infinite clock is the only one that completes a partial slot)
        self._advance_stages(events, states, math.inf)
        platforms = []
        for state in states:
            platform = state.context.platform
            if platform is None:
                platform = self.pipeline.detector.classify_summary(
                    state.cascade.flow_summary(state.key.server_port)
                )
            platforms.append(platform)
        reports = self.pipeline.finalize_cascades(
            [state.cascade for state in states],
            platforms=platforms,
            rate_scales=[state.context.rate_scale for state in states],
            latency_ms=self.latency_ms,
        )
        close_time = self._clock
        for state, report in zip(states, reports):
            # trailing partial QoE window
            self._emit_qoe_intervals(events, state, state.cascade.flush_qoe())
            time = close_time if math.isfinite(close_time) else state.cascade.last_ts
            # short sessions classify at close; late window packets that were
            # never re-evaluated surface here too, keeping the event stream
            # consistent with the final report
            if not state.title_fired:
                events.append(
                    TitleClassified(flow=state.key, time=time, prediction=report.title)
                )
            elif report.title != state.title_prediction:
                events.append(
                    TitleReclassified(
                        flow=state.key,
                        time=time,
                        prediction=report.title,
                        previous=state.title_prediction,
                    )
                )
            events.append(
                SessionReport(
                    flow=state.key,
                    time=time,
                    report=report,
                    reason=reason,
                    n_packets=state.cascade.n_packets,
                    duration_s=state.cascade.duration,
                    origin_shifts=state.cascade.origin_shifts,
                )
            )
        self._observe(events)
        return events

    # ------------------------------------------------------------ driving
    def run(
        self, feed: Iterable[PacketColumns], close_at_end: bool = True
    ) -> Iterator[ContextEvent]:
        """Drive a live feed through the engine, yielding events as they fire.

        ``feed`` is any iterable of :class:`PacketColumns` batches (a
        :class:`~repro.runtime.feed.SessionFeed`, the PCAP batch iterator,
        a socket reader, ...).  When the feed exposes ``flow_contexts``
        (mapping :class:`FlowKey` to :class:`FlowContext`) they are
        registered before ingestion.
        """
        contexts = getattr(feed, "flow_contexts", None)
        if contexts:
            for key, context in contexts.items():
                self.set_flow_context(key, context)
        for batch in feed:
            yield from self.ingest(batch)
        if close_at_end:
            yield from self.close_all()
