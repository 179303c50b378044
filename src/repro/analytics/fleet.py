"""Fleet-wide QoE rollups over the runtime's context event stream.

The streaming runtime emits per-flow context events; ISP operations wants
the *fleet* view — "p95 frame lag of Fortnite sessions in eu-central over
the last run", "freeze rate per title", "how many flows did the overload
policy shed per region".  The :class:`FleetAggregator` folds the event
stream into per-``(region, title, qoe_mode)`` rollups built exclusively
from the deterministic mergeable sketches of
:mod:`repro.analytics.sketches`, which buys the tier's two defining
properties (DESIGN.md §10):

* **bit-identical everywhere** — the same corpus folded offline
  (:func:`fold_corpus`), through a single-process
  :class:`~repro.runtime.engine.StreamingEngine`, or across a sharded
  fleet with seeded worker crashes, yields byte-identical rollup state
  (``digest()`` equality is pinned by the fault-matrix tests);
* **zero per-session retention** — a flow's in-flight contribution lives
  in one O(1) :class:`_PendingFlow` that is folded into its rollup and
  dropped the moment the flow closes (``SessionReport``) or is shed
  (``FlowShed``); rollup state is O(keys), not O(sessions).

What folds at which granularity is deliberate. Window-level metrics
(frame lag, throughput, freeze/zero/partial counts, the candidate-gap
ledger) are chunking-invariant per sealed window, so they fold per window
through one body (:meth:`FleetRollup.fold_window`): live, from the
``QoEInterval`` event (:func:`event_window_facts`); offline, straight from
the sealed window (:func:`sealed_window_facts`), without the provisional
verdict nobody reads there.  Loss rate is *not* chunking-invariant per window
in the approx tier (the counting-set delta depends on seal timing), so it
folds once per session from the close report's ``objective_metrics`` —
as do the objective/effective QoE level tallies, which derive from it.

The rollup's mode key is ``"approx"`` or ``"exact"`` — the one QoE
distinction visible in the event stream (``bounded`` and ``full`` session
modes produce bit-identical reports and are indistinguishable by design).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analytics.sketches import (
    CentroidSketch,
    LogBucketHistogram,
    StatsAccumulator,
    state_digest,
)
from repro.core.qoe import (
    has_frame_evidence,
    lag_from_bursts,
    lag_from_gap_samples,
    window_throughput_mbps,
)
from repro.core.reducers import (
    ApproxQoEIntervalReducer,
    QoEIntervalReducer,
    SealedApproxQoEInterval,
    SealedQoEInterval,
)
from repro.core.title_classifier import UNKNOWN_TITLE
from repro.net.flow import FlowKey
from repro.net.packet import Direction
from repro.runtime.events import (
    ContextEvent,
    FlowShed,
    QoEInterval,
    SessionReport,
    TitleClassified,
    TitleReclassified,
)
from repro.runtime.state import FlowContext

__all__ = [
    "DEFAULT_REGION",
    "FleetAggregator",
    "FleetRollup",
    "RollupKey",
    "fold_corpus",
]

#: Region a flow folds under when its :class:`FlowContext` carries no tag.
DEFAULT_REGION = "unassigned"

#: ``(region, title, qoe_mode)`` — the rollup partition key.
RollupKey = Tuple[str, str, str]

_LEVELS = ("good", "medium", "bad")

# Sketch layouts (configuration, shared by every rollup so any two merge):
# frame lag in ms spans sub-ms pacing to multi-second stalls; throughput in
# Mbps spans idle trickles to lab-grade links; loss is a rate in [0, 1].
_LAG_SKETCH = (0.1, 1.0e5, 1.05)
_THROUGHPUT_SKETCH = (1.0e-3, 1.0e4, 1.05)
_LOSS_SKETCH = (1.0e-6, 1.0, 1.1)


#: ``(lag_ms, throughput_mbps, n_packets, partial, frozen,
#: candidate_gap_packets)`` — everything :meth:`FleetRollup.fold_window` reads
#: of one sealed window.
WindowFacts = Tuple[Optional[float], float, int, bool, bool, int]


def event_window_facts(event: QoEInterval) -> WindowFacts:
    """The rollup facts a live :class:`QoEInterval` event carries."""
    metrics = event.metrics
    return (
        metrics.streaming_lag_ms,
        metrics.throughput_mbps,
        event.n_packets,
        event.partial,
        # the approx tier flags freezes explicitly; the exact tier can only
        # infer one from a window that carried packets but advanced no frame
        event.frozen
        or (
            not event.approximate
            and event.n_packets > 0
            and metrics.frame_rate == 0.0
        ),
        event.candidate_gap_packets,
    )


def sealed_window_facts(
    interval: Union[SealedApproxQoEInterval, SealedQoEInterval], rate_scale: float
) -> WindowFacts:
    """The same facts read straight off a sealed window, no verdict computed.

    Equal to :func:`event_window_facts` of the event the engine builds from
    ``interval`` (:func:`~repro.runtime.engine.build_qoe_interval_event`)
    for a flow of this ``rate_scale``, at any ``latency_ms``: lag and
    throughput go through the estimator's own rules, and an exact window's
    zero frame rate is :func:`~repro.core.qoe.has_frame_evidence` failing.
    Loss, frame rate, resolution and objective level are never computed.
    """
    throughput = window_throughput_mbps(interval.payload_bytes, interval.duration_s)
    if rate_scale != 1.0:
        throughput = throughput / rate_scale
    if isinstance(interval, SealedApproxQoEInterval):
        lag = lag_from_gap_samples(
            interval.n_packets, interval.gap_count, interval.gap_max_s, interval.gap_samples
        )
        frozen, gaps = interval.frozen, interval.candidate_gap_packets
    else:
        lag = lag_from_bursts(interval.down_times)
        frozen = interval.n_packets > 0 and not has_frame_evidence(
            interval.rtp_timestamps.size, interval.down_times.size
        )
        gaps = 0
    return lag, throughput, interval.n_packets, interval.partial, frozen, gaps


class FleetRollup:
    """Mergeable aggregate state of one ``(region, title, mode)`` key.

    Every field is either an integer counter or a sketch from
    :mod:`repro.analytics.sketches`, so :meth:`merge` is associative and
    commutative and the state is a pure function of the folded events.
    """

    __slots__ = (
        "lag_ms",
        "throughput_mbps",
        "loss_rate",
        "duration_s",
        "n_windows",
        "n_frozen_windows",
        "n_partial_windows",
        "n_zero_windows",
        "candidate_gap_packets",
        "n_sessions",
        "n_packets",
        "n_shed",
        "n_reclassified",
        "objective_levels",
        "effective_levels",
    )

    def __init__(self) -> None:
        self.lag_ms = CentroidSketch(*_LAG_SKETCH)
        self.throughput_mbps = CentroidSketch(*_THROUGHPUT_SKETCH)
        self.loss_rate = LogBucketHistogram(*_LOSS_SKETCH)
        self.duration_s = StatsAccumulator()
        self.n_windows = 0
        self.n_frozen_windows = 0
        self.n_partial_windows = 0
        self.n_zero_windows = 0
        self.candidate_gap_packets = 0
        self.n_sessions = 0
        self.n_packets = 0
        self.n_shed = 0
        self.n_reclassified = 0
        self.objective_levels = {level: 0 for level in _LEVELS}
        self.effective_levels = {level: 0 for level in _LEVELS}

    # ------------------------------------------------------------ folding
    def fold_window(
        self,
        lag_ms: Optional[float],
        throughput_mbps: float,
        n_packets: int,
        partial: bool,
        frozen: bool,
        candidate_gap_packets: int,
    ) -> None:
        """Fold the facts of one sealed measurement window (:data:`WindowFacts`)."""
        self.n_windows += 1
        if n_packets == 0:
            self.n_zero_windows += 1
        if partial:
            self.n_partial_windows += 1
        if frozen:
            self.n_frozen_windows += 1
        if lag_ms is not None:
            self.lag_ms.add(lag_ms)
        self.throughput_mbps.add(throughput_mbps)
        self.candidate_gap_packets += candidate_gap_packets

    def fold_report(self, event: SessionReport) -> None:
        """Fold one close report (session-granularity fields)."""
        report = event.report
        self.n_sessions += 1
        self.n_packets += event.n_packets
        self.duration_s.add(event.duration_s)
        self.loss_rate.add(report.objective_metrics.loss_rate)
        self.objective_levels[report.objective_qoe.value] += 1
        self.effective_levels[report.effective_qoe.value] += 1

    def merge(self, other: "FleetRollup") -> None:
        """Fold ``other`` into this rollup in place.

        Sketch merges are exactly associative (fixed-point accumulation
        over a frozen bucket layout), so merging per-shard rollups yields
        a rollup bit-identical to single-engine streaming — the invariant
        behind :meth:`FleetAggregator.digest` equality.
        """
        self.lag_ms.merge(other.lag_ms)
        self.throughput_mbps.merge(other.throughput_mbps)
        self.loss_rate.merge(other.loss_rate)
        self.duration_s.merge(other.duration_s)
        self.n_windows += other.n_windows
        self.n_frozen_windows += other.n_frozen_windows
        self.n_partial_windows += other.n_partial_windows
        self.n_zero_windows += other.n_zero_windows
        self.candidate_gap_packets += other.candidate_gap_packets
        self.n_sessions += other.n_sessions
        self.n_packets += other.n_packets
        self.n_shed += other.n_shed
        self.n_reclassified += other.n_reclassified
        for level in _LEVELS:
            self.objective_levels[level] += other.objective_levels[level]
            self.effective_levels[level] += other.effective_levels[level]

    # ------------------------------------------------------------ reading
    @property
    def freeze_rate(self) -> float:
        """Fraction of measurement windows flagged frozen."""
        return self.n_frozen_windows / self.n_windows if self.n_windows else 0.0

    def summary(self) -> dict:
        """Operator-facing digest of this key's rollup."""
        return {
            "n_sessions": self.n_sessions,
            "n_windows": self.n_windows,
            "n_packets": self.n_packets,
            "lag_p50_ms": self.lag_ms.quantile(0.5),
            "lag_p95_ms": self.lag_ms.quantile(0.95),
            "throughput_p50_mbps": self.throughput_mbps.quantile(0.5),
            "freeze_rate": self.freeze_rate,
            "loss_p50": self.loss_rate.quantile(0.5),
            "loss_p95": self.loss_rate.quantile(0.95),
            "candidate_gap_packets": self.candidate_gap_packets,
            "n_shed": self.n_shed,
            "n_reclassified": self.n_reclassified,
            "objective_levels": dict(self.objective_levels),
            "effective_levels": dict(self.effective_levels),
        }

    # ------------------------------------------------------------ identity
    def state(self) -> tuple:
        """Canonical value tuple (every sketch and counter) for digesting."""
        return (
            "rollup",
            self.lag_ms.state(),
            self.throughput_mbps.state(),
            self.loss_rate.state(),
            self.duration_s.state(),
            self.n_windows,
            self.n_frozen_windows,
            self.n_partial_windows,
            self.n_zero_windows,
            self.candidate_gap_packets,
            self.n_sessions,
            self.n_packets,
            self.n_shed,
            self.n_reclassified,
            tuple(self.objective_levels[level] for level in _LEVELS),
            tuple(self.effective_levels[level] for level in _LEVELS),
        )

    def snapshot(self) -> dict:
        """Pickle-friendly state dict, inverted by :meth:`from_snapshot`."""
        return {
            "lag_ms": self.lag_ms.snapshot(),
            "throughput_mbps": self.throughput_mbps.snapshot(),
            "loss_rate": self.loss_rate.snapshot(),
            "duration_s": self.duration_s.snapshot(),
            "counters": (
                self.n_windows,
                self.n_frozen_windows,
                self.n_partial_windows,
                self.n_zero_windows,
                self.candidate_gap_packets,
                self.n_sessions,
                self.n_packets,
                self.n_shed,
                self.n_reclassified,
            ),
            "objective_levels": dict(self.objective_levels),
            "effective_levels": dict(self.effective_levels),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "FleetRollup":
        """Rebuild a rollup whose :meth:`state` equals the snapshotted one."""
        rollup = cls.__new__(cls)
        rollup.lag_ms = CentroidSketch.from_snapshot(snapshot["lag_ms"])
        rollup.throughput_mbps = CentroidSketch.from_snapshot(
            snapshot["throughput_mbps"]
        )
        rollup.loss_rate = LogBucketHistogram.from_snapshot(snapshot["loss_rate"])
        rollup.duration_s = StatsAccumulator.from_snapshot(snapshot["duration_s"])
        (
            rollup.n_windows,
            rollup.n_frozen_windows,
            rollup.n_partial_windows,
            rollup.n_zero_windows,
            rollup.candidate_gap_packets,
            rollup.n_sessions,
            rollup.n_packets,
            rollup.n_shed,
            rollup.n_reclassified,
        ) = snapshot["counters"]
        rollup.objective_levels = dict(snapshot["objective_levels"])
        rollup.effective_levels = dict(snapshot["effective_levels"])
        return rollup

    def nbytes(self) -> int:
        """Retained bytes of this rollup (sketches + counters)."""
        return (
            self.lag_ms.nbytes()
            + self.throughput_mbps.nbytes()
            + self.loss_rate.nbytes()
            + self.duration_s.nbytes()
            + 9 * 8
            + 6 * 8
        )


class _PendingFlow:
    """In-flight contribution of one live flow (O(1), dropped at close)."""

    __slots__ = ("rollup", "title", "approximate")

    def __init__(self) -> None:
        self.rollup = FleetRollup()
        self.title: Optional[str] = None
        self.approximate: Optional[bool] = None

    def snapshot(self) -> dict:
        return {
            "rollup": self.rollup.snapshot(),
            "title": self.title,
            "approximate": self.approximate,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "_PendingFlow":
        pending = cls.__new__(cls)
        pending.rollup = FleetRollup.from_snapshot(snapshot["rollup"])
        pending.title = snapshot["title"]
        pending.approximate = snapshot["approximate"]
        return pending


class FleetAggregator:
    """Fold the runtime's event stream into per-(region, title, mode) rollups.

    Attach one to a :class:`~repro.runtime.engine.StreamingEngine`
    (``analytics=True``) or a :class:`~repro.runtime.shard.ShardedEngine`
    and it consumes every emitted event; shard-local aggregators ride the
    checkpoint protocol and merge at the parent, offline folds come from
    :func:`fold_corpus`.  All three paths produce byte-identical state
    (:meth:`digest`).
    """

    def __init__(self, default_region: str = DEFAULT_REGION) -> None:
        self.default_region = default_region
        self._rollups: Dict[RollupKey, FleetRollup] = {}
        self._pending: Dict[FlowKey, _PendingFlow] = {}
        self.n_intervals = 0  # QoEInterval events folded (bench throughput)
        self.n_reports = 0  # SessionReport events folded

    # ------------------------------------------------------------ folding
    def observe(
        self,
        event: ContextEvent,
        contexts: Optional[Mapping[FlowKey, FlowContext]] = None,
    ) -> None:
        """Fold one runtime event; ``contexts`` supplies region tags."""
        if isinstance(event, QoEInterval):
            pending = self._pend(event.flow)
            pending.rollup.fold_window(*event_window_facts(event))
            pending.approximate = event.approximate
            self.n_intervals += 1
        elif isinstance(event, SessionReport):
            pending = self._pending.pop(event.flow, None) or _PendingFlow()
            pending.rollup.fold_report(event)
            key = (
                self._region(event.flow, contexts),
                event.report.title.title,
                "approx" if event.report.qoe_approximate else "exact",
            )
            self._fold_into(key, pending.rollup)
            self.n_reports += 1
        elif isinstance(event, FlowShed):
            # no close report ever arrives for a shed flow: account for it
            # under the last title the event stream established
            pending = self._pending.pop(event.flow, None) or _PendingFlow()
            pending.rollup.n_shed += 1
            key = (
                self._region(event.flow, contexts),
                pending.title if pending.title is not None else UNKNOWN_TITLE,
                "approx" if pending.approximate else "exact",
            )
            self._fold_into(key, pending.rollup)
        elif isinstance(event, TitleReclassified):
            pending = self._pend(event.flow)
            pending.rollup.n_reclassified += 1
            pending.title = event.prediction.title
        elif isinstance(event, TitleClassified):
            self._pend(event.flow).title = event.prediction.title
        # SessionStarted / StageUpdate / PatternInferred / SessionRecovered /
        # WorkerRestarted carry nothing the rollups track

    def observe_all(
        self,
        events: Iterable[ContextEvent],
        contexts: Optional[Mapping[FlowKey, FlowContext]] = None,
    ) -> None:
        """Fold an event iterable via :meth:`observe`, in order."""
        for event in events:
            self.observe(event, contexts)

    def _pend(self, flow: FlowKey) -> _PendingFlow:
        pending = self._pending.get(flow)
        if pending is None:
            pending = self._pending[flow] = _PendingFlow()
        return pending

    def _region(
        self, flow: FlowKey, contexts: Optional[Mapping[FlowKey, FlowContext]]
    ) -> str:
        context = contexts.get(flow) if contexts is not None else None
        if context is not None and context.region is not None:
            return context.region
        return self.default_region

    def _fold_into(self, key: RollupKey, rollup: FleetRollup) -> None:
        existing = self._rollups.get(key)
        if existing is None:
            self._rollups[key] = rollup
        else:
            existing.merge(rollup)

    # ------------------------------------------------------------ merging
    def merge(self, other: "FleetAggregator") -> None:
        """Fold another aggregator's state into this one (shard fan-in)."""
        for key, rollup in other._rollups.items():
            self._fold_into(key, FleetRollup.from_snapshot(rollup.snapshot()))
        for flow, pending in other._pending.items():
            mine = self._pending.get(flow)
            if mine is None:
                self._pending[flow] = _PendingFlow.from_snapshot(pending.snapshot())
            else:
                mine.rollup.merge(pending.rollup)
                if pending.title is not None:
                    mine.title = pending.title
                if pending.approximate is not None:
                    mine.approximate = pending.approximate
        self.n_intervals += other.n_intervals
        self.n_reports += other.n_reports

    # ------------------------------------------------------------ reading
    def keys(self) -> List[RollupKey]:
        """All ``(region, title, qoe_mode)`` rollup keys, sorted."""
        return sorted(self._rollups)

    def rollup(self, key: RollupKey) -> FleetRollup:
        """The rollup for ``key``; raises ``KeyError`` if never folded."""
        return self._rollups[key]

    @property
    def n_live_flows(self) -> int:
        """Flows currently holding in-flight (pending) state."""
        return len(self._pending)

    def summary(self) -> Dict[RollupKey, dict]:
        """Per-key operator digest, deterministically key-ordered."""
        return {key: self._rollups[key].summary() for key in self.keys()}

    def nbytes(self) -> int:
        """Approximate retained bytes: O(rollup keys + live flows)."""
        total = sum(rollup.nbytes() for rollup in self._rollups.values())
        total += sum(p.rollup.nbytes() + 64 for p in self._pending.values())
        return total

    # ------------------------------------------------------------ identity
    def state(self) -> tuple:
        """Canonical state tuple; equality ⇔ identical folded history."""
        rollups = tuple(
            (key, self._rollups[key].state()) for key in sorted(self._rollups)
        )
        pending = tuple(
            (repr(flow), p.rollup.state(), p.title, p.approximate)
            for flow, p in sorted(self._pending.items(), key=lambda kv: repr(kv[0]))
        )
        return ("fleet", rollups, pending, self.n_intervals, self.n_reports)

    def digest(self) -> str:
        """Hex digest of :meth:`state` — the bit-identity handle the tests pin."""
        return state_digest(self.state())

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict:
        """Picklable full state (rides the shard checkpoint protocol)."""
        return {
            "default_region": self.default_region,
            "rollups": {
                key: self._rollups[key].snapshot() for key in sorted(self._rollups)
            },
            "pending": {
                flow: pending.snapshot() for flow, pending in self._pending.items()
            },
            "n_intervals": self.n_intervals,
            "n_reports": self.n_reports,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "FleetAggregator":
        """Rebuild an aggregator with a :meth:`digest` equal to the source's."""
        aggregator = cls(default_region=snapshot["default_region"])
        aggregator._rollups = {
            key: FleetRollup.from_snapshot(payload)
            for key, payload in snapshot["rollups"].items()
        }
        aggregator._pending = {
            flow: _PendingFlow.from_snapshot(payload)
            for flow, payload in snapshot["pending"].items()
        }
        aggregator.n_intervals = snapshot["n_intervals"]
        aggregator.n_reports = snapshot["n_reports"]
        return aggregator


def fold_corpus(
    pipeline,
    sessions: Sequence,
    *,
    reports: Optional[Sequence] = None,
    regions: Optional[Sequence[Optional[str]]] = None,
    latency_ms: Optional[float] = None,
    qoe_mode: str = "exact",
    qoe_interval_s: float = 10.0,
    client_port_base: int = 52000,
    aggregator: Optional[FleetAggregator] = None,
) -> FleetAggregator:
    """Offline batch fold of stored sessions into a :class:`FleetAggregator`.

    Replays what the runtime does per session — seal measurement windows
    against the *corpus-wide* clock (so zero-traffic windows of short
    sessions seal exactly as they would in a live feed where other flows
    keep the clock running), fold each sealed window, and close with the
    batched ``process_many`` report.  A window folds only the facts the
    rollup reads (:func:`sealed_window_facts`: lag, rate-scaled throughput,
    packet count, partial flag, freeze verdict, candidate-gap ledger); the
    full provisional verdict the engine emits as a :class:`QoEInterval` is
    never computed.  The result is bit-identical
    (:meth:`FleetAggregator.digest`) to running the same sessions through a
    :class:`~repro.runtime.engine.StreamingEngine` over a
    :class:`~repro.runtime.feed.SessionFeed` (no start offsets, no idle
    timeout), single-process or sharded.

    Parameters mirror the feed: ``regions`` tags sessions positionally,
    ``client_port_base`` re-addresses each session to a distinct flow.
    ``reports`` short-circuits classification when the caller already has
    the ``process_many`` output for these sessions (same order and
    ``qoe_mode``).  ``latency_ms`` reaches only the reports: no rollup
    fact of a window depends on it.
    """
    sessions = list(sessions)
    if regions is not None and len(regions) != len(sessions):
        raise ValueError(f"{len(sessions)} sessions but {len(regions)} regions")
    if reports is None:
        reports = pipeline.process_many(sessions, latency_ms, qoe_mode=qoe_mode)
    elif len(reports) != len(sessions):
        raise ValueError(f"{len(sessions)} sessions but {len(reports)} reports")
    if aggregator is None:
        aggregator = FleetAggregator()

    streams = [session.packets for session in sessions]
    ends = [
        float(stream.columns().timestamps[-1])
        for stream in streams
        if len(stream.columns())
    ]
    if not ends:
        return aggregator
    clock_end = max(ends)  # the feed clock every flow seals against

    for index, (session, stream, report) in enumerate(
        zip(sessions, streams, reports)
    ):
        columns = stream.columns()
        if not len(columns):
            continue
        origin = float(columns.timestamps[0])
        last_ts = float(columns.timestamps[-1])
        key = FlowKey(
            client_ip=session.client_ip,
            client_port=client_port_base + index,
            server_ip=session.server_ip,
            server_port=49004,
        )
        context = FlowContext(
            platform="GeForce NOW",
            rate_scale=session.rate_scale,
            region=regions[index] if regions is not None else None,
        )
        down_times = stream.timestamps(Direction.DOWNSTREAM)
        down_sizes = stream.payload_sizes(Direction.DOWNSTREAM)
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        if qoe_mode == "approx":
            reducer = ApproxQoEIntervalReducer(qoe_interval_s)
        else:
            reducer = QoEIntervalReducer(qoe_interval_s)
            # no fact of an exact window reads a sequence number (loss
            # folds per session, from the report)
            sequences = None
        if sequences is not None or rtp_times is not None:
            down_rows = stream.direction_indices(Direction.DOWNSTREAM)
        reducer.absorb_arrays(
            down_times,
            down_sizes,
            sequences[down_rows] if sequences is not None else None,
            rtp_times[down_rows] if rtp_times is not None else None,
            origin,
        )
        sealed = reducer.advance(clock_end, origin)
        sealed.extend(reducer.flush(origin, last_ts))
        if sealed:
            # what observe() does with each window's QoEInterval event
            pending = aggregator._pend(key)
            for interval in sealed:
                pending.rollup.fold_window(
                    *sealed_window_facts(interval, context.rate_scale)
                )
            pending.approximate = qoe_mode == "approx"
            aggregator.n_intervals += len(sealed)
        contexts = {key: context}
        aggregator.observe(
            SessionReport(
                flow=key,
                time=clock_end,
                report=report,
                reason="eof",
                n_packets=len(columns),
                duration_s=last_ts - origin,
            ),
            contexts,
        )
    return aggregator
