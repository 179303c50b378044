"""The end-to-end real-time context classification pipeline (Fig. 6).

The pipeline chains every component of the paper's methodology:

1. the **cloud gaming packet filter** selects streaming flows;
2. the **game title classification** process consumes the first ``N``
   seconds of downstream packets;
3. the **player activity stage** process continuously classifies per-slot
   stages, feeds the stage transition modeler and, once confident, infers
   the gameplay activity pattern;
4. the **objective QoE module** measures frame rate, throughput, lag and
   loss, and the **effective QoE calibration** corrects the objective label
   using the classified context.

Training uses a labeled corpus of sessions (:class:`~repro.simulation.
lab_dataset.LabDataset` or any list of :class:`GameSession`); inference
accepts a generated session or a capture's packets (see
:meth:`ContextClassificationPipeline._as_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dataclasses_replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.pattern_classifier import GameplayPatternClassifier, PatternPrediction
from repro.core.qoe import (
    EffectiveQoECalibrator,
    ObjectiveQoEEstimator,
    QoELevel,
    QoEMetrics,
)
from repro.core.reducers import SessionReducerCascade, raw_slot_matrix
from repro.core.title_classifier import GameTitleClassifier, TitlePrediction
from repro.core.transition import STAGES
from repro.ml.forest import RandomForestClassifier
from repro.net.filter import CloudGamingFlowDetector
from repro.net.packet import PacketStream
from repro.simulation.catalog import (
    CATALOG,
    ActivityPattern,
    PlayerStage,
)
from repro.simulation.session import GameSession


@dataclass
class SessionContextReport:
    """Everything the pipeline reports for one streaming session.

    ``qoe_approximate`` is ``True`` when the QoE metrics came from the
    O(intervals) approximate tier (``qoe_mode="approx"`` /
    ``session_mode="approx"``) instead of the exact downstream columns —
    consumers aggregating exact and approximate sessions can tell them
    apart.  Context fields (platform, title, stages, pattern) are never
    approximate: only the QoE stage has a lossy tier.
    """

    platform: Optional[str]
    title: TitlePrediction
    stage_timeline: List[PlayerStage]
    stage_fractions: Dict[PlayerStage, float]
    pattern: PatternPrediction
    objective_metrics: QoEMetrics
    objective_qoe: QoELevel
    effective_qoe: QoELevel
    qoe_approximate: bool = False

    @property
    def context_label(self) -> str:
        """Human-readable context summary (title, or pattern fallback)."""
        if not self.title.is_unknown:
            return self.title.title
        if self.pattern.pattern is not None:
            return f"unknown title ({self.pattern.pattern.value})"
        return "unknown title (pattern undecided)"


class ContextClassificationPipeline:
    """Trainable end-to-end pipeline combining all classification processes.

    Parameters mirror the deployed configuration of the paper: a 5-second
    title window with 1-second slots and V = 10%, 1-second activity slots
    with EMA weight 0.5, and a 75% confidence threshold for pattern
    inference.
    """

    def __init__(
        self,
        title_window_seconds: float = 5.0,
        title_slot_duration: float = 1.0,
        activity_slot_duration: float = 1.0,
        activity_alpha: float = 0.5,
        pattern_confidence_threshold: float = 0.75,
        title_confidence_threshold: float = 0.4,
        random_state: Optional[int] = None,
    ) -> None:
        self.detector = CloudGamingFlowDetector()
        self.title_classifier = GameTitleClassifier(
            window_seconds=title_window_seconds,
            slot_duration=title_slot_duration,
            confidence_threshold=title_confidence_threshold,
            random_state=random_state,
        )
        self.activity_classifier = PlayerActivityClassifier(
            slot_duration=activity_slot_duration,
            alpha=activity_alpha,
            random_state=random_state,
        )
        self.pattern_classifier = GameplayPatternClassifier(
            confidence_threshold=pattern_confidence_threshold,
            random_state=random_state,
        )
        self.qoe_estimator = ObjectiveQoEEstimator()
        self.qoe_calibrator = EffectiveQoECalibrator()
        self._fitted = False
        self._digest = None

    # ------------------------------------------------------------ training
    def fit(self, sessions: Sequence[GameSession]) -> "ContextClassificationPipeline":
        """Train all three classifiers from a labeled session corpus.

        Feature extraction runs through each classifier's one (batched)
        entry point: the title classifier's launch attributes come from one
        grouped reduction over the whole corpus, the stage classifier's
        training rows from the slot reducer's counts
        (:func:`~repro.core.reducers.raw_slot_matrix`), and the stage
        sequences feeding the pattern classifier are classified with one
        forest pass (:meth:`PlayerActivityClassifier.predict_raw_slots_many`)
        so training matches the deployed cascade including its
        classification noise.
        """
        if not sessions:
            raise ValueError("cannot fit the pipeline on an empty corpus")

        # 1. game title classifier: launch windows + title labels
        launch_streams = [session.packets for session in sessions]
        titles = [session.title_name for session in sessions]
        self.title_classifier.fit(launch_streams, titles)

        # 2. player activity stage classifier: per-slot volumetric features
        slot_labels = [
            session.slot_ground_truth(self.activity_classifier.slot_duration)
            for session in sessions
        ]
        gameplay_sessions = [
            (session, labels)
            for session, labels in zip(sessions, slot_labels)
            if any(label is not PlayerStage.LAUNCH for label in labels)
        ]
        if gameplay_sessions:
            self.activity_classifier.fit(
                [session.packets for session, _ in gameplay_sessions],
                [labels for _, labels in gameplay_sessions],
            )

            # 3. gameplay activity pattern classifier: trained on the stage
            #    sequences *as classified* by the previous process so that
            #    training matches the deployed cascade (classification noise
            #    included), labeled by the title's ground-truth pattern
            slot_duration = self.activity_classifier.slot_duration
            classified_sequences = self.activity_classifier.predict_raw_slots_many(
                [raw_slot_matrix(s.packets, slot_duration) for s, _ in gameplay_sessions]
            )
            self.pattern_classifier.fit_stage_sequences(
                classified_sequences,
                [session.pattern for session, _ in gameplay_sessions],
            )
        self._fitted = True
        self._digest = None
        self.compile_kernels()
        return self

    def compile_kernels(self) -> "ContextClassificationPipeline":
        """Compile every fitted forest into its fused inference kernel.

        Touching :attr:`RandomForestClassifier.kernel` builds the
        rank-quantised level tables eagerly, so the first session processed
        after :meth:`fit` (or after :func:`repro.runtime.persistence.load_pipeline`)
        pays no compilation latency.  Idempotent; unfitted forests and the
        paper's other model families (SVM, kNN — nothing to compile) are
        skipped.
        """
        for classifier in (
            self.title_classifier,
            self.activity_classifier,
            self.pattern_classifier,
        ):
            model = classifier.model
            if isinstance(model, RandomForestClassifier) and hasattr(model, "classes_"):
                model.kernel  # noqa: B018 - force eager compilation
        return self

    # ----------------------------------------------------------- inference
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("pipeline is not fitted; call fit() first")

    def _as_stream(self, source) -> tuple[Optional[str], PacketStream, float]:
        """Normalise the input into (platform, PacketStream, rate_scale).

        The one input contract of :meth:`process` / :meth:`process_many`:

        * a :class:`GameSession` is a trusted single flow — its packets are
          classified as they are, on the platform the generator emulates;
        * a :class:`PacketStream` or a
          :class:`~repro.net.packet.PacketColumns` batch is a capture: the
          cloud-gaming flow detector splits it into flows on the columns and
          the largest matching flow is classified; when nothing matches, the
          whole stream is classified with ``platform=None``.

        ``rate_scale`` records the fidelity a synthetic session was generated
        at so that absolute QoE metrics (throughput) can be reported at
        physical scale; captures always use 1.0.
        """
        if isinstance(source, GameSession):
            return "GeForce NOW", source.packets, source.rate_scale
        stream = source if isinstance(source, PacketStream) else PacketStream(source)
        sessions = self.detector.detect(stream)
        if sessions:
            largest = max(sessions, key=lambda s: s.packets.total_bytes())
            return largest.platform, largest.packets, 1.0
        return None, stream, 1.0

    def process(
        self,
        source,
        latency_ms: Optional[float] = None,
        qoe_mode: str = "exact",
    ) -> SessionContextReport:
        """Classify the context of one session and report calibrated QoE.

        Parameters
        ----------
        source:
            A :class:`GameSession` or a capture's packets (the contract is
            stated once, in :meth:`_as_stream`).
        latency_ms:
            Optional out-of-band access latency for the QoE metrics.
        qoe_mode:
            ``"exact"`` (default) or ``"approx"`` — the O(intervals)
            approximate QoE tier; the report then carries
            ``qoe_approximate=True`` and equals the streaming runtime's
            ``session_mode="approx"`` close report on the same packets.

        Returns
        -------
        SessionContextReport
            The classified context and QoE labels: the one-element call of
            :meth:`process_many`, which classifies whole corpora several
            times faster per session.
        """
        return self.process_many([source], latency_ms=latency_ms, qoe_mode=qoe_mode)[0]

    def new_cascade(
        self,
        qoe_interval_seconds: float = float("inf"),
        keep_history: bool = False,
        qoe_mode: str = "exact",
    ) -> SessionReducerCascade:
        """A fresh per-session reducer cascade in this pipeline's geometry.

        The cascade's slot duration, EMA weight and title window come from
        the fitted classifiers, so folding a session's packets through it
        and finalising (:meth:`finalize_cascades`) reproduces the offline
        cascade exactly.  The default QoE interval is infinite — one
        measurement window covering the whole session, right for one-shot
        offline classification; the streaming runtime passes its provisional
        window width (10 s) instead.  ``qoe_mode="approx"`` selects the
        O(intervals) approximate QoE tier.
        """
        return SessionReducerCascade(
            slot_duration=self.activity_classifier.slot_duration,
            alpha=self.activity_classifier.alpha,
            window_seconds=self.title_classifier.window_seconds,
            qoe_interval_seconds=qoe_interval_seconds,
            keep_history=keep_history,
            qoe_mode=qoe_mode,
        )

    def finalize_cascades(
        self,
        cascades: Sequence[SessionReducerCascade],
        platforms: Optional[Sequence[Optional[str]]] = None,
        rate_scales: Optional[Sequence[float]] = None,
        latency_ms: Optional[float] = None,
    ) -> List[SessionContextReport]:
        """Finalise folded session cascades into offline-identical reports.

        The single driver behind :meth:`process_many` (and so
        :meth:`process`) and the streaming runtime's close path.  The
        classifier stages finalise batched across the given sessions, each
        through its verdict's one entry point (there is no per-session
        twin; one session is a one-element call):

        1. **title** — launch attributes of all window buffers in one
           grouped reduction + one forest pass (the window buffer produces
           the same features as the full stream, since the labeler never
           reads past the window);
        2. **stage timelines** — the integer-exact slot counters convert to
           raw matrices and classify via
           :meth:`PlayerActivityClassifier.predict_raw_slots_many`
           (lockstep slot-major EMA, one forest pass) into stage codes,
           which the pattern stage and the stage fractions read as arrays;
           each report lists its :class:`PlayerStage` members once;
        3. **pattern** — prefix transition attributes of the final
           timelines through the chunked early-exit
           :meth:`GameplayPatternClassifier.predict_incremental_many`;
        4. **QoE** — exact cascades: the per-interval downstream columns
           reproduce the sorted stream's views, so
           :meth:`ObjectiveQoEEstimator.estimate_arrays` equals offline
           ``estimate``; approx cascades (``qoe_mode="approx"``) finalise
           their O(1) session aggregates through
           :meth:`ObjectiveQoEEstimator.estimate_approx` and the report
           carries ``qoe_approximate=True``.  Either way each session's
           objective and calibrated levels map through the calibrator's
           per-session ``objective_level`` / ``effective_level``.
        """
        self._require_fitted()
        cascades = list(cascades)
        if not cascades:
            return []
        n = len(cascades)
        if platforms is None:
            platforms = [None] * n
        if rate_scales is None:
            rate_scales = [1.0] * n

        title_predictions = self.title_classifier.predict_streams(
            [cascade.launch_stream() for cascade in cascades]
        )
        # stage timelines stay stage codes until each report lists its stages
        stage_timelines = self.activity_classifier.predict_raw_slots_many(
            [cascade.final_raw_matrix() for cascade in cascades]
        )
        pattern_predictions = [
            prediction
            for prediction, _slots_needed in self.pattern_classifier.predict_incremental_many(
                stage_timelines
            )
        ]
        stage_fractions = [
            self._stage_fractions(timeline) for timeline in stage_timelines
        ]

        metrics_list = [
            self.qoe_estimator.estimate_approx(
                latency_ms=latency_ms, **cascade.qoe_approx_arrays()
            )
            if cascade.qoe_mode == "approx"
            else self.qoe_estimator.estimate_arrays(
                latency_ms=latency_ms, **cascade.qoe_arrays()
            )
            for cascade in cascades
        ]
        metrics_list = [
            metrics
            if rate_scale == 1.0
            else dataclasses_replace(
                # rescale throughput of reduced-fidelity synthetic sessions
                # back to physical scale before the QoE expectations apply
                metrics, throughput_mbps=metrics.throughput_mbps / rate_scale
            )
            for metrics, rate_scale in zip(metrics_list, rate_scales)
        ]
        calibrator = self.qoe_calibrator
        return [
            SessionContextReport(
                platform=platform,
                title=title,
                stage_timeline=[STAGES[code] for code in timeline.tolist()],
                stage_fractions=fractions,
                pattern=pattern,
                objective_metrics=metrics,
                objective_qoe=calibrator.objective_level(metrics),
                effective_qoe=calibrator.effective_level(
                    metrics,
                    title_name=None if title.is_unknown else title.title,
                    pattern=self._resolve_pattern(title, pattern),
                    stage_fractions=fractions,
                ),
                qoe_approximate=cascade.qoe_mode == "approx",
            )
            for platform, title, timeline, fractions, pattern, metrics, cascade in zip(
                platforms,
                title_predictions,
                stage_timelines,
                stage_fractions,
                pattern_predictions,
                metrics_list,
                cascades,
            )
        ]

    def process_many(
        self,
        sources: Iterable,
        latency_ms: Optional[float] = None,
        qoe_mode: str = "exact",
    ) -> List[SessionContextReport]:
        """Classify a whole corpus of sessions through the batched engine.

        The one offline entry point (:meth:`process` is its one-element
        call).  Every session's stream folds once through its own
        :class:`~repro.core.reducers.SessionReducerCascade`
        (``absorb_stream``: the live tick's fold body, on the facts of the
        whole session), which is what makes the streaming runtime's close
        reports bit-identical to these without replaying packet history.
        The whole batch then finalises together (:meth:`finalize_cascades`)
        — launch attributes in one grouped reduction + one forest pass,
        stage timelines from the slot counters with lockstep EMA in one
        forest pass, pattern inference through the chunked early-exit
        incremental replay, and QoE levels per session.

        Parameters
        ----------
        sources:
            Iterable of sessions; each element is a :class:`GameSession` or
            a capture's packets (the contract is stated once, in
            :meth:`_as_stream`).
        latency_ms:
            Optional out-of-band access latency applied to every session.
        qoe_mode:
            ``"exact"`` (default) or ``"approx"`` applied to every session.

        Returns
        -------
        list of SessionContextReport
            One report per source, in input order.
        """
        self._require_fitted()
        normalised = [self._as_stream(source) for source in sources]
        if not normalised:
            return []
        cascades = []
        for _, stream, _ in normalised:
            cascade = self.new_cascade(qoe_mode=qoe_mode)
            cascade.absorb_stream(stream)
            cascades.append(cascade)
        return self.finalize_cascades(
            cascades,
            platforms=[platform for platform, _, _ in normalised],
            rate_scales=[rate_scale for _, _, rate_scale in normalised],
            latency_ms=latency_ms,
        )

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _stage_fractions(codes: np.ndarray) -> Dict[PlayerStage, float]:
        """Share of each gameplay stage among a stage-code timeline's gameplay slots."""
        per_code = np.bincount(codes, minlength=len(STAGES)).tolist()
        counts = {
            stage: per_code[STAGES.index(stage)] for stage in PlayerStage.gameplay_stages()
        }
        total = sum(counts.values())
        return {stage: count / total if total else 0.0 for stage, count in counts.items()}

    @staticmethod
    def _resolve_pattern(
        title: TitlePrediction, pattern: PatternPrediction
    ) -> Optional[ActivityPattern]:
        """Cross-validate the two processes: title implies a pattern."""
        if not title.is_unknown and title.title in CATALOG:
            return CATALOG[title.title].pattern
        return pattern.pattern
