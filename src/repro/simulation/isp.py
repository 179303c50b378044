"""ISP-scale deployment simulation (§5).

The paper deploys its classifier in a partner ISP hosting the regional
GeForce NOW servers and analyses three months of sessions (December 2024 to
March 2025).  The §5 analyses (Fig. 11, Fig. 12, Fig. 13) aggregate
*per-session records*: the classified context (title or coarse pattern),
per-stage playtime, session-average throughput and the QoS/QoE measurements
of the ISP's observability module.

Generating full packet traces for hundreds of thousands of sessions is
neither necessary nor tractable; instead this module samples session records
directly from the same per-title models the packet-level simulator uses
(catalog popularity, duration and stage-fraction parameters, bitrate
clusters) plus a network-conditions mixture in which a configurable fraction
of sessions experience genuinely degraded access links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.net.conditions import NetworkConditions
from repro.simulation.catalog import (
    CATALOG,
    GAME_TITLES,
    UNKNOWN_TITLE,
    ActivityPattern,
    GameTitle,
    PlayerStage,
    popularity_weights,
)
from repro.simulation.devices import Resolution
from repro.simulation.traffic import (
    DOWNSTREAM_STAGE_LEVELS,
    resolution_cluster_index,
)

#: Resolution mix observed across ISP subscribers (paper reports 2–4 bitrate
#: clusters per title driven by resolution/device groups).
_RESOLUTION_MIX = (
    (Resolution.HD, 0.25),
    (Resolution.FHD, 0.45),
    (Resolution.QHD, 0.20),
    (Resolution.UHD, 0.10),
)

#: Serving-region mix of the simulated deployment (one regional GeForce NOW
#: hosting site dominates, the rest spill to neighbouring regions).
_REGION_MIX = (
    ("eu-central", 0.55),
    ("eu-west", 0.25),
    ("eu-north", 0.12),
    ("eu-south", 0.08),
)


@dataclass
class SessionRecord:
    """One streaming session as seen by the deployed measurement system.

    Attributes
    ----------
    title_name:
        Ground-truth game title, or :data:`UNKNOWN_TITLE` when the session
        belongs to the long tail outside the 13-title catalog.
    pattern:
        Ground-truth gameplay activity pattern.
    classified_title:
        Title assigned by the real-time classifier ("unknown" for low
        confidence), used for the §5 pre-deployment validation.
    resolution:
        Streaming resolution group of the subscriber.
    duration_minutes:
        Total session duration (launch included).
    stage_minutes:
        Minutes spent in each player activity stage.
    avg_downstream_mbps:
        Session-average downstream throughput.
    avg_frame_rate:
        Session-average streaming frame rate measured by the QoE module.
    latency_ms / loss_rate:
        Access-network QoS of the session.
    network_degraded:
        Whether the access network genuinely under-performed (ground truth
        for the effective-QoE analysis).
    region:
        Serving region of the session (the fleet analytics rollup key);
        sampled from the deployment's region mix.
    """

    title_name: str
    pattern: ActivityPattern
    classified_title: str
    resolution: Resolution
    duration_minutes: float
    stage_minutes: Dict[PlayerStage, float]
    avg_downstream_mbps: float
    avg_frame_rate: float
    latency_ms: float
    loss_rate: float
    network_degraded: bool
    fps_setting: int = 60
    region: str = "unassigned"

    @property
    def gameplay_minutes(self) -> float:
        """Minutes of gameplay (excluding launch)."""
        return sum(
            self.stage_minutes.get(stage, 0.0)
            for stage in PlayerStage.gameplay_stages()
        )

    def stage_fraction(self, stage: PlayerStage) -> float:
        """Fraction of gameplay time spent in ``stage``."""
        gameplay = self.gameplay_minutes
        if gameplay <= 0:
            return 0.0
        return self.stage_minutes.get(stage, 0.0) / gameplay


class ISPDeploymentSimulator:
    """Samples per-session records of a three-month field deployment.

    Parameters
    ----------
    unknown_title_fraction:
        Fraction of sessions belonging to titles outside the 13-title
        catalog; these are only classified by their gameplay activity
        pattern (Fig. 11b/12b/13b).
    degraded_fraction:
        Fraction of sessions on genuinely poor access networks.
    classifier_accuracy:
        Probability that the in-network title classification matches the
        server-log ground truth (the paper reports >95%).
    """

    def __init__(
        self,
        unknown_title_fraction: float = 0.2,
        degraded_fraction: float = 0.08,
        classifier_accuracy: float = 0.96,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 <= unknown_title_fraction < 1.0:
            raise ValueError(
                f"unknown_title_fraction must be in [0, 1), got {unknown_title_fraction}"
            )
        if not 0.0 <= degraded_fraction < 1.0:
            raise ValueError(
                f"degraded_fraction must be in [0, 1), got {degraded_fraction}"
            )
        if not 0.0 < classifier_accuracy <= 1.0:
            raise ValueError(
                f"classifier_accuracy must be in (0, 1], got {classifier_accuracy}"
            )
        self.unknown_title_fraction = unknown_title_fraction
        self.degraded_fraction = degraded_fraction
        self.classifier_accuracy = classifier_accuracy
        self._rng = np.random.default_rng(random_state)
        # dedicated stream for the region tag: drawing it from self._rng
        # would shift every draw after it and change all seeded records
        self._region_rng = np.random.default_rng(
            None if random_state is None else random_state + 0x5EED
        )

    # ------------------------------------------------------------ sampling
    def _sample_title(self) -> GameTitle:
        weights = popularity_weights()
        names = list(weights.keys())
        probs = np.array([weights[name] for name in names])
        return CATALOG[names[int(self._rng.choice(len(names), p=probs))]]

    def _sample_resolution(self) -> Resolution:
        resolutions, probs = zip(*_RESOLUTION_MIX)
        probs = np.array(probs) / sum(probs)
        return resolutions[int(self._rng.choice(len(resolutions), p=probs))]

    def _sample_region(self) -> str:
        regions, probs = zip(*_REGION_MIX)
        probs = np.array(probs) / sum(probs)
        return regions[int(self._region_rng.choice(len(regions), p=probs))]

    def _sample_stage_minutes(
        self, title: GameTitle, gameplay_minutes: float
    ) -> Dict[PlayerStage, float]:
        fractions = np.array(
            [
                title.stage_fraction(stage)
                for stage in PlayerStage.gameplay_stages()
            ]
        )
        fractions = np.maximum(fractions, 0.01)
        # Dirichlet noise keeps per-session variability around the title mean
        sampled = self._rng.dirichlet(fractions * 40.0)
        minutes = {
            stage: float(gameplay_minutes * share)
            for stage, share in zip(PlayerStage.gameplay_stages(), sampled)
        }
        minutes[PlayerStage.LAUNCH] = float(self._rng.uniform(0.7, 1.0))
        return minutes

    def _sample_throughput(
        self,
        title: GameTitle,
        resolution: Resolution,
        stage_minutes: Dict[PlayerStage, float],
        degraded: bool,
    ) -> float:
        clusters = title.bitrate_clusters_mbps
        cluster = clusters[resolution_cluster_index(resolution, len(clusters))]
        active_mbps = float(self._rng.uniform(*cluster))
        gameplay = sum(
            stage_minutes.get(stage, 0.0) for stage in PlayerStage.gameplay_stages()
        )
        if gameplay <= 0:
            return active_mbps * 0.4
        weighted = sum(
            DOWNSTREAM_STAGE_LEVELS[stage] * stage_minutes.get(stage, 0.0)
            for stage in PlayerStage.gameplay_stages()
        ) / gameplay
        throughput = active_mbps * weighted
        if degraded:
            throughput *= float(self._rng.uniform(0.1, 0.55))
        return max(0.3, throughput)

    def _sample_qos(self, degraded: bool) -> NetworkConditions:
        if degraded:
            return NetworkConditions(
                latency_ms=float(self._rng.uniform(55.0, 160.0)),
                jitter_ms=float(self._rng.uniform(10.0, 40.0)),
                loss_rate=float(self._rng.uniform(0.01, 0.06)),
            )
        return NetworkConditions(
            latency_ms=float(self._rng.uniform(4.0, 28.0)),
            jitter_ms=float(self._rng.uniform(0.5, 6.0)),
            loss_rate=float(self._rng.uniform(0.0, 0.004)),
        )

    def _sample_frame_rate(
        self,
        fps_setting: int,
        stage_minutes: Dict[PlayerStage, float],
        degraded: bool,
    ) -> float:
        gameplay = sum(
            stage_minutes.get(stage, 0.0) for stage in PlayerStage.gameplay_stages()
        )
        if gameplay <= 0:
            weighted = 0.6
        else:
            weights = {
                PlayerStage.ACTIVE: 1.0,
                PlayerStage.PASSIVE: 0.95,
                PlayerStage.IDLE: 0.45,
            }
            weighted = sum(
                weights[stage] * stage_minutes.get(stage, 0.0)
                for stage in PlayerStage.gameplay_stages()
            ) / gameplay
        frame_rate = fps_setting * weighted
        if degraded:
            frame_rate *= float(self._rng.uniform(0.2, 0.6))
        return float(max(5.0, frame_rate))

    def generate_record(self) -> SessionRecord:
        """Sample a single session record."""
        title = self._sample_title()
        resolution = self._sample_resolution()
        fps_setting = int(self._rng.choice([30, 60, 60, 120]))
        degraded = bool(self._rng.random() < self.degraded_fraction)

        duration_minutes = float(
            np.clip(
                self._rng.gamma(shape=4.0, scale=title.mean_session_minutes / 4.0),
                4.0,
                title.mean_session_minutes * 3.5,
            )
        )
        stage_minutes = self._sample_stage_minutes(title, duration_minutes)
        throughput = self._sample_throughput(title, resolution, stage_minutes, degraded)
        qos = self._sample_qos(degraded)
        frame_rate = self._sample_frame_rate(fps_setting, stage_minutes, degraded)

        in_catalog = self._rng.random() >= self.unknown_title_fraction
        if in_catalog:
            title_name = title.name
            correct = self._rng.random() < self.classifier_accuracy
            if correct:
                classified = title.name
            else:
                others = [t.name for t in GAME_TITLES if t.name != title.name] + [
                    UNKNOWN_TITLE
                ]
                classified = others[int(self._rng.integers(0, len(others)))]
        else:
            # a long-tail title: ground truth outside the catalog, classifier
            # reports "unknown" and falls back to the activity pattern
            title_name = UNKNOWN_TITLE
            classified = UNKNOWN_TITLE

        return SessionRecord(
            title_name=title_name,
            pattern=title.pattern,
            classified_title=classified,
            resolution=resolution,
            duration_minutes=duration_minutes + stage_minutes[PlayerStage.LAUNCH],
            stage_minutes=stage_minutes,
            avg_downstream_mbps=throughput,
            avg_frame_rate=frame_rate,
            latency_ms=qos.latency_ms,
            loss_rate=qos.loss_rate,
            network_degraded=degraded,
            fps_setting=fps_setting,
            region=self._sample_region(),
        )

    def generate_records(self, n_sessions: int) -> List[SessionRecord]:
        """Sample ``n_sessions`` independent session records."""
        if n_sessions <= 0:
            raise ValueError(f"n_sessions must be positive, got {n_sessions}")
        return [self.generate_record() for _ in range(n_sessions)]
