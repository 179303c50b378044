"""Per-stage bidirectional traffic synthesis (Fig. 4).

The paper's key volumetric observation (§3.3) is that the *relative* levels
of downstream and upstream traffic within one session track the player
activity stage regardless of the title or streaming settings:

* **active** — both directions at the session's peak (frequent graphics
  refresh and frequent user inputs);
* **passive** — downstream stays near the active level (the scene keeps
  refreshing while spectating) but upstream drops sharply (few inputs);
* **idle** — both directions drop to a low level (lobby/menu scenes);
* **launch** — a moderate downstream level while the opening animation is
  streamed, negligible upstream.

This module turns a per-session bitrate budget (derived from the title's
bandwidth cluster and the streaming settings) into packets: downstream video
frames at the configured frame rate, split into maximum-payload packets plus
a remainder, and upstream input packets at a stage-dependent rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.net.packet import Direction, PacketColumns
from repro.net.rtp import PAYLOAD_TYPE_INPUT, PAYLOAD_TYPE_VIDEO
from repro.simulation.catalog import GameTitle, PlayerStage
from repro.simulation.devices import (
    FULL_PACKET_PAYLOAD,
    INPUT_PACKET_MEAN,
    INPUT_PACKET_STD,
    Resolution,
    StreamingSettings,
)

#: Relative downstream throughput per stage versus the active level.
DOWNSTREAM_STAGE_LEVELS: Dict[PlayerStage, float] = {
    PlayerStage.ACTIVE: 1.00,
    PlayerStage.PASSIVE: 0.82,
    PlayerStage.IDLE: 0.16,
    PlayerStage.LAUNCH: 0.45,
}

#: Relative upstream packet rate per stage versus the active level.
UPSTREAM_STAGE_LEVELS: Dict[PlayerStage, float] = {
    PlayerStage.ACTIVE: 1.00,
    PlayerStage.PASSIVE: 0.18,
    PlayerStage.IDLE: 0.07,
    PlayerStage.LAUNCH: 0.05,
}

#: Upstream input packet rate (packets/s) during active gameplay at 60 fps.
ACTIVE_INPUT_RATE = 125.0

#: Relative per-stage frame-rate factor: idle scenes refresh less often.
FRAME_RATE_STAGE_LEVELS: Dict[PlayerStage, float] = {
    PlayerStage.ACTIVE: 1.00,
    PlayerStage.PASSIVE: 0.95,
    PlayerStage.IDLE: 0.45,
    PlayerStage.LAUNCH: 0.60,
}


def resolution_cluster_index(resolution: Resolution, n_clusters: int) -> int:
    """Map a streaming resolution to one of the title's bitrate clusters.

    Low resolutions land in the lowest-bitrate cluster, UHD in the highest —
    producing the per-title multi-cluster throughput distributions of
    Fig. 12a.
    """
    order = [Resolution.SD, Resolution.HD, Resolution.FHD, Resolution.QHD, Resolution.UHD]
    position = order.index(resolution) / (len(order) - 1)
    return min(n_clusters - 1, int(position * n_clusters))


@dataclass
class StageTrafficModel:
    """Synthesises packets for one session's gameplay stages.

    Parameters
    ----------
    title:
        Catalog entry providing the per-title bitrate clusters.
    settings:
        Streaming settings (resolution and frame rate).
    rate_scale:
        Global fidelity control: scales the byte budget (and hence packet
        counts) without affecting relative structure.  1.0 is full fidelity.
    rng:
        Random generator; a per-session generator keeps sessions distinct.
    """

    title: GameTitle
    settings: StreamingSettings
    rate_scale: float = 1.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.rate_scale <= 0:
            raise ValueError(f"rate_scale must be positive, got {self.rate_scale}")
        clusters = self.title.bitrate_clusters_mbps
        cluster = clusters[
            resolution_cluster_index(self.settings.resolution, len(clusters))
        ]
        # session-average active bitrate drawn within the chosen cluster
        self.active_bitrate_mbps = float(self.rng.uniform(*cluster))
        # per-session upstream intensity (input style varies per player)
        self.active_input_rate = ACTIVE_INPUT_RATE * (
            0.8 + 0.4 * float(self.rng.random())
        ) * (self.settings.fps / 60.0) ** 0.5

    # ------------------------------------------------------------ helpers
    def downstream_bitrate(self, stage: PlayerStage) -> float:
        """Mean downstream bitrate (Mbps) for a stage of this session."""
        return self.active_bitrate_mbps * DOWNSTREAM_STAGE_LEVELS[stage]

    def upstream_rate(self, stage: PlayerStage) -> float:
        """Mean upstream input packet rate (packets/s) for a stage."""
        return self.active_input_rate * UPSTREAM_STAGE_LEVELS[stage]

    def frame_rate(self, stage: PlayerStage) -> float:
        """Effective streamed frame rate for a stage."""
        return max(5.0, self.settings.fps * FRAME_RATE_STAGE_LEVELS[stage])

    # ---------------------------------------------------------- generation
    def generate_stage_columns(
        self,
        stage: PlayerStage,
        start: float,
        end: float,
        src_ip: str = "203.0.113.10",
        dst_ip: str = "192.168.1.10",
        src_port: int = 49004,
        dst_port: int = 51000,
        ssrc: int = 0x47454F,
    ) -> PacketColumns:
        """Generate both directions of traffic for one stage as arrays."""
        if end <= start:
            raise ValueError(f"stage end ({end}) must exceed start ({start})")
        downstream = self._downstream_columns(
            stage, start, end, src_ip, dst_ip, src_port, dst_port, ssrc
        )
        upstream = self._upstream_columns(
            stage, start, end, dst_ip, src_ip, dst_port, src_port, ssrc
        )
        return PacketColumns.concat([downstream, upstream]).sorted_by_time()

    def _downstream_columns(
        self,
        stage: PlayerStage,
        start: float,
        end: float,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        ssrc: int,
    ) -> PacketColumns:
        duration = end - start
        fps = self.frame_rate(stage)
        bitrate = self.downstream_bitrate(stage) * self.rate_scale
        bytes_per_frame = bitrate * 1e6 / 8.0 / fps
        n_frames = int(duration * fps)
        if n_frames <= 0:
            return PacketColumns.empty()

        frame_times = start + (np.arange(n_frames) + self.rng.uniform(0, 1)) / fps
        # scene complexity makes frame sizes fluctuate around the target
        frame_sizes = bytes_per_frame * self.rng.lognormal(
            mean=-0.02, sigma=0.2, size=n_frames
        )
        # occasional keyframes are several times larger
        keyframes = self.rng.random(n_frames) < (1.0 / (4.0 * fps))
        frame_sizes[keyframes] *= self.rng.uniform(2.5, 4.0, size=int(keyframes.sum()))
        sequence = int(self.rng.integers(0, 30000))

        in_stage = frame_times < end
        frame_times = frame_times[in_stage]
        frame_sizes = frame_sizes[in_stage]
        if not frame_times.size:
            return PacketColumns.empty()

        # each frame splits into floor(bytes / FULL) maximum-payload packets
        # plus one ceil(remainder) packet when at least one byte remains
        frame_bytes = np.maximum(60.0, frame_sizes)
        n_full = np.floor(frame_bytes / FULL_PACKET_PAYLOAD).astype(np.int64)
        remainder = frame_bytes - n_full * FULL_PACKET_PAYLOAD
        has_tail = remainder >= 1.0
        per_frame = n_full + has_tail
        total = int(per_frame.sum())
        if total == 0:
            return PacketColumns.empty()

        frame_of_packet = np.repeat(np.arange(frame_times.size), per_frame)
        first_of_frame = np.cumsum(per_frame) - per_frame
        within = np.arange(total) - first_of_frame[frame_of_packet]
        payloads = np.where(
            within < n_full[frame_of_packet],
            float(FULL_PACKET_PAYLOAD),
            np.ceil(remainder[frame_of_packet]),
        )
        # packets of one frame leave back-to-back (~40 us apart)
        times = np.minimum(frame_times[frame_of_packet] + within * 4e-5, end - 1e-6)
        return PacketColumns.uniform(
            timestamps=times,
            payload_sizes=payloads,
            direction=Direction.DOWNSTREAM,
            address=(src_ip, dst_ip, src_port, dst_port, "udp"),
            rtp_payload_type=PAYLOAD_TYPE_VIDEO,
            rtp_ssrc=ssrc,
            rtp_sequence=(sequence + 1 + np.arange(total, dtype=np.int64)) & 0xFFFF,
            rtp_timestamp=(frame_times[frame_of_packet] * 90_000).astype(np.int64)
            & 0xFFFFFFFF,
        )

    def _upstream_columns(
        self,
        stage: PlayerStage,
        start: float,
        end: float,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        ssrc: int,
    ) -> PacketColumns:
        duration = end - start
        # Upstream input traffic is light (~hundreds of Kbps at most), so it
        # is scaled far less aggressively than the downstream video when
        # generating reduced-fidelity sessions; otherwise the upstream
        # active/passive contrast the classifier relies on would drown in
        # Poisson noise.
        upstream_scale = max(self.rate_scale, 0.4)
        rate = self.upstream_rate(stage) * upstream_scale
        expected = rate * duration
        count = int(self.rng.poisson(expected)) if expected > 0 else 0
        if count == 0:
            return PacketColumns.empty()
        times = np.sort(self.rng.uniform(start, end, size=count))
        sizes = np.clip(
            self.rng.normal(INPUT_PACKET_MEAN, INPUT_PACKET_STD, size=count), 40, 400
        ).astype(np.int64)
        sequence = int(self.rng.integers(0, 30000))
        return PacketColumns.uniform(
            timestamps=times,
            payload_sizes=sizes.astype(float),
            direction=Direction.UPSTREAM,
            address=(src_ip, dst_ip, src_port, dst_port, "udp"),
            rtp_payload_type=PAYLOAD_TYPE_INPUT,
            rtp_ssrc=ssrc + 1,
            rtp_sequence=(sequence + 1 + np.arange(count, dtype=np.int64)) & 0xFFFF,
            rtp_timestamp=(times * 90_000).astype(np.int64) & 0xFFFFFFFF,
        )
