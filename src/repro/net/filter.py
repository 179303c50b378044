"""Cloud-gaming streaming-flow detection (the "Cloud Gaming Packet Filter").

The first stage of the paper's pipeline (Fig. 6) selects only packets that
belong to cloud game streaming flows, using adapted state-of-the-art flow
signatures [23, 32, 52] that reach 100% detection accuracy for four major
platforms: NVIDIA GeForce NOW, Xbox Cloud Gaming, Amazon Luna and PS5 Cloud
Streaming.  We model those signatures as flow-metadata predicates: RTP over
UDP, a platform-specific server port range, sustained downstream bitrate and
a heavily downstream-dominated byte ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.net.flow import FlowDemux, FlowKey, flow_summary
from repro.net.packet import PacketColumns, PacketStream


@dataclass(frozen=True)
class FlowSignature:
    """Metadata predicate describing one platform's streaming flows.

    Attributes
    ----------
    platform:
        Human-readable platform name.
    server_port_ranges:
        Inclusive UDP port ranges used by the platform's streaming servers.
    min_downstream_mbps:
        Minimum sustained downstream payload throughput.
    min_downstream_fraction:
        Minimum fraction of payload bytes that must flow downstream.
    requires_rtp:
        Whether packets must carry RTP headers.
    min_duration_s:
        Minimum flow duration before a confident match is declared.
    """

    platform: str
    server_port_ranges: Tuple[Tuple[int, int], ...]
    min_downstream_mbps: float = 3.0
    min_downstream_fraction: float = 0.9
    requires_rtp: bool = True
    min_duration_s: float = 2.0

    def matches_summary(self, summary: dict) -> bool:
        """Return True when the flow metadata satisfies every predicate.

        ``summary`` needs ``duration_s``, ``is_rtp``, ``downstream_mbps``,
        ``downstream_fraction`` and ``server_port`` — either
        :func:`~repro.net.flow.flow_summary` of an assembled flow or the
        equivalent aggregates a bounded session state tracks without
        retaining packets
        (:meth:`~repro.core.reducers.SessionReducerCascade.flow_summary`).
        """
        if summary["duration_s"] < self.min_duration_s:
            return False
        if self.requires_rtp and not summary["is_rtp"]:
            return False
        if summary["downstream_mbps"] < self.min_downstream_mbps:
            return False
        if summary["downstream_fraction"] < self.min_downstream_fraction:
            return False
        port = summary["server_port"]
        return any(low <= port <= high for low, high in self.server_port_ranges)


#: Platform signatures adapted from prior work [23, 32, 52].  Port ranges are
#: the publicly documented streaming port ranges of each platform.
CLOUD_GAMING_PLATFORMS: Dict[str, FlowSignature] = {
    "GeForce NOW": FlowSignature(
        platform="GeForce NOW",
        server_port_ranges=((49003, 49006), (47998, 48010)),
        min_downstream_mbps=3.0,
    ),
    "Xbox Cloud Gaming": FlowSignature(
        platform="Xbox Cloud Gaming",
        server_port_ranges=((9002, 9002), (3074, 3074)),
        min_downstream_mbps=3.0,
    ),
    "Amazon Luna": FlowSignature(
        platform="Amazon Luna",
        server_port_ranges=((33000, 34000),),
        min_downstream_mbps=3.0,
    ),
    "PS5 Cloud Streaming": FlowSignature(
        platform="PS5 Cloud Streaming",
        server_port_ranges=((9295, 9304),),
        min_downstream_mbps=3.0,
    ),
}


@dataclass
class DetectedSession:
    """A streaming flow identified as a cloud gaming session."""

    key: FlowKey
    platform: str
    packets: PacketStream


class CloudGamingFlowDetector:
    """Detects cloud-game streaming flows among arbitrary traffic.

    Parameters
    ----------
    signatures:
        Platform signatures to match against; defaults to the four platforms
        validated in the paper.
    """

    def __init__(self, signatures: Optional[Sequence[FlowSignature]] = None) -> None:
        self.signatures = list(signatures) if signatures else list(
            CLOUD_GAMING_PLATFORMS.values()
        )

    def classify_summary(self, summary: dict) -> Optional[str]:
        """Return the matching platform name, or ``None`` when no match.

        Works on flow-metadata aggregates alone (no packets required), which
        is how bounded session states detect the platform at close time
        without packet history; the first matching signature wins.
        """
        for signature in self.signatures:
            if signature.matches_summary(summary):
                return signature.platform
        return None

    def detect(
        self, packets: Union[PacketStream, PacketColumns]
    ) -> List[DetectedSession]:
        """Split a capture into flows and return the gaming sessions found.

        Sessions come back in first-packet order, each carrying its own
        time-sorted :class:`PacketStream`.
        """
        if not isinstance(packets, PacketStream):
            packets = PacketStream(packets)
        sessions: List[DetectedSession] = []
        for key, columns in FlowDemux().split(packets.columns()):
            stream = PacketStream.from_columns(columns, assume_sorted=True)
            platform = self.classify_summary(flow_summary(key, stream))
            if platform is not None:
                sessions.append(DetectedSession(key, platform, stream))
        return sessions
