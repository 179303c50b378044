"""Packet, flow and capture substrate.

Everything the classification pipeline consumes is expressed in terms of this
subpackage: columnar :class:`~repro.net.packet.PacketColumns` batches and the
sorted :class:`~repro.net.packet.PacketStream` view over them (there is no
per-packet record), flow demultiplexing by canonical 5-tuple
(:class:`~repro.net.flow.FlowDemux` / :class:`~repro.net.flow.FlowKey`), RTP
header constants, column-wise classic-libpcap file I/O, cloud-gaming flow
detection signatures, and a network-impairment model used to emulate
degraded access links.
"""

from repro.net.conditions import NetworkConditions, apply_conditions_columns
from repro.net.filter import (
    CLOUD_GAMING_PLATFORMS,
    CloudGamingFlowDetector,
    FlowSignature,
)
from repro.net.flow import FlowDemux, FlowKey
from repro.net.packet import Direction, PacketColumns, PacketStream
from repro.net.pcap import (
    ParseStats,
    read_pcap_columns,
    read_pcap_stream,
    write_pcap,
)

__all__ = [
    "PacketColumns",
    "PacketStream",
    "Direction",
    "FlowDemux",
    "FlowKey",
    "ParseStats",
    "read_pcap_columns",
    "read_pcap_stream",
    "write_pcap",
    "CloudGamingFlowDetector",
    "FlowSignature",
    "CLOUD_GAMING_PLATFORMS",
    "NetworkConditions",
    "apply_conditions_columns",
]
