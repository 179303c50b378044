"""Minimal RTP (RFC 3550) header encoding.

Cloud gaming platforms stream rendered frames over RTP/UDP; the flow
detection signatures and the objective-QoE estimator only need header fields
(version, payload type, sequence number, timestamp, SSRC, marker bit).
:class:`RTPHeader` encodes them for :func:`repro.net.pcap.write_pcap`.
Decoding happens once per capture block, column-wise, in
:mod:`repro.net.pcap` (no per-packet decode exists in the library).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

RTP_VERSION = 2
RTP_HEADER_LEN = 12

#: Payload types used by the synthetic GeForce-NOW-like streams.
PAYLOAD_TYPE_VIDEO = 96
PAYLOAD_TYPE_AUDIO = 97
PAYLOAD_TYPE_INPUT = 98


@dataclass(frozen=True, slots=True)
class RTPHeader:
    """Decoded fixed RTP header."""

    version: int = RTP_VERSION
    padding: bool = False
    extension: bool = False
    csrc_count: int = 0
    marker: bool = False
    payload_type: int = PAYLOAD_TYPE_VIDEO
    sequence_number: int = 0
    timestamp: int = 0
    ssrc: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.payload_type <= 127:
            raise ValueError(f"payload_type out of range: {self.payload_type}")
        if not 0 <= self.sequence_number <= 0xFFFF:
            raise ValueError(f"sequence_number out of range: {self.sequence_number}")
        if not 0 <= self.timestamp <= 0xFFFFFFFF:
            raise ValueError(f"timestamp out of range: {self.timestamp}")
        if not 0 <= self.ssrc <= 0xFFFFFFFF:
            raise ValueError(f"ssrc out of range: {self.ssrc}")
        if not 0 <= self.csrc_count <= 15:
            raise ValueError(f"csrc_count out of range: {self.csrc_count}")

    def encode(self) -> bytes:
        """Serialise the header to its 12-byte wire format."""
        first = (
            (self.version << 6)
            | (int(self.padding) << 5)
            | (int(self.extension) << 4)
            | self.csrc_count
        )
        second = (int(self.marker) << 7) | self.payload_type
        return struct.pack(
            "!BBHII", first, second, self.sequence_number, self.timestamp, self.ssrc
        )
