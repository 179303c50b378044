"""Minimal RTP (RFC 3550) header constants.

Cloud gaming platforms stream rendered frames over RTP/UDP; the flow
detection signatures and the objective-QoE estimator only need header fields
(version, payload type, sequence number, timestamp, SSRC).  Both encoding
(:func:`repro.net.pcap.write_pcap`) and decoding happen once per batch,
column-wise, in :mod:`repro.net.pcap`: the library has no per-packet RTP
header object.
"""

RTP_VERSION = 2
RTP_HEADER_LEN = 12

#: Payload types used by the synthetic GeForce-NOW-like streams.
PAYLOAD_TYPE_VIDEO = 96
PAYLOAD_TYPE_AUDIO = 97
PAYLOAD_TYPE_INPUT = 98
