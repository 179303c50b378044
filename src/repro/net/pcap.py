"""Classic libpcap file reading and writing.

The lab methodology of the paper captures sessions with Wireshark/TCPdump
into PCAP files (§3.1).  This module implements the classic libpcap container
(magic ``0xa1b2c3d4``, microsecond timestamps) with Ethernet/IPv4/UDP/RTP
framing, so that synthetic sessions can be round-tripped through real PCAP
bytes and, conversely, real captures of RTP/UDP traffic can be loaded into
:class:`~repro.net.packet.PacketColumns` batches.

Both directions work on columns, never on one packet at a time.
:func:`write_pcap` assigns each header field of every record at once.
There is one reader: :func:`read_pcap_columns` (whole file),
:func:`iter_pcap_column_batches` (live-feed batches) and the
:func:`read_pcap_stream` wrapper decode capture records with vectorised
header field extraction, which keeps real-capture ingestion on the same
batch substrate as the synthetic generators.

The reader tolerates hostile input — truncated records, short frames, wrong
link-layer/IP lengths, mangled RTP — by skipping (or, for RTP, demoting to
non-RTP columns) rather than raising; pass a :class:`ParseStats` to account
every skipped record by reason.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.net.flow import FlowKey, _object_ids, canonical_flow_key
from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    PacketColumns,
    PacketStream,
    RTP_NONE,
    UPSTREAM_CODE,
    flow_id_column,
)
from repro.net.rtp import PAYLOAD_TYPE_VIDEO, RTP_HEADER_LEN, RTP_VERSION

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_VERSION_MAJOR = 2
PCAP_VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_ETH_HEADER_LEN = 14
_IPV4_MIN_HEADER_LEN = 20
_UDP_HEADER_LEN = 8
_ETHERTYPE_IPV4 = 0x0800
_IPPROTO_UDP = 17
#: Read-ahead of :func:`iter_pcap_column_batches`, in capture records.  One
#: vectorised decode is ~35 numpy calls whatever its size, so blocks of a
#: tick's ~50 records pay the calls per tick; 4 096 keeps every temporary in
#: cache and adds ~2 ms to the first batch (the header scan ahead of it is
#: ~6 ms for 70 k snaplen records), 65 536 adds ~25 ms and decodes no faster.
_BLOCK_RECORDS = 4096
#: :func:`_scan_records` starts comparing length fields ahead of the walk
#: once this many consecutive records share a captured length ...
_RUN_RECORDS = 8
#: ... this many at a time, four times as many after each window that
#: matched in full (a mismatch costs at most the compare of one window).
_RUN_WINDOW = 64


@dataclass
class ParseStats:
    """Accounting of what a capture read kept, skipped and repaired.

    Hostile or damaged captures (probe overruns, middlebox mangling, link
    types this decoder does not speak) must never crash ingestion *or*
    disappear silently: pass an instance to :func:`read_pcap_columns` /
    :func:`iter_pcap_column_batches` / :func:`read_pcap_stream` and every
    record is accounted either as decoded or under exactly one skip/repair
    counter.  Counters accumulate, so one instance can total several files
    (or every batch of a chunked read).
    """

    #: records with complete headers and frame bytes (scanner output)
    n_records: int = 0
    #: rows that decoded into columns
    n_decoded: int = 0
    #: trailing records cut off mid-header or mid-frame (dropped by the scan)
    truncated_records: int = 0
    #: frames shorter than Ethernet + minimal IPv4 + UDP headers
    short_frames: int = 0
    #: non-IPv4 ethertypes (ARP, IPv6, VLAN, ...)
    non_ipv4: int = 0
    #: IPv4 but not UDP (TCP, ICMP, ...)
    non_udp: int = 0
    #: IHL below 20 bytes, or frame too short for the IHL it claims
    bad_ip_header: int = 0
    #: UDP length field smaller than the UDP header itself
    bad_udp_length: int = 0
    #: RTP version bits present but the payload is too short for a full
    #: header — the row is *kept* with non-RTP columns, not skipped
    malformed_rtp: int = 0

    @property
    def n_skipped(self) -> int:
        """Complete records that decoded to no row (truncation not included)."""
        return (
            self.short_frames
            + self.non_ipv4
            + self.non_udp
            + self.bad_ip_header
            + self.bad_udp_length
        )


def _ip_to_u32(ip: str) -> int:
    """A dotted-quad IPv4 address as its 32-bit integer."""
    parts = ip.split(".")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        values = []
    if len(values) != 4 or any(not 0 <= value <= 255 for value in values):
        raise ValueError(f"invalid IPv4 address {ip!r}")
    return int.from_bytes(bytes(values), "big")


#: Everything :func:`write_pcap` writes besides zero payload bytes: the
#: record header (little endian) and the Ethernet, IPv4, UDP and RTP headers
#: of one frame (network order), one field each.
_RECORD_FRAME = np.dtype(
    [
        ("seconds", "<u4"), ("micros", "<u4"), ("captured", "<u4"), ("frame", "<u4"),
        ("eth_dst", "u1", 6), ("eth_src", "u1", 6), ("ethertype", ">u2"),
        ("version_ihl", "u1"), ("tos", "u1"), ("total_length", ">u2"),
        ("ident", ">u4"), ("ttl_proto", ">u2"), ("ip_checksum", ">u2"),
        ("src_ip", ">u4"), ("dst_ip", ">u4"),
        ("src_port", ">u2"), ("dst_port", ">u2"), ("udp_length", ">u2"), ("udp_checksum", ">u2"),
        ("rtp_flags", "u1"), ("rtp_payload_type", "u1"), ("rtp_sequence", ">u2"),
        ("rtp_timestamp", ">u4"), ("rtp_ssrc", ">u4"),
    ]
)


def _address_fields(addresses: Optional[np.ndarray], n: int) -> np.ndarray:
    """``(src_ip, dst_ip, src_port, dst_port)`` integers of every row, shape ``(4, n)``.

    Each distinct address tuple is converted (and validated) once and rows
    take theirs by inverse index.
    """
    if addresses is None:
        table, inverse = [DEFAULT_ADDRESS], np.zeros(n, dtype=np.intp)
    else:
        _, first_rows, inverse = np.unique(
            _object_ids(addresses), return_index=True, return_inverse=True
        )
        table = addresses[first_rows].tolist()
    fields = np.array(
        [(_ip_to_u32(src), _ip_to_u32(dst), sport, dport) for src, dst, sport, dport, _ in table],
        dtype=np.int64,
    ).reshape(-1, 4)
    bad = np.flatnonzero(((fields[:, 2:] < 0) | (fields[:, 2:] > 0xFFFF)).any(axis=1))
    if bad.size:
        raise ValueError(f"port out of range in address {table[bad[0]]!r}")
    return fields[inverse].T


def write_pcap(
    path: Union[str, Path],
    columns: PacketColumns,
    snaplen: int = 65535,
) -> int:
    """Write a batch of packets to a classic PCAP file, one header field at a time.

    Records follow one stable time sort of the rows.  Each frame is
    Ethernet/IPv4/UDP with a valid IPv4 header checksum, an RTP header on
    every row with an SSRC whose payload can hold one (a datagram under 12
    bytes stays plain UDP at its own size; payload type 96 where the column
    is absent), then zero bytes; at most ``snaplen`` bytes of a frame are
    captured.  Every field is assigned for all records at once.  Returns the
    number of records written.

    Raises ``ValueError`` on negative timestamps or payload sizes, ports
    outside 0-65535, addresses that are not dotted quads and RTP payload
    types outside 0-127, and on what the format cannot hold: timestamps of
    2**32 - 1 seconds or more and payloads over 65 507 bytes (an IPv4
    datagram's 16-bit total length).
    """
    columns = columns.sorted_by_time()
    n = len(columns)
    if not np.all((columns.timestamps >= 0) & (columns.timestamps < 0xFFFFFFFF)):
        raise ValueError("timestamps must be non-negative seconds below 2**32 - 1")
    most = 0xFFFF - _IPV4_MIN_HEADER_LEN - _UDP_HEADER_LEN
    if not np.all((columns.payload_sizes >= 0) & (columns.payload_sizes <= most)):
        raise ValueError(f"payload sizes must be non-negative and at most {most} bytes")
    src_ip, dst_ip, src_port, dst_port = _address_fields(columns.addresses, n)
    payload = columns.payload_sizes.astype(np.int64)
    frame_length = _ETH_HEADER_LEN + _IPV4_MIN_HEADER_LEN + _UDP_HEADER_LEN + payload
    captured = np.minimum(frame_length, snaplen)

    head = np.zeros(n, dtype=_RECORD_FRAME)
    seconds = np.floor(columns.timestamps)
    micros = np.rint((columns.timestamps - seconds) * 1_000_000).astype(np.int64)
    carry = micros >= 1_000_000
    head["seconds"] = seconds.astype(np.int64) + carry
    head["micros"] = micros - 1_000_000 * carry
    head["captured"] = captured
    head["frame"] = frame_length
    head["eth_dst"], head["eth_src"], head["ethertype"] = 0x02, 0x04, _ETHERTYPE_IPV4
    total_length = frame_length - _ETH_HEADER_LEN
    ttl_proto = (64 << 8) | _IPPROTO_UDP
    head["version_ihl"], head["total_length"], head["ttl_proto"] = 0x45, total_length, ttl_proto
    head["src_ip"], head["dst_ip"] = src_ip, dst_ip
    # RFC 1071: ones-complement sum of the header's 16-bit words, checksum word 0
    words = (
        0x4500 + total_length + ttl_proto
        + (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) + (dst_ip & 0xFFFF)
    )
    words = (words & 0xFFFF) + (words >> 16)
    words = (words & 0xFFFF) + (words >> 16)
    head["ip_checksum"] = ~words & 0xFFFF
    head["src_port"], head["dst_port"] = src_port, dst_port
    head["udp_length"] = payload + _UDP_HEADER_LEN
    if columns.rtp_ssrc is not None:
        rtp = np.flatnonzero((columns.rtp_ssrc != RTP_NONE) & (payload >= RTP_HEADER_LEN))

        def field(column: Optional[np.ndarray], default: int) -> np.ndarray:
            if column is None:
                return np.full(rtp.size, default)
            values = column[rtp]
            return np.where(values == RTP_NONE, default, values)

        payload_type = field(columns.rtp_payload_type, PAYLOAD_TYPE_VIDEO)
        if np.any((payload_type < 0) | (payload_type > 0x7F)):
            raise ValueError("RTP payload types must be within 0-127")
        head["rtp_flags"][rtp] = RTP_VERSION << 6
        head["rtp_payload_type"][rtp] = payload_type
        head["rtp_sequence"][rtp] = field(columns.rtp_sequence, 0) & 0xFFFF
        head["rtp_timestamp"][rtp] = field(columns.rtp_timestamp, 0) & 0xFFFFFFFF
        head["rtp_ssrc"][rtp] = columns.rtp_ssrc[rtp] & 0xFFFFFFFF

    record_length = _RECORD_HEADER.size + captured
    starts = _GLOBAL_HEADER.size + np.cumsum(record_length) - record_length
    data = np.zeros(_GLOBAL_HEADER.size + int(record_length.sum()), dtype=np.uint8)
    data[: _GLOBAL_HEADER.size] = np.frombuffer(
        _GLOBAL_HEADER.pack(
            PCAP_MAGIC, PCAP_VERSION_MAJOR, PCAP_VERSION_MINOR, 0, 0, snaplen, LINKTYPE_ETHERNET
        ),
        dtype=np.uint8,
    )
    # each record keeps the head bytes its captured length reaches, byte column by byte column
    head_bytes = head.view(np.uint8).reshape(n, _RECORD_FRAME.itemsize)
    kept = _RECORD_HEADER.size + np.minimum(captured, _RECORD_FRAME.itemsize - _RECORD_HEADER.size)
    for byte in range(_RECORD_FRAME.itemsize):
        rows = np.flatnonzero(kept > byte)
        data[starts[rows] + byte] = head_bytes[rows, byte]
    Path(path).write_bytes(data.tobytes())
    return n


def _scan_records(data: bytes, source: str = "buffer", stats: Optional[ParseStats] = None):
    """Walk the record headers of a classic pcap byte buffer.

    Returns ``(timestamps, frame_offsets, frame_lengths)`` as numpy arrays
    (float64 seconds and int64 byte offsets/lengths into ``data``).  Only the
    16-byte record headers are touched — frame decoding happens vectorised
    afterwards.  A trailing record cut off mid-header or mid-frame is
    dropped; ``stats`` (when given) counts it.

    The walk itself reads one field per record, the captured length, and
    only until :data:`_RUN_RECORDS` records in a row repeat it (a snaplen
    capture is almost entirely such runs): from there the length fields of
    the records that *would* follow at that stride are compared in one
    strided view, and the records before the first mismatch are accepted at
    once.  Seconds, microseconds and lengths of every accepted header are
    then read with one byte gather.
    """
    if len(data) < _GLOBAL_HEADER.size:
        raise ValueError(f"{source} is not a valid pcap file (truncated header)")
    magic = struct.unpack("<I", data[:4])[0]
    if magic == PCAP_MAGIC:
        order = "<"
    elif magic == PCAP_MAGIC_SWAPPED:
        order = ">"
    else:
        raise ValueError(f"{source} is not a classic pcap file (magic {magic:#x})")

    field = np.dtype(order + "u4")
    captured_length_at = struct.Struct(order + "8xI").unpack_from
    header_size = _RECORD_HEADER.size
    end = len(data)
    position = _GLOBAL_HEADER.size
    accepted: List[np.ndarray] = []  # header positions, in file order
    loose: List[int] = []  # ... those walked one by one since the last run
    run_length, run_records, window = -1, 0, _RUN_WINDOW
    while position + header_size <= end:
        (captured_len,) = captured_length_at(data, position)
        stride = header_size + captured_len
        if position + stride > end:
            break
        loose.append(position)
        position += stride
        if captured_len != run_length:
            run_length, run_records, window = captured_len, 1, _RUN_WINDOW
            continue
        run_records += 1
        if run_records < _RUN_RECORDS:
            continue
        # ``ahead`` whole records fit before the end of the buffer, so the
        # view below never reads past it and whatever it accepts is complete
        ahead = min((end - position) // stride, window)
        if not ahead:
            continue
        lengths_ahead = np.ndarray(
            (ahead,), dtype=field, buffer=data, offset=position + 8, strides=(stride,)
        )
        differs = lengths_ahead != captured_len
        same = int(differs.argmax()) if differs.any() else ahead
        accepted.append(np.asarray(loose, dtype=np.int64))
        accepted.append(position + stride * np.arange(same, dtype=np.int64))
        loose = []
        position += stride * same
        # on a mismatch the walk resumes at the record that differs, which
        # starts a new run (and a first window) of its own
        if same == window:
            window *= 4
    accepted.append(np.asarray(loose, dtype=np.int64))
    positions = np.concatenate(accepted)
    if stats is not None:
        stats.n_records += positions.size
        if position < end:
            # trailing bytes form a record cut off mid-header or mid-frame
            stats.truncated_records += 1
    # seconds, microseconds, captured length: the first 12 bytes of each header
    header_bytes = np.frombuffer(data, dtype=np.uint8)[positions[:, None] + np.arange(12)]
    fields = header_bytes.view(field)
    timestamps = fields[:, 0].astype(float) + fields[:, 1].astype(float) / 1_000_000
    return timestamps, positions + header_size, fields[:, 2].astype(np.int64)


def _u32_to_ip(value: int) -> str:
    return f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def read_pcap_columns(
    path: Union[str, Path],
    client_ip: Optional[str] = None,
    stats: Optional[ParseStats] = None,
) -> PacketColumns:
    """Read a classic PCAP file straight into a :class:`PacketColumns` batch.

    Every Ethernet/IPv4/UDP header field of every record is extracted with
    vectorised byte gathers over the capture buffer — nothing is decoded
    one packet at a time.  Only
    Ethernet/IPv4/UDP frames are decoded; other frames are skipped.

    Parameters
    ----------
    client_ip:
        IP address of the game client; packets sourced from it are labeled
        upstream, everything else downstream.  When omitted, the endpoint
        receiving the most payload bytes is assumed to be the client (ties
        break toward the address seen earliest).
    stats:
        Optional :class:`ParseStats` accumulating skip/repair counters; on a
        well-formed capture of UDP traffic it ends with
        ``n_decoded == n_records`` and every other counter zero.

    Returns
    -------
    PacketColumns
        One row per decodable UDP frame, in file (capture) order:
        ``timestamps`` float64 seconds, ``payload_sizes`` float64 (UDP
        payload bytes), ``directions`` int8, int64 ``rtp_*`` columns with
        :data:`~repro.net.packet.RTP_NONE` for non-RTP rows (``None`` when
        no row carries RTP), and per-row transport 5-tuples in ``addresses``.
    """
    path = Path(path)
    data = path.read_bytes()
    timestamps, offsets, lengths = _scan_records(data, source=str(path), stats=stats)
    client_u32 = (
        None if client_ip is None else _ip_to_u32(client_ip)
    )
    block, _ = _decode_records(
        data, timestamps, offsets, lengths, client_u32, stats=stats
    )
    return block.rows(0, block.keep.size)


def _decode_records(
    data: bytes,
    timestamps: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    client_u32: Optional[int] = None,
    stats: Optional[ParseStats] = None,
):
    """Vectorised Ethernet/IPv4/UDP/RTP decode of a span of capture records.

    The decode core shared by :func:`read_pcap_columns` (whole capture) and
    :func:`iter_pcap_column_batches` (read-ahead blocks).  Returns
    ``(block, client_u32)``; when ``client_u32`` is ``None`` the client is
    inferred from *these* records (most payload bytes received,
    earliest-seen tie-break) and the inferred value is returned so chunked
    callers can pin it for subsequent blocks.  Undecodable records are
    skipped, each under exactly one ``stats`` counter when given.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n_bytes = buf.size

    def gather(byte_offsets: np.ndarray) -> np.ndarray:
        """Byte values at ``byte_offsets``, clamped in-range (int64).

        Clamping keeps gathers for frames that fail an earlier validity
        check in bounds; those rows are discarded by the final mask.
        """
        return buf[np.minimum(byte_offsets, n_bytes - 1)].astype(np.int64)

    # staged validity masks: a record failing stage N is charged to that
    # stage's counter alone, so every skip has exactly one reason
    minimum_frame = _ETH_HEADER_LEN + _IPV4_MIN_HEADER_LEN + _UDP_HEADER_LEN
    long_enough = lengths >= minimum_frame
    ethertype = (gather(offsets + 12) << 8) | gather(offsets + 13)
    ipv4 = long_enough & (ethertype == _ETHERTYPE_IPV4)
    ip_start = offsets + _ETH_HEADER_LEN
    ihl = (gather(ip_start) & 0x0F) * 4
    udp = ipv4 & (gather(ip_start + 9) == _IPPROTO_UDP)
    # a corrupt IHL would misplace every later field, silently decoding
    # garbage ports/payloads: require a sane header that fits the frame
    sane_ip = udp & (ihl >= _IPV4_MIN_HEADER_LEN)
    src_u32 = (
        (gather(ip_start + 12) << 24)
        | (gather(ip_start + 13) << 16)
        | (gather(ip_start + 14) << 8)
        | gather(ip_start + 15)
    )
    dst_u32 = (
        (gather(ip_start + 16) << 24)
        | (gather(ip_start + 17) << 16)
        | (gather(ip_start + 18) << 8)
        | gather(ip_start + 19)
    )
    udp_start = ip_start + ihl
    sane_ip &= lengths >= _ETH_HEADER_LEN + ihl + _UDP_HEADER_LEN
    src_ports = (gather(udp_start) << 8) | gather(udp_start + 1)
    dst_ports = (gather(udp_start + 2) << 8) | gather(udp_start + 3)
    udp_lengths = (gather(udp_start + 4) << 8) | gather(udp_start + 5)
    # a UDP length below its own header size is a mangled datagram, not an
    # empty one — skip it rather than clamp it to a zero-payload row
    ok = sane_ip & (udp_lengths >= _UDP_HEADER_LEN)
    payload_sizes = np.maximum(0, udp_lengths - _UDP_HEADER_LEN)

    payload_start = udp_start + _UDP_HEADER_LEN
    payload_avail = offsets + lengths - payload_start
    first_byte = gather(payload_start)
    rtp_version_bits = (first_byte >> 6) == RTP_VERSION
    is_rtp = ok & (payload_avail >= 12) & rtp_version_bits
    rtp_payload_type = np.where(is_rtp, gather(payload_start + 1) & 0x7F, RTP_NONE)
    rtp_sequence = np.where(
        is_rtp, (gather(payload_start + 2) << 8) | gather(payload_start + 3), RTP_NONE
    )
    rtp_timestamp = np.where(
        is_rtp,
        (gather(payload_start + 4) << 24)
        | (gather(payload_start + 5) << 16)
        | (gather(payload_start + 6) << 8)
        | gather(payload_start + 7),
        RTP_NONE,
    )
    rtp_ssrc = np.where(
        is_rtp,
        (gather(payload_start + 8) << 24)
        | (gather(payload_start + 9) << 16)
        | (gather(payload_start + 10) << 8)
        | gather(payload_start + 11),
        RTP_NONE,
    )

    if stats is not None:
        stats.n_decoded += int(np.count_nonzero(ok))
        stats.short_frames += int(np.count_nonzero(~long_enough))
        stats.non_ipv4 += int(np.count_nonzero(long_enough & ~ipv4))
        stats.non_udp += int(np.count_nonzero(ipv4 & ~udp))
        stats.bad_ip_header += int(np.count_nonzero(udp & ~sane_ip))
        stats.bad_udp_length += int(np.count_nonzero(sane_ip & ~ok))
        stats.malformed_rtp += int(
            np.count_nonzero(ok & rtp_version_bits & (payload_avail >= 1) & ~is_rtp)
        )

    keep = np.flatnonzero(ok)
    timestamps = timestamps[keep]
    payload_sizes = payload_sizes[keep].astype(float)
    src_u32, dst_u32 = src_u32[keep], dst_u32[keep]
    src_ports, dst_ports = src_ports[keep], dst_ports[keep]
    is_rtp = is_rtp[keep]

    if client_u32 is None:
        client_u32 = _infer_client_u32(dst_u32, payload_sizes)
    directions = np.where(src_u32 == client_u32, UPSTREAM_CODE, DOWNSTREAM_CODE).astype(
        np.int8
    )

    addresses, addressed, flow_ids, flow_keys = _address_tuples(
        src_u32, dst_u32, src_ports, dst_ports, directions
    )
    columns = PacketColumns(
        timestamps=timestamps,
        payload_sizes=payload_sizes,
        directions=directions,
        rtp_payload_type=rtp_payload_type[keep],
        rtp_ssrc=rtp_ssrc[keep],
        rtp_sequence=rtp_sequence[keep],
        rtp_timestamp=rtp_timestamp[keep],
        addresses=addresses,
    )
    columns.flow_ids, columns.flow_keys = flow_ids, flow_keys
    return _DecodedBlock(columns, keep, is_rtp, addressed), client_u32


class _DecodedBlock:
    """The decoded rows of a run of capture records, sliceable per batch.

    ``columns`` carries every optional column in full; :meth:`rows` applies
    the per-batch column layout (which columns are ``None``) from running
    counts, so cutting a batch out of a block costs slices only.
    """

    __slots__ = ("columns", "keep", "_rtp_before", "_addressed_before")

    def __init__(
        self,
        columns: PacketColumns,
        keep: np.ndarray,
        is_rtp: np.ndarray,
        addressed: np.ndarray,
    ) -> None:
        self.columns = columns
        #: indices (into the decoded run) of the records that became rows
        self.keep = keep
        self._rtp_before = np.concatenate(([0], np.cumsum(is_rtp)))
        self._addressed_before = np.concatenate(([0], np.cumsum(addressed)))

    def rows(self, start: int, stop: int) -> PacketColumns:
        """Rows ``[start, stop)`` as zero-copy views of the block's columns.

        The RTP columns are ``None`` when no row of the window carries RTP
        and ``addresses`` is ``None`` when every row carries the default
        address — the layout a decode of just these rows would produce.
        """
        batch = self.columns.slice_view(start, stop)
        if self._rtp_before[stop] == self._rtp_before[start]:
            batch.rtp_payload_type = batch.rtp_ssrc = None
            batch.rtp_sequence = batch.rtp_timestamp = None
        if self._addressed_before[stop] == self._addressed_before[start]:
            batch.addresses = None
        return batch


def iter_pcap_column_batches(
    path: Union[str, Path],
    batch_packets: int = 50_000,
    batch_seconds: Optional[float] = None,
    client_ip: Optional[str] = None,
    stats: Optional[ParseStats] = None,
):
    """Decode a capture into successive :class:`PacketColumns` batches.

    A live-feed adapter for the streaming runtime: the capture's record
    headers are scanned once, then records decode lazily in read-ahead
    blocks of about :data:`_BLOCK_RECORDS` records (whole batches only; a
    batch larger than that is its own block) with the same vectorised byte
    gathers as :func:`read_pcap_columns`, and every batch is a zero-copy row
    slice of its block — decode cost is paid per record, not per batch, and
    a multi-gigabyte capture never materialises as one batch.
    Concatenating every yielded batch reproduces :func:`read_pcap_columns`
    of the whole file exactly (given the same ``client_ip``).

    Parameters
    ----------
    batch_packets:
        Records per batch (ignored when ``batch_seconds`` is given).
    batch_seconds:
        Split batches on capture-time boundaries instead of record counts
        (assumes the usual capture-order, non-decreasing timestamps; where
        they do decrease, batch boundaries never move backwards, so every
        record still decodes exactly once).
    client_ip:
        IP address of the game client.  When omitted it is inferred from the
        *first* batch (the whole-file reader infers from all records; supply
        it explicitly when the capture opens with unrepresentative traffic).
    stats:
        Optional :class:`ParseStats`; skip counters accumulate block by
        block as records decode (truncation is counted up front by the scan).
    """
    if batch_packets <= 0:
        raise ValueError(f"batch_packets must be positive, got {batch_packets}")
    if batch_seconds is not None and batch_seconds <= 0:
        raise ValueError(f"batch_seconds must be positive, got {batch_seconds}")
    path = Path(path)
    data = path.read_bytes()
    timestamps, offsets, lengths = _scan_records(data, source=str(path), stats=stats)
    n_records = timestamps.size
    client_u32 = (
        None if client_ip is None else _ip_to_u32(client_ip)
    )
    if n_records == 0:
        return
    if batch_seconds is None:
        starts = np.arange(batch_packets, n_records, batch_packets)
    else:
        # the time bucket of each record, from the record itself — a capture
        # clock that jumps by years costs one boundary, not an edge per
        # elapsed ``batch_seconds``.  Bucket k starts at the edge
        # ``origin + batch_seconds * k``; the quotient's floor can miss by
        # one next to an edge, so it is settled against that very expression
        origin = float(timestamps[0])
        bucket = np.floor((timestamps - origin) / batch_seconds)
        bucket -= origin + batch_seconds * bucket > timestamps
        bucket += origin + batch_seconds * (bucket + 1) <= timestamps
        # a new batch starts where the furthest bucket seen so far advances
        bucket = np.maximum.accumulate(bucket)
        starts = np.flatnonzero(bucket[1:] > bucket[:-1]) + 1
    # record index where each non-empty batch starts, plus the end of file
    bounds = np.concatenate(([0], starts, [n_records]))
    first = 0
    while first < bounds.size - 1:
        start = int(bounds[first])
        last_bound = first + 1
        if client_u32 is not None:  # else: inferred from the first batch alone
            block_end = np.searchsorted(bounds, start + _BLOCK_RECORDS, side="right")
            last_bound = max(last_bound, int(block_end) - 1)
        span = slice(start, int(bounds[last_bound]))
        block, client_u32 = _decode_records(
            data, timestamps[span], offsets[span], lengths[span], client_u32,
            stats=stats,
        )
        # record bounds -> row bounds through the block's kept-record index
        cuts = np.searchsorted(
            block.keep, bounds[first : last_bound + 1] - start
        ).tolist()
        for row_start, row_stop in zip(cuts[:-1], cuts[1:]):
            if row_stop > row_start:
                yield block.rows(row_start, row_stop)
        first = last_bound


def _infer_client_u32(dst_u32: np.ndarray, payload_sizes: np.ndarray) -> int:
    """Guess the client address (integer-coded): the busiest receiver.

    The endpoint receiving the most payload bytes wins; ties break toward
    the destination seen earliest in the capture.
    """
    if dst_u32.size == 0:
        return 0
    unique, first_seen, inverse = np.unique(
        dst_u32, return_index=True, return_inverse=True
    )
    received = np.bincount(inverse, weights=payload_sizes)
    candidates = np.flatnonzero(received == received.max())
    winner = candidates[np.argmin(first_seen[candidates])]
    return int(unique[winner])


def _address_tuples(
    src_u32: np.ndarray,
    dst_u32: np.ndarray,
    src_ports: np.ndarray,
    dst_ports: np.ndarray,
    directions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Per-row transport 5-tuples, interned per distinct flow, and flow ids.

    String formatting happens once per distinct ``(src, dst, sport, dport)``
    combination (a handful of flows in a capture), then rows are assigned by
    inverse indices.  Returns ``(addresses, addressed, flow_ids,
    flow_keys)``; ``addressed`` marks the rows that carry anything but the
    default address (a batch with none has no address column, the layout
    the generators produce), and ``flow_ids`` index
    ``flow_keys``, the distinct canonical keys of the tuples.  A tuple's
    direction follows from its source address, so no tuple carries both
    codes and the demux may order flows by first row.
    """
    if src_u32.size == 0:
        return np.empty(0, dtype=object), np.zeros(0, dtype=bool), flow_id_column([], 0), ()
    # two 1-D sorts instead of one row-wise sort over four columns: rank the
    # address pairs first (the shift wraps into the sign bit, which keeps
    # distinct pairs distinct), then the rank fits one int64 with the ports
    _, endpoints = np.unique((src_u32 << 32) | dst_u32, return_inverse=True)
    _, first_rows, inverse = np.unique(
        (endpoints << 32) | (src_ports << 16) | dst_ports,
        return_index=True,
        return_inverse=True,
    )
    tuples = np.empty(first_rows.size, dtype=object)
    addressed = np.ones(first_rows.size, dtype=bool)
    numbers: Dict[FlowKey, int] = {}
    flow_of_tuple = []
    for index, row in enumerate(first_rows.tolist()):
        tuples[index] = (
            _u32_to_ip(int(src_u32[row])),
            _u32_to_ip(int(dst_u32[row])),
            int(src_ports[row]),
            int(dst_ports[row]),
            "udp",
        )
        addressed[index] = tuples[index] != DEFAULT_ADDRESS
        key = canonical_flow_key(tuples[index], int(directions[row]))
        flow_of_tuple.append(numbers.setdefault(key, len(numbers)))
    flow_ids = flow_id_column(flow_of_tuple, len(numbers))[inverse]
    return tuples[inverse], addressed[inverse], flow_ids, tuple(numbers)


def read_pcap_stream(
    path: Union[str, Path],
    client_ip: Optional[str] = None,
    stats: Optional[ParseStats] = None,
) -> PacketStream:
    """Read a PCAP file into a time-sorted :class:`PacketStream`.

    Convenience wrapper over :func:`read_pcap_columns` (same parameters).
    """
    return PacketStream.from_columns(
        read_pcap_columns(path, client_ip=client_ip, stats=stats)
    )
