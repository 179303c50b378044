"""Classic libpcap file reading and writing.

The lab methodology of the paper captures sessions with Wireshark/TCPdump
into PCAP files (§3.1).  This module implements the classic libpcap container
(magic ``0xa1b2c3d4``, microsecond timestamps) plus minimal Ethernet/IPv4/UDP
encapsulation so that synthetic sessions can be round-tripped through real
PCAP bytes and, conversely, real captures of RTP/UDP traffic can be loaded
into :class:`~repro.net.packet.PacketStream` objects.

There is one reader: :func:`read_pcap_columns` (whole file),
:func:`iter_pcap_column_batches` (live-feed batches) and the
:func:`read_pcap_stream` wrapper decode capture records into
:class:`~repro.net.packet.PacketColumns` with vectorised header field
extraction (no per-packet :class:`Packet` objects), which keeps real-capture
ingestion on the same batch substrate as the synthetic generators.

The reader tolerates hostile input — truncated records, short frames, wrong
link-layer/IP lengths, mangled RTP — by skipping (or, for RTP, demoting to
non-RTP columns) rather than raising; pass a :class:`ParseStats` to account
every skipped record by reason.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    Packet,
    PacketColumns,
    PacketStream,
    RTP_NONE,
    UPSTREAM_CODE,
)
from repro.net.rtp import RTPHeader, RTP_VERSION

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


def _ip_to_bytes(ip: str) -> bytes:
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {ip!r}")
    try:
        values = [int(part) for part in parts]
    except ValueError as exc:
        raise ValueError(f"invalid IPv4 address {ip!r}") from exc
    if any(not 0 <= value <= 255 for value in values):
        raise ValueError(f"invalid IPv4 address {ip!r}")
    return bytes(values)


def _checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _encapsulate(packet: Packet, payload: bytes) -> bytes:
    """Wrap a payload in Ethernet/IPv4/UDP headers for the given packet."""
    eth = b"\x02" * 6 + b"\x04" * 6 + struct.pack("!H", _ETHERTYPE_IPV4)
    udp_length = _UDP_HEADER_LEN + len(payload)
    total_length = _IPV4_MIN_HEADER_LEN + udp_length
    ip_header_wo_checksum = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        total_length,
        0,
        0,
        64,
        _IPPROTO_UDP,
        0,
        _ip_to_bytes(packet.src_ip),
        _ip_to_bytes(packet.dst_ip),
    )
    checksum = _checksum(ip_header_wo_checksum)
    ip_header = ip_header_wo_checksum[:10] + struct.pack("!H", checksum) + ip_header_wo_checksum[12:]
    udp_header = struct.pack(
        "!HHHH", packet.src_port, packet.dst_port, udp_length, 0
    )
    return eth + ip_header + udp_header + payload


def _synthesise_payload(packet: Packet) -> bytes:
    """Produce payload bytes for a packet (RTP header + zero padding)."""
    if packet.rtp_ssrc is not None:
        header = RTPHeader(
            payload_type=packet.rtp_payload_type or 96,
            sequence_number=(packet.rtp_sequence or 0) & 0xFFFF,
            timestamp=(packet.rtp_timestamp or 0) & 0xFFFFFFFF,
            ssrc=packet.rtp_ssrc & 0xFFFFFFFF,
        )
        body_len = max(0, packet.payload_size - len(header.encode()))
        return header.encode() + bytes(body_len)
    return bytes(packet.payload_size)


def write_pcap(
    path: Union[str, Path],
    packets: Iterable[Packet],
    snaplen: int = 65535,
) -> int:
    """Write packets to a classic PCAP file.

    Returns the number of records written.  Packets are emitted in timestamp
    order regardless of input order.
    """
    path = Path(path)
    ordered = sorted(packets, key=lambda p: p.timestamp)
    with path.open("wb") as handle:
        handle.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                PCAP_VERSION_MAJOR,
                PCAP_VERSION_MINOR,
                0,
                0,
                snaplen,
                LINKTYPE_ETHERNET,
            )
        )
        for packet in ordered:
            frame = _encapsulate(packet, _synthesise_payload(packet))
            seconds = int(packet.timestamp)
            microseconds = int(round((packet.timestamp - seconds) * 1_000_000))
            if microseconds >= 1_000_000:
                seconds += 1
                microseconds -= 1_000_000
            captured = frame[:snaplen]
            handle.write(
                _RECORD_HEADER.pack(seconds, microseconds, len(captured), len(frame))
            )
            handle.write(captured)
    return len(ordered)


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
    vectorised byte gathers over the capture buffer — no per-packet
    :class:`Packet` (or RTP header) objects are built.  Only
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
        None if client_ip is None else int.from_bytes(_ip_to_bytes(client_ip), "big")
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

    addresses, addressed = _address_tuples(src_u32, dst_u32, src_ports, dst_ports)
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
        None if client_ip is None else int.from_bytes(_ip_to_bytes(client_ip), "big")
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
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row transport 5-tuples, interned per distinct flow.

    String formatting happens once per distinct ``(src, dst, sport, dport)``
    combination (a handful of flows in a capture), then rows are assigned by
    inverse indices.  Returns ``(addresses, addressed)``; ``addressed`` marks
    the rows that carry anything but the default address (a batch with none
    has no address column, the layout ``PacketStream(packets)`` produces).
    """
    if src_u32.size == 0:
        return np.empty(0, dtype=object), np.zeros(0, dtype=bool)
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
    for index, row in enumerate(first_rows.tolist()):
        tuples[index] = (
            _u32_to_ip(int(src_u32[row])),
            _u32_to_ip(int(dst_u32[row])),
            int(src_ports[row]),
            int(dst_ports[row]),
            "udp",
        )
        addressed[index] = tuples[index] != DEFAULT_ADDRESS
    return tuples[inverse], addressed[inverse]


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
