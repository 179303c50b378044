"""Seeded load generator for the end-to-end benchmark.

Everything the program under test sees is made here: the held-out replay
corpus, the title-stratified picks, the start offsets and the snaplen-64
capture of the tap workload.  Nothing in this file imports the runtime — it
produces inputs, the workloads consume them.

*What* a workload replays is part of its definition, like the model: one
held-out corpus, one pick.  ``--seed`` arranges it in time — the start
offsets, the order of the offline chunks.  A seed's own corpus differs from
another's by 7 % in packets and by a title miss or two, which moved
``pkt_per_s`` by 10-20 % and ``state_bytes_peak`` by 15 % between seeds; a
later change is accepted on runs of different seeds whose spread must stay
within each metric's bound, so the seed may not set the numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.net.packet import RTP_NONE, UPSTREAM_CODE, PacketColumns, PacketStream
from repro.simulation.catalog import GAME_TITLES
from repro.simulation.lab_dataset import generate_lab_dataset
from repro.simulation.session import DEFAULT_SERVER_PORT, GameSession

#: Shape shared by the training corpus and the held-out replay corpus.
CORPUS_SHAPE = {"sessions_per_title": 8, "gameplay_duration_s": 150.0, "rate_scale": 0.05}
#: The model is fitted on one seed's sessions and every run replays
#: another's, so no run ever replays a training session.
TRAIN_SEED = 13
REPLAY_SEED = 1007
CLIENT_PORT_BASE = 52000
SNAPLEN = 64

_ETH_IP_UDP = 14 + 20 + 8
_RTP_HEADER = 12


def training_corpus() -> List[GameSession]:
    """The labeled corpus the benchmark model is fitted on."""
    return generate_lab_dataset(random_state=TRAIN_SEED, **CORPUS_SHAPE).sessions


def replay_corpus(titles=None) -> List[GameSession]:
    """13 titles x 8 held-out sessions, title by title (or those of ``titles``)."""
    return generate_lab_dataset(
        titles=titles, random_state=REPLAY_SEED, **CORPUS_SHAPE
    ).sessions


def stratified_pick(sessions: Sequence[GameSession], n: int) -> List[GameSession]:
    """``n`` sessions spread evenly over the catalog titles.

    Every title gives its first ``n // 13`` sessions, and titles evenly
    spaced through the catalog give one more until ``n`` are picked.
    """
    by_title: Dict[str, List[GameSession]] = {}
    for session in sessions:
        by_title.setdefault(session.title_name, []).append(session)
    names = [title.name for title in GAME_TITLES if title.name in by_title]
    base, extra = divmod(n, len(names))
    extra_at = {(k * len(names)) // extra for k in range(extra)} if extra else set()
    picked: List[GameSession] = []
    for index, name in enumerate(names):
        count = base + (index in extra_at)
        if count > len(by_title[name]):
            raise ValueError(f"{name}: {count} sessions wanted, {len(by_title[name])} held out")
        picked.extend(by_title[name][:count])
    return picked


def start_offsets(n: int, span_s: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` start offsets, each uniform in ``[0, span_s)``.

    The whole seconds are drawn independently; the sub-second phases are one
    draw from each of ``n`` equal strata, in random order.  A title gate
    opens at the end of the batch its window closes in, so the phases alone
    set ``title_delay_feed_s``: drawn independently, the median of 24 of them
    moves by 2.5 % from seed to seed, more than a change may move it.
    """
    whole = np.floor(rng.random(n) * span_s)
    phase = (rng.permutation(n) + rng.random(n)) / n
    return np.minimum(whole + phase, np.nextafter(span_s, 0.0))


def shift_session(session: GameSession, offset: float) -> GameSession:
    """``session`` with every packet ``offset`` seconds later.

    The shifted packets are what the feed replays *and* what the offline
    ground truth classifies, so close reports stay bit-comparable (a
    ``SessionFeed`` start offset would shift only the feed's copy).
    """
    columns = session.packets.columns()
    shifted = dataclasses.replace(columns, timestamps=columns.timestamps + offset)
    return dataclasses.replace(
        session, packets=PacketStream.from_columns(shifted, assume_sorted=True)
    )


def clip_session(session: GameSession, end: float) -> GameSession:
    """``session`` without the packets at or after feed time ``end``.

    A tap capture has a fixed length; sessions still running when it ends
    are cut there, and close at end of feed.
    """
    columns = session.packets.columns()
    keep = slice(0, int(np.searchsorted(columns.timestamps, end, side="left")))
    return dataclasses.replace(
        session, packets=PacketStream.from_columns(columns.take(keep), assume_sorted=True)
    )


def inputs_digest(sessions: Sequence[GameSession], extra: bytes = b"") -> str:
    """SHA-256 over every generated packet column (and ``extra`` bytes)."""
    hasher = hashlib.sha256()
    for session in sessions:
        columns = session.packets.columns()
        hasher.update(session.title_name.encode())
        for column in (
            columns.timestamps,
            columns.payload_sizes,
            columns.directions,
            columns.rtp_payload_type,
            columns.rtp_ssrc,
            columns.rtp_sequence,
            columns.rtp_timestamp,
        ):
            if column is not None:
                hasher.update(np.ascontiguousarray(column).tobytes())
    hasher.update(extra)
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# column-wise capture writer
# ---------------------------------------------------------------------------
def _ip_u32(ip: str) -> int:
    a, b, c, d = (int(part) for part in ip.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def quantise_us(timestamps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split float seconds into pcap ``(seconds, microseconds)`` columns."""
    seconds = np.floor(timestamps).astype(np.int64)
    micros = np.rint((timestamps - seconds) * 1_000_000).astype(np.int64)
    carry = micros >= 1_000_000
    return seconds + carry, np.where(carry, micros - 1_000_000, micros)


def capture_bytes(sessions: Sequence[GameSession]) -> bytes:
    """One interleaved classic-pcap capture of ``sessions``, built by column.

    Ethernet/IPv4/UDP framing with a valid IPv4 checksum, RTP headers where
    the session has them and they fit, zero payload bodies, ``SNAPLEN`` bytes captured
    per frame, records in timestamp order.  Session ``i`` keeps its own
    addresses except the client port, which becomes ``CLIENT_PORT_BASE + i``
    so the flows stay distinct behind one client IP.  ``repro.net.write_pcap``
    builds one ``Packet`` object and several ``struct.pack`` calls per
    record; this writes each header byte of all records in one assignment.
    """
    parts = [session.packets.columns() for session in sessions]
    sizes = [len(part) for part in parts]
    merged = PacketColumns.concat(parts)
    flow = np.repeat(np.arange(len(sessions)), sizes)
    order = np.argsort(merged.timestamps, kind="stable")
    merged, flow = merged.take(order), flow[order]
    n = len(merged)

    payload = merged.payload_sizes.astype(np.int64)
    frame_len = _ETH_IP_UDP + payload
    captured = np.minimum(frame_len, SNAPLEN)
    record_len = 16 + captured
    starts = 24 + np.concatenate(([0], np.cumsum(record_len)[:-1]))
    buf = np.zeros(24 + int(record_len.sum()), dtype=np.uint8)
    buf[:24] = np.frombuffer(
        np.array([0xA1B2C3D4, 2 | (4 << 16), 0, 0, SNAPLEN, 1], dtype="<u4").tobytes(),
        dtype=np.uint8,
    )

    def put(at: np.ndarray, values: np.ndarray, width: int, little: bool = False) -> None:
        """Write ``values`` as ``width``-byte integers at byte positions ``at``."""
        for byte in range(width):
            shift = 8 * (byte if little else width - 1 - byte)
            buf[at + byte] = (values >> shift) & 0xFF

    seconds, micros = quantise_us(merged.timestamps)
    put(starts, seconds, 4, little=True)
    put(starts + 4, micros, 4, little=True)
    put(starts + 8, captured, 4, little=True)
    put(starts + 12, frame_len, 4, little=True)

    eth = starts + 16
    buf[eth[:, None] + np.arange(6)] = 0x02
    buf[eth[:, None] + 6 + np.arange(6)] = 0x04
    put(eth + 12, np.full(n, 0x0800), 2)

    up = merged.directions == UPSTREAM_CODE
    client = np.array([_ip_u32(s.client_ip) for s in sessions], dtype=np.int64)[flow]
    server = np.array([_ip_u32(s.server_ip) for s in sessions], dtype=np.int64)[flow]
    src_ip, dst_ip = np.where(up, client, server), np.where(up, server, client)
    client_port = CLIENT_PORT_BASE + flow
    server_port = np.full(n, DEFAULT_SERVER_PORT)
    ip = eth + 14
    udp_len = 8 + payload
    total_len = 20 + udp_len
    ttl_proto = np.full(n, (64 << 8) | 17)
    put(ip, np.full(n, 0x4500), 2)
    put(ip + 2, total_len, 2)
    put(ip + 8, ttl_proto, 2)
    put(ip + 12, src_ip, 4)
    put(ip + 16, dst_ip, 4)
    # RFC 1071 ones-complement sum of the ten header words (checksum word 0)
    words = (
        0x4500 + total_len + ttl_proto
        + (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) + (dst_ip & 0xFFFF)
    )
    words = (words & 0xFFFF) + (words >> 16)
    words = (words & 0xFFFF) + (words >> 16)
    put(ip + 10, ~words & 0xFFFF, 2)

    udp = ip + 20
    put(udp, np.where(up, client_port, server_port), 2)
    put(udp + 2, np.where(up, server_port, client_port), 2)
    put(udp + 4, udp_len, 2)

    if merged.rtp_ssrc is not None:
        # a datagram too short to hold an RTP header is written as plain UDP,
        # which keeps its payload size (write_pcap pads it to 12 bytes instead)
        rows = np.flatnonzero((merged.rtp_ssrc != RTP_NONE) & (payload >= _RTP_HEADER))
        rtp = udp[rows] + 8
        buf[rtp] = 0x80
        buf[rtp + 1] = merged.rtp_payload_type[rows] & 0x7F
        put(rtp + 2, merged.rtp_sequence[rows], 2)
        put(rtp + 4, merged.rtp_timestamp[rows], 4)
        put(rtp + 8, merged.rtp_ssrc[rows], 4)
    return buf.tobytes()


def write_capture(path: Path, sessions: Sequence[GameSession]) -> bytes:
    """Write :func:`capture_bytes` to ``path``; returns the bytes written."""
    data = capture_bytes(sessions)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return data
