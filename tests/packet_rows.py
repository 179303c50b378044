"""Hand-written packet rows, turned into the columns the library takes.

The library has no per-packet record: every producer builds columns.  A test
that spells out a few packets one by one writes them as :class:`PacketRow`
tuples and hands the list to :func:`columns_of` or :func:`stream_of`.
"""

from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    RTP_NONE,
    UPSTREAM_CODE,
    Direction,
    PacketColumns,
    PacketStream,
)

RTP_FIELDS = ("rtp_payload_type", "rtp_ssrc", "rtp_sequence", "rtp_timestamp")


class PacketRow(NamedTuple):
    """One packet: a row of :class:`PacketColumns`, spelled out field by field."""

    timestamp: float
    direction: Direction
    payload_size: int
    src_ip: str = "0.0.0.0"
    dst_ip: str = "0.0.0.0"
    src_port: int = 0
    dst_port: int = 0
    protocol: str = "udp"
    rtp_payload_type: Optional[int] = None
    rtp_ssrc: Optional[int] = None
    rtp_sequence: Optional[int] = None
    rtp_timestamp: Optional[int] = None


def columns_of(rows: Iterable[PacketRow]) -> PacketColumns:
    """``rows`` as one batch, in their order.

    The RTP columns exist when any row sets an RTP field (:data:`RTP_NONE`
    where a row does not), and the address column when any row has other
    than the default address.  Each distinct address is one tuple object,
    the layout the generators and the PCAP reader produce.
    """
    rows = list(rows)
    rtp_columns = {}
    if any(value is not None for row in rows for value in row[8:]):
        rtp = np.array(
            [[RTP_NONE if value is None else value for value in row[8:]] for row in rows],
            dtype=np.int64,
        )
        rtp_columns = {name: rtp[:, k].copy() for k, name in enumerate(RTP_FIELDS)}
    interned: dict = {}
    addresses = np.empty(len(rows), dtype=object)
    for index, row in enumerate(rows):
        addresses[index] = interned.setdefault(row[3:8], row[3:8])
    return PacketColumns(
        timestamps=[row.timestamp for row in rows],
        payload_sizes=[row.payload_size for row in rows],
        directions=[
            UPSTREAM_CODE if row.direction is Direction.UPSTREAM else DOWNSTREAM_CODE
            for row in rows
        ],
        addresses=addresses if set(interned) - {DEFAULT_ADDRESS} else None,
        **rtp_columns,
    )


def stream_of(rows: Iterable[PacketRow]) -> PacketStream:
    """The time-sorted stream of ``rows``."""
    return PacketStream(columns_of(rows))
