"""Live feed sources for the streaming runtime.

A *live feed* is any iterable of :class:`~repro.net.packet.PacketColumns`
batches; a feed may additionally expose ``flow_contexts`` (a mapping of
:class:`~repro.net.flow.FlowKey` to
:class:`~repro.runtime.state.FlowContext`) to hand the engine out-of-band
knowledge about its flows.  Two sources ship here:

* :class:`SessionFeed` — replays generated :class:`GameSession` corpora as
  an interleaved packet feed, the runtime counterpart of the simulators'
  array-emitting generators.  Each session gets a unique client endpoint so
  the demux separates concurrent sessions, and its ``flow_contexts`` carry
  the platform / ``rate_scale`` a :class:`GameSession` input to offline
  ``process()`` would imply — which is what the streaming-vs-offline
  equivalence tests pin.
* :func:`pcap_feed` — chunked real-capture replay on top of
  :func:`repro.net.pcap.iter_pcap_column_batches`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.net.flow import FlowKey, canonical_flow_key
from repro.net.packet import (
    DOWNSTREAM_CODE,
    PacketColumns,
    UPSTREAM_CODE,
    flow_id_column,
)
from repro.net.pcap import iter_pcap_column_batches
from repro.runtime.state import FlowContext
from repro.simulation.session import GameSession

__all__ = ["SessionFeed", "pcap_feed"]

#: Platform reported by offline ``process(GameSession)`` for synthetic sessions.
_SESSION_PLATFORM = "GeForce NOW"


class SessionFeed:
    """Replay a corpus of generated sessions as one interleaved live feed.

    Parameters
    ----------
    sessions:
        The sessions to replay concurrently (all start at feed time 0 unless
        ``start_offsets`` staggers them).
    batch_seconds:
        Feed granularity: one batch spans this many seconds of feed time.
    client_port_base:
        Each session is re-addressed to a unique client port
        (``base + index``) so concurrent sessions demultiplex into distinct
        flows; all other packet fields are untouched, so a session's
        reassembled stream is value-identical to ``session.packets``.
    start_offsets:
        Optional per-session start times (seconds).  Offsets shift the
        packet timestamps, so an offset session's runtime report is no
        longer bit-comparable to offline ``process(session)`` — use 0 (the
        default) for equivalence testing, offsets for load realism.
    shuffle_within_batch:
        Randomly permute the rows of every batch (packets of all sessions
        interleave out of order, as after a multi-queue NIC); the engine's
        stable time sort restores per-flow order at close.
    random_state:
        Seed for ``shuffle_within_batch``.
    regions:
        Optional per-session serving-region tags, carried on each flow's
        :class:`FlowContext` for the fleet analytics tier; untagged
        sessions fold under the aggregator's default region.
    """

    def __init__(
        self,
        sessions: Sequence[GameSession],
        batch_seconds: float = 1.0,
        client_port_base: int = 52000,
        start_offsets: Optional[Sequence[float]] = None,
        shuffle_within_batch: bool = False,
        random_state: Optional[int] = None,
        regions: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if not sessions:
            raise ValueError("sessions must not be empty")
        if batch_seconds <= 0:
            raise ValueError(f"batch_seconds must be positive, got {batch_seconds}")
        if start_offsets is not None and len(start_offsets) != len(sessions):
            raise ValueError(
                f"{len(sessions)} sessions but {len(start_offsets)} start offsets"
            )
        if regions is not None and len(regions) != len(sessions):
            raise ValueError(
                f"{len(sessions)} sessions but {len(regions)} regions"
            )
        self.batch_seconds = batch_seconds
        self._shuffle = shuffle_within_batch
        self._rng = np.random.default_rng(random_state)
        self.flow_contexts: Dict[FlowKey, FlowContext] = {}
        self._columns: List[PacketColumns] = []
        numbers: Dict[FlowKey, int] = {}
        flows: List[int] = []

        for index, session in enumerate(sessions):
            offset = float(start_offsets[index]) if start_offsets is not None else 0.0
            columns = session.packets.columns()
            n = len(columns)
            client_port = client_port_base + index
            down_address = (
                session.server_ip,
                session.client_ip,
                _server_port(columns, session),
                client_port,
                "udp",
            )
            up_address = (
                session.client_ip,
                session.server_ip,
                client_port,
                _server_port(columns, session),
                "udp",
            )
            addresses = np.empty(n, dtype=object)
            addresses.fill(down_address)
            up_rows = np.flatnonzero(columns.directions == UPSTREAM_CODE)
            if up_rows.size:
                filler = np.empty(up_rows.size, dtype=object)
                filler.fill(up_address)
                addresses[up_rows] = filler
            timestamps = (
                columns.timestamps if offset == 0.0 else columns.timestamps + offset
            )
            self._columns.append(
                PacketColumns(
                    timestamps=timestamps,
                    payload_sizes=columns.payload_sizes,
                    directions=columns.directions,
                    rtp_payload_type=columns.rtp_payload_type,
                    rtp_ssrc=columns.rtp_ssrc,
                    rtp_sequence=columns.rtp_sequence,
                    rtp_timestamp=columns.rtp_timestamp,
                    addresses=addresses,
                )
            )
            key = canonical_flow_key(down_address, DOWNSTREAM_CODE)
            flows.append(numbers.setdefault(key, len(numbers)))
            self.flow_contexts[key] = FlowContext(
                platform=_SESSION_PLATFORM,
                rate_scale=session.rate_scale,
                region=regions[index] if regions is not None else None,
            )
        # every session's flow id, interned once here rather than per tick
        keys = tuple(numbers)
        for columns, flow in zip(self._columns, flows):
            columns.flow_ids = flow_id_column(np.full(len(columns), flow), len(keys))
            columns.flow_keys = keys

    def __iter__(self) -> Iterator[PacketColumns]:
        starts = [float(c.timestamps[0]) for c in self._columns if len(c)]
        ends = [float(c.timestamps[-1]) for c in self._columns if len(c)]
        if not starts:
            return
        feed_time = min(starts)
        feed_end = max(ends)
        while feed_time <= feed_end:
            window_end = feed_time + self.batch_seconds
            parts = []
            for columns in self._columns:
                lo = int(np.searchsorted(columns.timestamps, feed_time, side="left"))
                hi = int(np.searchsorted(columns.timestamps, window_end, side="left"))
                if hi > lo:
                    parts.append(columns.take(slice(lo, hi)))
            if parts:
                batch = PacketColumns.concat(parts)
                if self._shuffle and len(batch) > 1:
                    batch = batch.take(self._rng.permutation(len(batch)))
                yield batch
            feed_time = window_end


def _server_port(columns: PacketColumns, session: GameSession) -> int:
    """The session's server port, read from its first packet's address."""
    if columns.addresses is not None and len(columns):
        address = columns.addresses[0]
        # downstream rows carry (server, client); upstream the reverse
        if columns.directions[0] == DOWNSTREAM_CODE:
            return int(address[2])
        return int(address[3])
    return 49004  # GeForce NOW default used by the session generator


def pcap_feed(
    path,
    batch_seconds: Optional[float] = None,
    batch_packets: int = 50_000,
    client_ip: Optional[str] = None,
) -> Iterator[PacketColumns]:
    """Chunked PCAP replay: a live feed over a real capture file.

    Thin wrapper over :func:`repro.net.pcap.iter_pcap_column_batches` (see
    its docstring for client inference caveats).
    """
    return iter_pcap_column_batches(
        path,
        batch_packets=batch_packets,
        batch_seconds=batch_seconds,
        client_ip=client_ip,
    )
