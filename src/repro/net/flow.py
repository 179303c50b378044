"""Flow assembly: grouping packets into bidirectional 5-tuple flows.

The cloud-gaming packet filter (Fig. 6, left box) operates on flows rather
than individual packets: a game streaming session appears as one long-lived
bidirectional UDP/RTP flow between the client and a cloud GPU server.

The first thing the deployed probe does with a packet batch is route every
row to its bidirectional flow.  :class:`FlowDemux` does that on the columnar
substrate: distinct transport addresses are factorised with one vectorised
``id()`` gather (generator- and PCAP-produced batches intern one tuple
object per flow and direction, so identity grouping touches Python once per
*distinct* address, not per packet), each group splits by direction code,
and both directions of a conversation canonicalise to the same
:class:`FlowKey`.

Row order within a flow is preserved (sub-batches keep the original batch
positions), which is what lets the per-session accumulators reproduce the
offline stream exactly after one stable time sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    UPSTREAM_CODE,
    Direction,
    PacketColumns,
    PacketStream,
)

_ID_OF = np.frompyfunc(id, 1, 1)
#: Entries (two per flow) at which the canonical-key cache starts over; a
#: probe that runs for hours sees far more flows than are ever live at once.
_CANONICAL_CACHE_ENTRIES = 1 << 16


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Canonical (direction-agnostic) 5-tuple identifying a flow.

    The key always stores the client endpoint first so that both directions
    of a conversation map to the same key.
    """

    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    protocol: str = "udp"


def flow_addresses(key: FlowKey) -> Tuple[tuple, tuple]:
    """The ``(upstream, downstream)`` address tuples of a canonical key.

    Exact inverse of :func:`canonical_flow_key`: an upstream packet's
    columnar address is ``(client_ip, server_ip, client_port, server_port,
    protocol)`` and a downstream packet's is the endpoint-swapped tuple, so
    a flow's per-row addresses are fully recoverable from its key plus the
    direction column.  The shared-memory data plane (DESIGN.md §12) uses
    this to rebuild the object-dtype address column worker-side instead of
    shipping Python tuples through the ring.
    """
    upstream = (
        key.client_ip, key.server_ip, key.client_port, key.server_port, key.protocol,
    )
    downstream = (
        key.server_ip, key.client_ip, key.server_port, key.client_port, key.protocol,
    )
    return upstream, downstream


def canonical_flow_key(address: tuple, direction_code: int) -> FlowKey:
    """Canonical (client-first) flow key of an address tuple + direction.

    ``address`` is the columnar ``(src_ip, dst_ip, src_port, dst_port,
    protocol)`` tuple; upstream packets have the client as source.
    """
    if direction_code == UPSTREAM_CODE:
        return FlowKey(
            client_ip=address[0],
            client_port=address[2],
            server_ip=address[1],
            server_port=address[3],
            protocol=address[4],
        )
    return FlowKey(
        client_ip=address[1],
        client_port=address[3],
        server_ip=address[0],
        server_port=address[2],
        protocol=address[4],
    )


class FlowDemux:
    """Stateful batch demultiplexer (a bounded canonical-key cache persists)."""

    def __init__(self) -> None:
        self._canonical: Dict[Tuple[tuple, int], FlowKey] = {}

    def _key_for(self, address: tuple, direction_code: int) -> FlowKey:
        cached = self._canonical.get((address, direction_code))
        if cached is None:
            if len(self._canonical) >= _CANONICAL_CACHE_ENTRIES:
                # a pure cache of value-equal keys: dropping it costs one
                # rebuild per live flow, never a different answer
                self._canonical.clear()
            cached = canonical_flow_key(address, direction_code)
            self._canonical[(address, direction_code)] = cached
        return cached

    def split(self, columns: PacketColumns) -> List[Tuple[FlowKey, PacketColumns]]:
        """Partition one batch into per-flow sub-batches.

        Returns ``(key, sub_batch)`` pairs; every row of ``columns`` lands in
        exactly one sub-batch, and rows of the same flow keep their relative
        batch order.  Flows first seen in this batch appear in first-packet
        order.
        """
        return [
            (key, columns.take(rows)) for key, rows in self.split_indices(columns)
        ]

    def split_indices(
        self, columns: PacketColumns
    ) -> List[Tuple[FlowKey, np.ndarray]]:
        """Per-flow sorted row indices, without materialising sub-batches.

        Same contract as :meth:`split` — every row lands in exactly one
        group, row order within a flow is the batch order, flows first seen
        in this batch appear in first-packet order — but each flow is
        returned as ``(key, row_indices)`` instead of a copied sub-batch.
        ``columns.take(rows)`` of each pair reproduces :meth:`split`
        exactly; the sharded data plane instead gathers the rows of every
        flow straight into a shared-memory ring slot (DESIGN.md §12).
        """
        n = len(columns)
        if n == 0:
            return []
        directions = columns.directions
        groups: Dict[FlowKey, List[np.ndarray]] = {}
        addresses = columns.addresses
        if addresses is None:
            for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
                rows = np.flatnonzero(directions == code)
                if rows.size:
                    groups.setdefault(self._key_for(DEFAULT_ADDRESS, code), []).append(rows)
        else:
            ids = _ID_OF(addresses).astype(np.int64)
            unique_ids, first_rows = np.unique(ids, return_index=True)
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            starts = np.searchsorted(sorted_ids, unique_ids, side="left")
            ends = np.searchsorted(sorted_ids, unique_ids, side="right")
            # visit address groups in first-appearance order so new flows
            # register deterministically
            for group in np.argsort(first_rows, kind="stable"):
                # a stable argsort leaves each group's rows ascending
                rows = order[starts[group] : ends[group]]
                address = addresses[int(first_rows[group])]
                codes = directions[rows]
                for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
                    selected = rows[codes == code]
                    if selected.size:
                        groups.setdefault(self._key_for(address, code), []).append(
                            selected
                        )
        out: List[Tuple[FlowKey, np.ndarray]] = []
        for key, parts in groups.items():
            rows = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            out.append((key, rows))
        return out


def flow_summary(key: FlowKey, stream: PacketStream) -> dict:
    """The flow-metadata fields the platform signatures read.

    The stream-backed twin of
    :meth:`~repro.core.reducers.SessionReducerCascade.flow_summary` (which
    tracks the same aggregates without retaining packets); the two agree bit
    for bit on the same flow.
    """
    duration = stream.duration
    down = stream.total_bytes(Direction.DOWNSTREAM)
    total = stream.total_bytes()
    return {
        "duration_s": duration,
        "downstream_mbps": down * 8 / duration / 1e6 if duration > 0 else 0.0,
        "downstream_fraction": down / total if total else 0.0,
        "is_rtp": stream.has_rtp,
        "server_port": key.server_port,
    }


def interarrival_times(stream: PacketStream, direction: Optional[Direction] = None) -> np.ndarray:
    """Inter-arrival times (seconds) between consecutive packets."""
    times = stream.timestamps(direction)
    if times.size < 2:
        return np.array([], dtype=float)
    return np.diff(times)
