"""Flow assembly: grouping packets into bidirectional 5-tuple flows.

The cloud-gaming packet filter (Fig. 6, left box) operates on flows rather
than individual packets: a game streaming session appears as one long-lived
bidirectional UDP/RTP flow between the client and a cloud GPU server.

The first thing the deployed probe does with a packet batch is route every
row to its bidirectional flow.  :class:`FlowDemux` does that on the columnar
substrate with one stable sort of the batch's integer flow ids.  Producers
that already know flow identity emit the ids with the batch: the PCAP
decoder interns the canonical :class:`FlowKey` of every distinct address
tuple of a decoded block, :class:`~repro.runtime.feed.SessionFeed` one per
session, and both hand the table of keys along (``PacketColumns.flow_ids`` /
``flow_keys``).  A batch without them — hand-built columns, a generator's
session — gets them once, from its addresses: distinct tuples factorise by
one ``np.unique`` over the address column's own object pointers (``id()``;
Python is touched once per *distinct* address, not per packet), and a
``bincount`` presence table over ``(address, direction)`` says which
canonical key each cell needs.  Both directions of a conversation
canonicalise to the same key, and no state is kept between batches.

Row order within a flow is preserved (a stable sort keeps batch positions
ascending), which is what lets the per-session accumulators reproduce the
offline stream exactly after one stable time sort.  :class:`FlowTick` is the
same partition applied: the batch's rows gathered flow by flow, plus the
bounds — the unit the streaming engine folds (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.net.packet import (
    DEFAULT_ADDRESS,
    DOWNSTREAM_CODE,
    UPSTREAM_CODE,
    Direction,
    PacketColumns,
    PacketStream,
    flow_id_column,
)

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

    def __reduce__(self):  # one call, not a state pair that walks fields() per key
        return FlowKey, (self.client_ip, self.client_port, self.server_ip, self.server_port,
                         self.protocol)


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


def _object_ids(column: np.ndarray) -> np.ndarray:
    """``id()`` of every element of an object column, without a call per row.

    An object array's buffer is its vector of ``PyObject*``, and in CPython
    ``id(x)`` is that address, so reading the buffer as ``intp`` gives the
    ids element for element.  The view keeps the (contiguous) array, and
    with it every referenced object, alive for as long as it is used.
    """
    return np.frombuffer(memoryview(np.ascontiguousarray(column)), dtype=np.intp)


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


def _address_flow_ids(columns: PacketColumns) -> Tuple[np.ndarray, List[FlowKey]]:
    """Flow ids and keys of a batch that arrived without them, from its addresses.

    Walking the address groups in first-appearance order, downstream code
    first, numbers the keys in the documented flow order: no ranking needed.
    """
    # cells are numbered 2 * address group + direction code (0 down, 1 up)
    upstream = columns.directions != DOWNSTREAM_CODE
    addresses = columns.addresses
    if addresses is None:
        group_addresses = [DEFAULT_ADDRESS]
        visit = [0]
        cell = upstream.astype(np.intp)
    else:
        _ids, first_rows, group_of_row = np.unique(
            _object_ids(addresses), return_index=True, return_inverse=True
        )
        group_addresses = addresses[first_rows].tolist()
        visit = np.argsort(first_rows).tolist()
        cell = group_of_row * 2 + upstream
    cell_rows = np.bincount(cell, minlength=2 * len(group_addresses)).tolist()
    numbers: Dict[FlowKey, int] = {}
    flow_of_cell = [0] * len(cell_rows)
    for group in visit:
        for code in (DOWNSTREAM_CODE, UPSTREAM_CODE):
            if cell_rows[2 * group + code]:
                key = canonical_flow_key(group_addresses[group], code)
                flow_of_cell[2 * group + code] = numbers.setdefault(key, len(numbers))
    return flow_id_column(flow_of_cell, len(numbers))[cell], list(numbers)


class FlowDemux:
    """Batch demultiplexer: one stable sort of the batch's flow ids.

    Keeps no state between batches — flow identity arrives with the batch
    (or is derived from it once), never from a cache.
    """

    def split(self, columns: PacketColumns) -> List[Tuple[FlowKey, PacketColumns]]:
        """Partition one batch into materialised per-flow sub-batches.

        ``[(key, columns.take(rows))]`` over :meth:`split_indices` — the
        form the offline flow filter and the tests read; the live path folds
        a :class:`FlowTick` instead.
        """
        return [
            (key, columns.take(rows)) for key, rows in self.split_indices(columns)
        ]

    def split_indices(
        self, columns: PacketColumns
    ) -> List[Tuple[FlowKey, np.ndarray]]:
        """Per-flow ascending row indices of one batch.

        Every row lands in exactly one ``(key, row_indices)`` pair (any
        direction code other than downstream counts as upstream, as in the
        reducers), row order within a flow is the batch order, and flows
        appear in first-appearance order of their address tuples
        (downstream-coded key first where one tuple carries both codes).
        The index arrays are views of one stable sort of the flow ids —
        the producer's ``flow_ids`` when the batch carries them (flows then
        ordered by first row, which is the same order wherever no tuple
        carries both codes), else ids factorised from the addresses — so
        concatenating them costs one copy (:meth:`FlowTick.gather`, and the
        sharded data plane's gather into a shared-memory ring slot,
        DESIGN.md §12).
        """
        if not len(columns):
            return []
        ids, keys = columns.flow_ids, columns.flow_keys
        if ids is None:
            ids, keys = _address_flow_ids(columns)
        order = np.argsort(ids, kind="stable")
        counts = np.bincount(ids, minlength=len(keys))
        stops = counts.cumsum()
        flows = np.flatnonzero(counts)
        starts = stops[flows] - counts[flows]
        if columns.flow_ids is not None:
            by_first_row = np.argsort(order[starts])
            flows, starts = flows[by_first_row], starts[by_first_row]
        return [
            (keys[flow], order[start:stop])
            for flow, start, stop in zip(
                flows.tolist(), starts.tolist(), stops[flows].tolist()
            )
        ]


class FlowTick(NamedTuple):
    """One tick's rows gathered flow by flow: the unit the live path folds.

    ``columns[bounds[i]:bounds[i + 1]]`` are the rows of flow ``keys[i]`` in
    batch order (never empty).  A demuxed tick names each flow once; a tick
    built by hand may name one flow more than once, and its spans then fold
    in order.
    """

    keys: List[FlowKey]
    columns: PacketColumns
    bounds: np.ndarray

    @classmethod
    def gather(
        cls,
        columns: PacketColumns,
        index_pairs: Sequence[Tuple[FlowKey, np.ndarray]],
    ) -> "FlowTick":
        """One ``columns.take`` over the concatenated rows of ``index_pairs``.

        The tick's columns carry no flow ids: the ids stop at the demux.
        """
        rows = [rows for _key, rows in index_pairs]
        bounds = np.zeros(len(rows) + 1, dtype=np.intp)
        if not rows:
            return cls([], PacketColumns.empty(), bounds)
        np.cumsum([part.size for part in rows], out=bounds[1:])
        order = rows[0] if len(rows) == 1 else np.concatenate(rows)
        keys = [key for key, _rows in index_pairs]
        return cls(keys, columns.without_flow_ids().take(order), bounds)


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
