"""Packet-level primitives.

A :class:`Packet` is the atomic observation of the whole system: timestamp,
direction, payload size and transport metadata.  The classification pipeline
never needs payload bytes — only sizes, times and directions — which is what
allows the traffic simulator to substitute for real GeForce NOW captures (see
DESIGN.md §2).

:class:`PacketStream` is a *columnar* structure-of-arrays store (DESIGN.md
§3): timestamps, payload sizes and directions live in contiguous numpy
arrays, per-direction index views are computed lazily and cached, and time
windows (:meth:`PacketStream.between` / :meth:`PacketStream.first_seconds`)
are zero-copy slices over the parent arrays.  A stream is an immutable
sorted view: to add rows, build columns and :meth:`PacketColumns.concat`.
:class:`Packet` is the row record — ``PacketStream(packets)`` ingests it and
iterating or indexing a stream hands it out; no algorithm runs on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class Direction(Enum):
    """Direction of a packet relative to the game client."""

    DOWNSTREAM = "downstream"  # cloud server -> client (video/audio)
    UPSTREAM = "upstream"      # client -> cloud server (inputs)

    def flipped(self) -> "Direction":
        """Return the opposite direction."""
        if self is Direction.DOWNSTREAM:
            return Direction.UPSTREAM
        return Direction.DOWNSTREAM


#: Integer codes used by the columnar direction column.
DOWNSTREAM_CODE = 0
UPSTREAM_CODE = 1

_DIRECTION_CODES = {Direction.DOWNSTREAM: DOWNSTREAM_CODE, Direction.UPSTREAM: UPSTREAM_CODE}
_DIRECTIONS_BY_CODE = (Direction.DOWNSTREAM, Direction.UPSTREAM)

#: Sentinel for "no RTP header field" in the integer RTP columns.
RTP_NONE = -1

#: Default transport addressing of a packet built without explicit endpoints.
DEFAULT_ADDRESS = ("0.0.0.0", "0.0.0.0", 0, 0, "udp")


@dataclass(frozen=True, slots=True)
class Packet:
    """A single observed packet.

    Attributes
    ----------
    timestamp:
        Seconds since the start of the capture (float, sub-millisecond
        resolution).
    direction:
        :class:`Direction` relative to the game client.
    payload_size:
        UDP payload size in bytes (the quantity plotted in Fig. 3).
    src_ip, dst_ip, src_port, dst_port, protocol:
        Transport 5-tuple; ``protocol`` is ``"udp"`` for RTP streaming flows.
    rtp_payload_type, rtp_ssrc, rtp_sequence, rtp_timestamp:
        Optional RTP header fields when the packet belongs to an RTP flow.
    """

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

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")
        if self.payload_size < 0:
            raise ValueError(
                f"payload_size must be non-negative, got {self.payload_size}"
            )
        if not 0 <= self.src_port <= 65535:
            raise ValueError(f"src_port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= 65535:
            raise ValueError(f"dst_port out of range: {self.dst_port}")

    @property
    def wire_size(self) -> int:
        """Approximate on-wire size (payload + IPv4/UDP/RTP overhead)."""
        overhead = 20 + 8  # IPv4 + UDP
        if self.rtp_ssrc is not None:
            overhead += 12
        return self.payload_size + overhead

    def shifted(self, offset: float) -> "Packet":
        """Return a copy with the timestamp shifted by ``offset`` seconds."""
        return replace(self, timestamp=self.timestamp + offset)


def _as_int_column(values, size: int, dtype=np.int64) -> Optional[np.ndarray]:
    """Normalise an optional scalar-or-array RTP field into a full column."""
    if values is None:
        return None
    if np.isscalar(values):
        return np.full(size, int(values), dtype=dtype)
    column = np.asarray(values, dtype=dtype)
    if column.shape != (size,):
        raise ValueError(f"column must have shape ({size},), got {column.shape}")
    return column


def _address_column(address, size: int) -> Optional[np.ndarray]:
    """Normalise a 5-tuple (or per-row object array) into an address column."""
    if address is None:
        return None
    if isinstance(address, tuple):
        column = np.empty(size, dtype=object)
        column.fill(address)
        return column
    column = np.asarray(address, dtype=object)
    if column.shape != (size,):
        raise ValueError(f"addresses must have shape ({size},), got {column.shape}")
    return column


@dataclass
class PacketColumns:
    """A plain structure-of-arrays batch of packets.

    This is the interchange format between the traffic generators and
    :class:`PacketStream`: generators synthesise whole arrays instead of
    millions of :class:`Packet` objects.  ``rtp_*`` columns use
    :data:`RTP_NONE` for absent header fields; ``addresses`` holds
    ``(src_ip, dst_ip, src_port, dst_port, protocol)`` tuples (``None``
    means every row uses :data:`DEFAULT_ADDRESS`).
    """

    timestamps: np.ndarray
    payload_sizes: np.ndarray
    directions: np.ndarray
    rtp_payload_type: Optional[np.ndarray] = None
    rtp_ssrc: Optional[np.ndarray] = None
    rtp_sequence: Optional[np.ndarray] = None
    rtp_timestamp: Optional[np.ndarray] = None
    addresses: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.payload_sizes = np.asarray(self.payload_sizes, dtype=float)
        self.directions = np.asarray(self.directions, dtype=np.int8)
        n = self.timestamps.size
        if self.payload_sizes.size != n or self.directions.size != n:
            raise ValueError("all packet columns must have the same length")
        for name in ("rtp_payload_type", "rtp_ssrc", "rtp_sequence",
                     "rtp_timestamp", "addresses"):
            column = getattr(self, name)
            if column is not None and column.shape != (n,):
                raise ValueError(
                    f"{name} column must have shape ({n},), got {column.shape}"
                )

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @classmethod
    def empty(cls) -> "PacketColumns":
        return cls(
            timestamps=np.array([], dtype=float),
            payload_sizes=np.array([], dtype=float),
            directions=np.array([], dtype=np.int8),
        )

    @classmethod
    def uniform(
        cls,
        timestamps,
        payload_sizes,
        direction: Direction,
        address: Optional[Tuple[str, str, int, int, str]] = None,
        rtp_payload_type=None,
        rtp_ssrc=None,
        rtp_sequence=None,
        rtp_timestamp=None,
    ) -> "PacketColumns":
        """Build a batch whose rows share one direction (and addressing)."""
        timestamps = np.asarray(timestamps, dtype=float)
        n = timestamps.size
        return cls(
            timestamps=timestamps,
            payload_sizes=np.asarray(payload_sizes, dtype=float),
            directions=np.full(n, _DIRECTION_CODES[direction], dtype=np.int8),
            rtp_payload_type=_as_int_column(rtp_payload_type, n),
            rtp_ssrc=_as_int_column(rtp_ssrc, n),
            rtp_sequence=_as_int_column(rtp_sequence, n),
            rtp_timestamp=_as_int_column(rtp_timestamp, n),
            addresses=_address_column(address, n),
        )

    @classmethod
    def concat(cls, batches: Sequence["PacketColumns"]) -> "PacketColumns":
        """Concatenate batches (row order preserved, no sorting)."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        sizes = [len(batch) for batch in batches]

        def cat_optional(field: str, fill, dtype) -> Optional[np.ndarray]:
            columns = [getattr(batch, field) for batch in batches]
            if all(column is None for column in columns):
                return None
            parts = []
            for column, size in zip(columns, sizes):
                if column is None:
                    part = np.empty(size, dtype=dtype)
                    part.fill(fill)
                    parts.append(part)
                else:
                    parts.append(column)
            return np.concatenate(parts)

        return cls(
            timestamps=np.concatenate([batch.timestamps for batch in batches]),
            payload_sizes=np.concatenate([batch.payload_sizes for batch in batches]),
            directions=np.concatenate([batch.directions for batch in batches]),
            rtp_payload_type=cat_optional("rtp_payload_type", RTP_NONE, np.int64),
            rtp_ssrc=cat_optional("rtp_ssrc", RTP_NONE, np.int64),
            rtp_sequence=cat_optional("rtp_sequence", RTP_NONE, np.int64),
            rtp_timestamp=cat_optional("rtp_timestamp", RTP_NONE, np.int64),
            addresses=cat_optional("addresses", DEFAULT_ADDRESS, object),
        )

    def take_optional(self, indices) -> dict:
        """The five optional columns row-subset by ``indices`` (as kwargs)."""
        return {
            name: None if column is None else column[indices]
            for name, column in (
                ("rtp_payload_type", self.rtp_payload_type),
                ("rtp_ssrc", self.rtp_ssrc),
                ("rtp_sequence", self.rtp_sequence),
                ("rtp_timestamp", self.rtp_timestamp),
                ("addresses", self.addresses),
            )
        }

    def take(self, indices) -> "PacketColumns":
        """Row-subset / reorder by an index array (or zero-copy by a slice).

        Every column of a validated batch subset by the same index is a
        valid batch, so the result skips ``__post_init__`` — this runs once
        or twice per feed tick.
        """
        out = object.__new__(PacketColumns)
        out.timestamps = self.timestamps[indices]
        out.payload_sizes = self.payload_sizes[indices]
        out.directions = self.directions[indices]
        for name, column in self.take_optional(indices).items():
            setattr(out, name, column)
        return out

    def slice_view(self, start: int, stop: int) -> "PacketColumns":
        """Zero-copy contiguous row window ``[start, stop)`` of this batch.

        Every column of the result is a numpy basic-slice *view* over this
        batch's arrays — no data is copied, and writes through either alias
        are visible in both.  The PCAP reader hands out its decoded blocks
        this way, and the tick fold its per-flow rows (DESIGN.md §7); a view
        keeps the whole block alive, so whoever retains one takes
        :meth:`owned` of it.
        """
        return self.take(slice(start, stop))

    def owned(self) -> "PacketColumns":
        """This batch with every column owning its memory (self if it does).

        A column that is a view keeps its whole base array alive; whoever
        retains rows beyond the tick they arrived in (launch-window chunks,
        full-mode history) retains an owned batch, so the bytes held are
        the bytes :meth:`nbytes` accounts.
        """
        columns = [
            self.timestamps,
            self.payload_sizes,
            self.directions,
            self.rtp_payload_type,
            self.rtp_ssrc,
            self.rtp_sequence,
            self.rtp_timestamp,
            self.addresses,
        ]
        if all(column is None or column.base is None for column in columns):
            return self
        return PacketColumns(
            *(None if column is None else column.copy() for column in columns)
        )

    def column_presence(self) -> Tuple[bool, bool, bool, bool, bool]:
        """Presence flags of the five optional columns (RTP ×4, addresses).

        The flags are what a columnar transport must carry out-of-band to
        rebuild a batch exactly: presence (not just values) is observable —
        ``nbytes`` and snapshot contents differ between an absent column
        and one full of sentinels.
        """
        return (
            self.rtp_payload_type is not None,
            self.rtp_ssrc is not None,
            self.rtp_sequence is not None,
            self.rtp_timestamp is not None,
            self.addresses is not None,
        )

    def sorted_by_time(self) -> "PacketColumns":
        """Return a stably time-sorted copy (self when already sorted)."""
        ts = self.timestamps
        if ts.size < 2 or bool(np.all(ts[1:] >= ts[:-1])):
            return self
        return self.take(np.argsort(ts, kind="stable"))

    def nbytes(self) -> int:
        """Total bytes of the backing arrays (present optional columns too)."""
        total = self.timestamps.nbytes + self.payload_sizes.nbytes
        total += self.directions.nbytes
        for column in (
            self.rtp_payload_type,
            self.rtp_ssrc,
            self.rtp_sequence,
            self.rtp_timestamp,
            self.addresses,
        ):
            if column is not None:
                total += column.nbytes
        return total


def _columns_from_packets(packets: Iterable[Packet]) -> PacketColumns:
    """Extract columns from packet objects (the only per-packet loop).

    Address tuples are interned one object per distinct 5-tuple, the layout
    the generators and the PCAP reader produce and flow demux groups by.
    """
    ts: List[float] = []
    sz: List[int] = []
    dirs: List[int] = []
    rtp_pt: List[int] = []
    rtp_ssrc: List[int] = []
    rtp_seq: List[int] = []
    rtp_ts: List[int] = []
    addrs: List[tuple] = []
    interned: dict = {}
    any_rtp = False
    any_addr = False
    for p in packets:
        ts.append(p.timestamp)
        sz.append(p.payload_size)
        dirs.append(_DIRECTION_CODES[p.direction])
        pt, ssrc, seq, rts = p.rtp_payload_type, p.rtp_ssrc, p.rtp_sequence, p.rtp_timestamp
        if pt is not None or ssrc is not None or seq is not None or rts is not None:
            any_rtp = True
        rtp_pt.append(RTP_NONE if pt is None else pt)
        rtp_ssrc.append(RTP_NONE if ssrc is None else ssrc)
        rtp_seq.append(RTP_NONE if seq is None else seq)
        rtp_ts.append(RTP_NONE if rts is None else rts)
        addr = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol)
        if addr != DEFAULT_ADDRESS:
            any_addr = True
        addrs.append(interned.setdefault(addr, addr))
    n = len(ts)
    address_column: Optional[np.ndarray] = None
    if any_addr:
        address_column = np.empty(n, dtype=object)
        address_column[:] = addrs
    return PacketColumns(
        timestamps=np.asarray(ts, dtype=float),
        payload_sizes=np.asarray(sz, dtype=float),
        directions=np.asarray(dirs, dtype=np.int8),
        rtp_payload_type=np.asarray(rtp_pt, dtype=np.int64) if any_rtp else None,
        rtp_ssrc=np.asarray(rtp_ssrc, dtype=np.int64) if any_rtp else None,
        rtp_sequence=np.asarray(rtp_seq, dtype=np.int64) if any_rtp else None,
        rtp_timestamp=np.asarray(rtp_ts, dtype=np.int64) if any_rtp else None,
        addresses=address_column,
    )


class PacketStream:
    """An ordered sequence of packets backed by columnar numpy storage.

    The stream keeps packets sorted by timestamp (stable order for ties) and
    exposes the vectorised views (timestamp / payload-size arrays per
    direction) used heavily by the feature extraction code.  Object access
    (:meth:`__iter__` / :meth:`__getitem__`) materialises :class:`Packet`
    instances lazily from the columns.  The stream never changes after
    construction.
    """

    __slots__ = ("_columns", "_dir_cache")

    def __init__(self, packets: Optional[Iterable[Packet]] = None) -> None:
        if isinstance(packets, PacketColumns):
            self._columns = packets.sorted_by_time()
        elif packets is None:
            self._columns = PacketColumns.empty()
        else:
            self._columns = _columns_from_packets(packets).sorted_by_time()
        self._dir_cache: Optional[dict] = None
        self._freeze()

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_columns(
        cls, columns: PacketColumns, assume_sorted: bool = False
    ) -> "PacketStream":
        """Build a stream directly from a columnar batch (no object loop).

        The batch's arrays are adopted by the stream and marked read-only;
        pass a copy if the caller needs to keep mutating its buffers.
        """
        stream = cls.__new__(cls)
        stream._columns = columns if assume_sorted else columns.sorted_by_time()
        stream._dir_cache = None
        stream._freeze()
        return stream

    @classmethod
    def from_arrays(
        cls,
        timestamps,
        payload_sizes,
        directions,
        rtp_payload_type=None,
        rtp_ssrc=None,
        rtp_sequence=None,
        rtp_timestamp=None,
        addresses=None,
        assume_sorted: bool = False,
    ) -> "PacketStream":
        """Build a stream from raw arrays.

        ``directions`` may be an int-code array or a single
        :class:`Direction` applied to every row.  The input arrays are
        adopted by the stream and marked read-only (zero-copy ownership
        transfer); pass copies if the caller keeps mutating its buffers.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        n = timestamps.size
        if isinstance(directions, Direction):
            directions = np.full(n, _DIRECTION_CODES[directions], dtype=np.int8)
        columns = PacketColumns(
            timestamps=timestamps,
            payload_sizes=np.asarray(payload_sizes, dtype=float),
            directions=np.asarray(directions, dtype=np.int8),
            rtp_payload_type=_as_int_column(rtp_payload_type, n),
            rtp_ssrc=_as_int_column(rtp_ssrc, n),
            rtp_sequence=_as_int_column(rtp_sequence, n),
            rtp_timestamp=_as_int_column(rtp_timestamp, n),
            addresses=_address_column(addresses, n),
        )
        return cls.from_columns(columns, assume_sorted=assume_sorted)

    # ------------------------------------------------------------- internals
    def _freeze(self) -> None:
        # the hot columns are shared with caches, child streams and callers;
        # mark them read-only so aliasing bugs fail loudly instead of
        # corrupting every view
        for column in (
            self._columns.timestamps,
            self._columns.payload_sizes,
            self._columns.directions,
        ):
            if column.base is None and column.flags.owndata:
                column.setflags(write=False)

    def _dir_select(self, direction: Direction):
        """Cached (indices, timestamps, payload_sizes) of one direction."""
        code = _DIRECTION_CODES[direction]
        if self._dir_cache is None:
            self._dir_cache = {}
        selection = self._dir_cache.get(code)
        if selection is None:
            indices = np.flatnonzero(self._columns.directions == code)
            selection = (
                indices,
                self._columns.timestamps[indices],
                self._columns.payload_sizes[indices],
            )
            self._dir_cache[code] = selection
        return selection

    def _packet_at(self, row: int) -> Packet:
        cols = self._columns
        addr = DEFAULT_ADDRESS if cols.addresses is None else cols.addresses[row]

        def opt(column: Optional[np.ndarray]) -> Optional[int]:
            if column is None:
                return None
            value = int(column[row])
            return None if value == RTP_NONE else value

        return Packet(
            timestamp=float(cols.timestamps[row]),
            direction=_DIRECTIONS_BY_CODE[cols.directions[row]],
            payload_size=int(cols.payload_sizes[row]),
            src_ip=addr[0],
            dst_ip=addr[1],
            src_port=int(addr[2]),
            dst_port=int(addr[3]),
            protocol=addr[4],
            rtp_payload_type=opt(cols.rtp_payload_type),
            rtp_ssrc=opt(cols.rtp_ssrc),
            rtp_sequence=opt(cols.rtp_sequence),
            rtp_timestamp=opt(cols.rtp_timestamp),
        )

    # ------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Packet]:
        for row in range(len(self._columns)):
            yield self._packet_at(row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._packet_at(row) for row in range(*index.indices(len(self._columns)))]
        n = len(self._columns)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("packet index out of range")
        return self._packet_at(index)

    # ------------------------------------------------------------- filtering
    def filter_direction(self, direction: Direction) -> "PacketStream":
        """Return a stream containing only packets in ``direction``.

        The timestamp/size columns of the result are the lazily-cached
        per-direction views, so repeated filtering is O(1) after the first
        call.
        """
        indices, times, sizes = self._dir_select(direction)
        child = PacketColumns(
            timestamps=times,  # the cached per-direction views, not copies
            payload_sizes=sizes,
            directions=np.full(indices.size, _DIRECTION_CODES[direction], dtype=np.int8),
            **self._columns.take_optional(indices),
        )
        return PacketStream.from_columns(child, assume_sorted=True)

    def between(self, start: float, end: float) -> "PacketStream":
        """Return packets with ``start <= timestamp < end`` (zero-copy views)."""
        if end < start:
            raise ValueError(f"end ({end}) must not precede start ({start})")
        ts = self._columns.timestamps
        lo = int(np.searchsorted(ts, start, side="left"))
        hi = int(np.searchsorted(ts, end, side="left"))
        window = self._columns.take(slice(lo, hi))
        return PacketStream.from_columns(window, assume_sorted=True)

    def first_seconds(self, seconds: float) -> "PacketStream":
        """Return packets from the first ``seconds`` of the stream."""
        if not len(self._columns):
            return PacketStream()
        origin = float(self._columns.timestamps[0])
        return self.between(origin, origin + seconds)

    # ------------------------------------------------------------ vector views
    def timestamps(self, direction: Optional[Direction] = None) -> np.ndarray:
        """Timestamps as a float array, optionally filtered by direction.

        Returns a (read-only) view over the columnar storage — no per-packet
        work.  Copy before mutating.
        """
        if direction is None:
            return self._columns.timestamps
        return self._dir_select(direction)[1]

    def payload_sizes(self, direction: Optional[Direction] = None) -> np.ndarray:
        """Payload sizes as a float array, optionally filtered by direction."""
        if direction is None:
            return self._columns.payload_sizes
        return self._dir_select(direction)[2]

    def direction_codes(self) -> np.ndarray:
        """The int8 direction column (0=downstream, 1=upstream)."""
        return self._columns.directions

    def direction_indices(self, direction: Direction) -> np.ndarray:
        """Row indices of one direction (cached alongside the views)."""
        return self._dir_select(direction)[0]

    def columns(self) -> PacketColumns:
        """The underlying (sorted) columnar batch."""
        return self._columns

    def rtp_sequences(self, direction: Optional[Direction] = None) -> np.ndarray:
        """RTP sequence numbers of RTP packets, in arrival order."""
        column = self._columns.rtp_sequence
        if column is None:
            return np.array([], dtype=np.int64)
        if direction is not None:
            column = column[self._dir_select(direction)[0]]
        return column[column != RTP_NONE]

    def rtp_timestamps(self, direction: Optional[Direction] = None) -> np.ndarray:
        """RTP timestamps of RTP packets, in arrival order."""
        column = self._columns.rtp_timestamp
        if column is None:
            return np.array([], dtype=np.int64)
        if direction is not None:
            column = column[self._dir_select(direction)[0]]
        return column[column != RTP_NONE]

    @property
    def has_rtp(self) -> bool:
        """Whether any packet carries an RTP SSRC."""
        column = self._columns.rtp_ssrc
        return column is not None and bool(np.any(column != RTP_NONE))

    # ------------------------------------------------------------ aggregates
    @property
    def duration(self) -> float:
        """Span between the first and last packet, in seconds."""
        ts = self._columns.timestamps
        if ts.size < 2:
            return 0.0
        return float(ts[-1] - ts[0])

    @property
    def start_time(self) -> float:
        """Timestamp of the first packet (0.0 for an empty stream)."""
        ts = self._columns.timestamps
        return float(ts[0]) if ts.size else 0.0

    def total_bytes(self, direction: Optional[Direction] = None) -> int:
        """Sum of payload sizes, optionally per direction (columnar sum)."""
        return int(self.payload_sizes(direction).sum())

    def mean_throughput_mbps(self, direction: Optional[Direction] = None) -> float:
        """Mean payload throughput over the stream duration in Mbps."""
        if self.duration <= 0:
            return 0.0
        return self.total_bytes(direction) * 8 / self.duration / 1e6

    def packet_rate(self, direction: Optional[Direction] = None) -> float:
        """Mean packets per second over the stream duration."""
        if self.duration <= 0:
            return 0.0
        return self.timestamps(direction).size / self.duration

    def to_list(self) -> List[Packet]:
        """Materialise the stream as a list of :class:`Packet` objects."""
        return list(self)


def merge_streams(streams: Sequence[PacketStream]) -> PacketStream:
    """Merge several streams into one timestamp-ordered stream."""
    if not streams:
        return PacketStream()
    merged = PacketColumns.concat([stream.columns() for stream in streams])
    return PacketStream.from_columns(merged)
