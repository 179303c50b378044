"""Tests for PCAP I/O, the cloud-gaming flow detector and network conditions."""

import struct
from pathlib import Path
from typing import List, Optional, Union

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import (
    CloudGamingFlowDetector,
    Direction,
    NetworkConditions,
    Packet,
    PacketColumns,
    PacketStream,
    apply_conditions_columns,
    read_pcap_columns,
    read_pcap_stream,
    write_pcap,
)
from repro.net.filter import CLOUD_GAMING_PLATFORMS, FlowSignature
from repro.net.packet import DOWNSTREAM_CODE, merge_streams
from repro.net.pcap import (
    _ETH_HEADER_LEN,
    _ETHERTYPE_IPV4,
    _GLOBAL_HEADER,
    _IPPROTO_UDP,
    _IPV4_MIN_HEADER_LEN,
    _RECORD_HEADER,
    _RUN_RECORDS,
    _RUN_WINDOW,
    _UDP_HEADER_LEN,
    PCAP_MAGIC,
    PCAP_MAGIC_SWAPPED,
)
from repro.net.rtp import RTPHeader, looks_like_rtp, parse_rtp_payload


# ---------------------------------------------------------------------------
# scalar frame decoder: the differential oracle of the columnar reader
# (the per-packet reader ``repro.net.pcap`` shipped before the columnar one
# became the only path, kept verbatim)
# ---------------------------------------------------------------------------
def _bytes_to_ip(data: bytes) -> str:
    return ".".join(str(b) for b in data)


def read_pcap(
    path: Union[str, Path],
    client_ip: Optional[str] = None,
) -> List[Packet]:
    """Read a classic PCAP file back into :class:`Packet` records.

    Parameters
    ----------
    client_ip:
        IP address of the game client; packets sourced from it are labeled
        upstream, everything else downstream.  When omitted, the most common
        destination address of large packets is assumed to be the client.

    Notes
    -----
    Only Ethernet/IPv4/UDP frames are decoded; other frames are skipped.
    """
    path = Path(path)
    raw_records: List[tuple[float, bytes]] = []
    with path.open("rb") as handle:
        header = handle.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError(f"{path} is not a valid pcap file (truncated header)")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC:
            record_struct = _RECORD_HEADER
        elif magic == PCAP_MAGIC_SWAPPED:
            record_struct = struct.Struct(">IIII")
        else:
            raise ValueError(f"{path} is not a classic pcap file (magic {magic:#x})")
        while True:
            record_header = handle.read(record_struct.size)
            if len(record_header) < record_struct.size:
                break
            seconds, microseconds, captured_len, _original_len = record_struct.unpack(
                record_header
            )
            data = handle.read(captured_len)
            if len(data) < captured_len:
                break
            raw_records.append((seconds + microseconds / 1_000_000, data))

    decoded: List[tuple[float, str, str, int, int, int, Optional[RTPHeader]]] = []
    for timestamp, frame in raw_records:
        parsed = _decode_frame(frame)
        if parsed is not None:
            decoded.append((timestamp,) + parsed)

    if client_ip is None:
        client_ip = _infer_client_ip(decoded)

    packets: List[Packet] = []
    for timestamp, src_ip, dst_ip, src_port, dst_port, payload_len, rtp in decoded:
        direction = (
            Direction.UPSTREAM if src_ip == client_ip else Direction.DOWNSTREAM
        )
        packets.append(
            Packet(
                timestamp=timestamp,
                direction=direction,
                payload_size=payload_len,
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                protocol="udp",
                rtp_payload_type=rtp.payload_type if rtp else None,
                rtp_ssrc=rtp.ssrc if rtp else None,
                rtp_sequence=rtp.sequence_number if rtp else None,
                rtp_timestamp=rtp.timestamp if rtp else None,
            )
        )
    return packets


def _decode_frame(frame: bytes):
    """Decode one Ethernet/IPv4/UDP frame; return None when not decodable."""
    if len(frame) < _ETH_HEADER_LEN + _IPV4_MIN_HEADER_LEN + _UDP_HEADER_LEN:
        return None
    ethertype = struct.unpack("!H", frame[12:14])[0]
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ip_start = _ETH_HEADER_LEN
    version_ihl = frame[ip_start]
    ihl = (version_ihl & 0x0F) * 4
    protocol = frame[ip_start + 9]
    if protocol != _IPPROTO_UDP:
        return None
    if ihl < _IPV4_MIN_HEADER_LEN:
        # a corrupt IHL would misplace every later field (columnar parity)
        return None
    src_ip = _bytes_to_ip(frame[ip_start + 12 : ip_start + 16])
    dst_ip = _bytes_to_ip(frame[ip_start + 16 : ip_start + 20])
    udp_start = ip_start + ihl
    if len(frame) < udp_start + _UDP_HEADER_LEN:
        return None
    src_port, dst_port, udp_length, _checksum_field = struct.unpack(
        "!HHHH", frame[udp_start : udp_start + _UDP_HEADER_LEN]
    )
    if udp_length < _UDP_HEADER_LEN:
        # mangled datagram, not an empty one (columnar parity)
        return None
    payload = frame[udp_start + _UDP_HEADER_LEN :]
    payload_len = udp_length - _UDP_HEADER_LEN
    rtp = None
    if looks_like_rtp(payload):
        try:
            rtp, _body = parse_rtp_payload(payload)
        except ValueError:
            rtp = None
    return src_ip, dst_ip, src_port, dst_port, payload_len, rtp


def _infer_client_ip(decoded) -> str:
    """Guess the client address: the endpoint receiving the most bytes."""
    received: dict[str, int] = {}
    for _ts, _src, dst_ip, _sp, _dp, payload_len, _rtp in decoded:
        received[dst_ip] = received.get(dst_ip, 0) + payload_len
    if not received:
        return "0.0.0.0"
    return max(received, key=received.get)


def streaming_packets(n=2500, server_port=49004, rtp=True, rate_mbps=8.0):
    """A synthetic bidirectional streaming flow (~3 s at the default rate)."""
    packets = []
    payload = 1200
    pps = rate_mbps * 1e6 / 8 / payload
    for i in range(n):
        ts = i / pps
        packets.append(
            Packet(
                timestamp=ts,
                direction=Direction.DOWNSTREAM,
                payload_size=payload,
                src_ip="203.0.113.5",
                dst_ip="192.168.0.9",
                src_port=server_port,
                dst_port=51000,
                rtp_ssrc=99 if rtp else None,
                rtp_sequence=i & 0xFFFF if rtp else None,
                rtp_timestamp=int(ts * 90000) if rtp else None,
            )
        )
        if i % 20 == 0:
            packets.append(
                Packet(
                    timestamp=ts + 0.001,
                    direction=Direction.UPSTREAM,
                    payload_size=120,
                    src_ip="192.168.0.9",
                    dst_ip="203.0.113.5",
                    src_port=51000,
                    dst_port=server_port,
                    rtp_ssrc=100 if rtp else None,
                )
            )
    return packets


class TestPcapRoundtrip:
    def test_roundtrip_preserves_counts_sizes_and_rtp(self, tmp_path):
        packets = streaming_packets(200)
        path = tmp_path / "session.pcap"
        written = write_pcap(path, packets)
        restored = read_pcap_stream(path, client_ip="192.168.0.9")
        assert written == len(packets) == len(restored)
        assert restored[0].payload_size == packets[0].payload_size
        assert restored[0].rtp_ssrc == packets[0].rtp_ssrc
        assert len(restored.timestamps(Direction.DOWNSTREAM)) == 200

    def test_client_ip_inference(self, tmp_path):
        packets = streaming_packets(120)
        path = tmp_path / "x.pcap"
        write_pcap(path, packets)
        restored = read_pcap_stream(path)  # infer client from byte counts
        assert len(restored.timestamps(Direction.DOWNSTREAM)) == 120

    def test_timestamps_preserved_to_microseconds(self, tmp_path):
        packets = streaming_packets(50)
        path = tmp_path / "t.pcap"
        write_pcap(path, packets)
        restored = read_pcap_stream(path, client_ip="192.168.0.9")
        original_ts = sorted(p.timestamp for p in packets)
        np.testing.assert_allclose(restored.timestamps(), original_ts, atol=2e-6)

    def test_read_rejects_non_pcap(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"this is definitely not a capture file")
        with pytest.raises(ValueError):
            read_pcap_stream(path)


class TestPcapColumnarPath:
    """``read_pcap_columns`` must equal the scalar oracle field-for-field."""

    @staticmethod
    def assert_columns_equal(reference, got):
        np.testing.assert_array_equal(reference.timestamps, got.timestamps)
        np.testing.assert_array_equal(reference.payload_sizes, got.payload_sizes)
        np.testing.assert_array_equal(reference.directions, got.directions)
        for field in ("rtp_payload_type", "rtp_ssrc", "rtp_sequence", "rtp_timestamp"):
            expected = getattr(reference, field)
            actual = getattr(got, field)
            assert (expected is None) == (actual is None), field
            if expected is not None:
                np.testing.assert_array_equal(expected, actual, err_msg=field)
        assert (reference.addresses is None) == (got.addresses is None)
        if reference.addresses is not None:
            assert all(a == b for a, b in zip(reference.addresses, got.addresses))

    def test_columns_equal_object_path_with_rtp(self, tmp_path):
        packets = streaming_packets(300)
        path = tmp_path / "cols.pcap"
        write_pcap(path, packets)
        reference = PacketStream(read_pcap(path, client_ip="192.168.0.9")).columns()
        got = PacketStream.from_columns(
            read_pcap_columns(path, client_ip="192.168.0.9")
        ).columns()
        self.assert_columns_equal(reference, got)

    def test_columns_equal_object_path_without_rtp(self, tmp_path):
        packets = streaming_packets(150, rtp=False)
        path = tmp_path / "plain.pcap"
        write_pcap(path, packets)
        reference = PacketStream(read_pcap(path, client_ip="192.168.0.9")).columns()
        got = PacketStream.from_columns(
            read_pcap_columns(path, client_ip="192.168.0.9")
        ).columns()
        assert got.rtp_ssrc is None
        self.assert_columns_equal(reference, got)

    def test_inferred_client_matches_object_path(self, tmp_path):
        packets = streaming_packets(180)
        path = tmp_path / "infer.pcap"
        write_pcap(path, packets)
        reference = PacketStream(read_pcap(path)).columns()
        got = PacketStream.from_columns(read_pcap_columns(path)).columns()
        self.assert_columns_equal(reference, got)
        downstream = int(np.count_nonzero(got.directions == 0))
        assert downstream == 180

    def test_read_pcap_stream_wrapper(self, tmp_path):
        packets = streaming_packets(80)
        path = tmp_path / "stream.pcap"
        write_pcap(path, packets)
        stream = read_pcap_stream(path, client_ip="192.168.0.9")
        assert isinstance(stream, PacketStream)
        assert len(stream) == len(read_pcap(path, client_ip="192.168.0.9"))

    @pytest.mark.parametrize(
        "kwargs", [{"batch_packets": 70}, {"batch_seconds": 0.1}]
    )
    def test_batch_iterator_concat_equals_whole_file(self, tmp_path, kwargs):
        from repro.net.packet import PacketColumns
        from repro.net.pcap import iter_pcap_column_batches

        packets = streaming_packets(400)
        path = tmp_path / "batched.pcap"
        write_pcap(path, packets)
        reference = read_pcap_columns(path, client_ip="192.168.0.9")
        batches = list(
            iter_pcap_column_batches(path, client_ip="192.168.0.9", **kwargs)
        )
        assert len(batches) > 2
        self.assert_columns_equal(reference, PacketColumns.concat(batches))

    def test_batch_iterator_infers_client_from_first_batch(self, tmp_path):
        from repro.net.packet import PacketColumns
        from repro.net.pcap import iter_pcap_column_batches

        packets = streaming_packets(300)
        path = tmp_path / "infer-batched.pcap"
        write_pcap(path, packets)
        reference = read_pcap_columns(path)
        merged = PacketColumns.concat(
            list(iter_pcap_column_batches(path, batch_packets=64))
        )
        self.assert_columns_equal(reference, merged)

    def test_columns_reject_non_pcap(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            read_pcap_columns(path)

    def test_truncated_trailing_record_dropped(self, tmp_path):
        packets = streaming_packets(40)
        path = tmp_path / "trunc.pcap"
        write_pcap(path, packets)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # cut into the last record's frame
        reference = PacketStream(read_pcap(path, client_ip="192.168.0.9")).columns()
        got = PacketStream.from_columns(
            read_pcap_columns(path, client_ip="192.168.0.9")
        ).columns()
        self.assert_columns_equal(reference, got)


class TestFlowDetector:
    def test_detects_geforce_now_flow(self):
        detector = CloudGamingFlowDetector()
        sessions = detector.detect(PacketStream(streaming_packets()))
        assert len(sessions) == 1
        assert sessions[0].platform == "GeForce NOW"
        assert sessions[0].key.server_port == 49004

    def test_rejects_low_bitrate_flow(self):
        detector = CloudGamingFlowDetector()
        packets = PacketStream(streaming_packets(rate_mbps=0.5))
        assert detector.detect(packets) == []

    def test_rejects_non_rtp_when_required(self):
        detector = CloudGamingFlowDetector()
        packets = PacketStream(streaming_packets(rtp=False))
        assert detector.detect(packets) == []

    def test_rejects_wrong_port(self):
        detector = CloudGamingFlowDetector()
        packets = PacketStream(streaming_packets(server_port=12345))
        assert detector.detect(packets) == []

    def test_rejects_short_flow(self):
        detector = CloudGamingFlowDetector()
        packets = PacketStream(streaming_packets(n=1000))  # ~1.2 s < 2 s minimum
        assert detector.detect(packets) == []

    def test_accepts_unsorted_columns(self):
        columns = PacketStream(streaming_packets()).columns()
        shuffled = columns.take(np.random.default_rng(0).permutation(len(columns)))
        (session,) = CloudGamingFlowDetector().detect(shuffled)
        np.testing.assert_array_equal(session.packets.timestamps(), columns.timestamps)

    def test_filter_packets_returns_only_gaming_traffic(self):
        gaming = streaming_packets()
        noise = [
            Packet(timestamp=0.1 * i, direction=Direction.DOWNSTREAM, payload_size=300,
                   src_ip="8.8.8.8", dst_ip="192.168.0.9", src_port=443, dst_port=40000)
            for i in range(30)
        ]
        detector = CloudGamingFlowDetector()
        sessions = detector.detect(PacketStream(gaming + noise))
        kept = merge_streams([session.packets for session in sessions])
        assert len(kept) == len(gaming)
        np.testing.assert_array_equal(
            kept.timestamps(), PacketStream(gaming).timestamps()
        )

    def test_all_platform_signatures_present(self):
        assert set(CLOUD_GAMING_PLATFORMS) == {
            "GeForce NOW",
            "Xbox Cloud Gaming",
            "Amazon Luna",
            "PS5 Cloud Streaming",
        }

    def test_custom_signature(self):
        signature = FlowSignature(
            platform="TestCloud", server_port_ranges=((12345, 12345),), requires_rtp=False
        )
        detector = CloudGamingFlowDetector([signature])
        sessions = detector.detect(
            PacketStream(streaming_packets(server_port=12345, rtp=False))
        )
        assert sessions and sessions[0].platform == "TestCloud"

    def test_xbox_signature_matches(self):
        detector = CloudGamingFlowDetector()
        sessions = detector.detect(PacketStream(streaming_packets(server_port=9002)))
        assert sessions and sessions[0].platform == "Xbox Cloud Gaming"


class TestNetworkConditions:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConditions(latency_ms=-1)
        with pytest.raises(ValueError):
            NetworkConditions(loss_rate=1.5)
        with pytest.raises(ValueError):
            NetworkConditions(bandwidth_mbps=0)

    def test_ideal_is_not_degraded(self):
        assert not NetworkConditions.ideal().is_degraded()

    def test_congested_is_degraded(self):
        assert NetworkConditions.congested().is_degraded()

    def test_latency_shifts_timestamps(self):
        columns = PacketStream(streaming_packets(100)).columns()
        conditions = NetworkConditions(latency_ms=100.0, jitter_ms=0.0, loss_rate=0.0)
        shifted = apply_conditions_columns(
            columns, conditions, rng=np.random.default_rng(0)
        )
        assert len(shifted) == len(columns)
        assert shifted.timestamps.min() == pytest.approx(
            columns.timestamps.min() + 0.1, abs=1e-6
        )

    def test_loss_drops_packets(self):
        columns = PacketStream(streaming_packets(1000)).columns()
        conditions = NetworkConditions(latency_ms=1.0, jitter_ms=0.0, loss_rate=0.2)
        survivors = apply_conditions_columns(
            columns, conditions, rng=np.random.default_rng(1)
        )
        drop_fraction = 1 - len(survivors) / len(columns)
        assert 0.1 < drop_fraction < 0.3

    def test_bottleneck_stretches_delivery(self):
        columns = PacketStream(streaming_packets(500, rate_mbps=20.0)).columns()
        conditions = NetworkConditions(
            latency_ms=1.0, jitter_ms=0.0, loss_rate=0.0, bandwidth_mbps=5.0
        )
        shaped = apply_conditions_columns(
            columns, conditions, rng=np.random.default_rng(2)
        )
        assert np.ptp(shaped.timestamps) > np.ptp(columns.timestamps) * 2

    def test_empty_input(self):
        shaped = apply_conditions_columns(PacketColumns.empty(), NetworkConditions.ideal())
        assert len(shaped) == 0

    def test_output_sorted(self):
        columns = PacketStream(streaming_packets(300)).columns()
        shaped = apply_conditions_columns(
            columns,
            NetworkConditions(latency_ms=5, jitter_ms=20, loss_rate=0.0),
            rng=np.random.default_rng(3),
        )
        assert len(shaped) == len(columns)
        assert np.all(np.diff(shaped.timestamps) >= 0)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(0.0, 5.0),  # arrival gap (zero: back-to-back ties)
                st.integers(1, 1500),  # payload bytes
                st.booleans(),  # downstream (only those queue)
            ),
            min_size=1,
            max_size=60,
        ),
        loss_rate=st.sampled_from([0.0, 0.3]),
        bandwidth_mbps=st.sampled_from([0.05, 1.0, 40.0]),
        seed=st.integers(0, 2**16),
    )
    def test_closed_form_queue_equals_scalar_recursion(
        self, rows, loss_rate, bandwidth_mbps, seed
    ):
        """``served + maximum.accumulate(...)`` solves the bottleneck recursion."""
        gaps, sizes, down = (np.array(column) for column in zip(*rows))
        columns = PacketColumns(
            timestamps=np.cumsum(gaps),
            payload_sizes=sizes,
            directions=np.where(down, DOWNSTREAM_CODE, 1),
        )
        conditions = NetworkConditions(
            latency_ms=20.0, jitter_ms=5.0, loss_rate=loss_rate,
            bandwidth_mbps=bandwidth_mbps,
        )
        got = apply_conditions_columns(
            columns, conditions, rng=np.random.default_rng(seed)
        )

        # the same draws, then the recursion written out packet by packet
        rng = np.random.default_rng(seed)
        keep = rng.random(len(columns)) >= loss_rate
        jitter = np.abs(rng.normal(0.0, 0.005, size=len(columns)))
        bytes_per_second = bandwidth_mbps * 1e6 / 8.0
        busy_until = 0.0
        expected = []
        for index in np.flatnonzero(keep):
            arrival = columns.timestamps[index] + 0.02 + jitter[index]
            if columns.directions[index] == DOWNSTREAM_CODE:
                busy_until = (
                    max(arrival, busy_until)
                    + columns.payload_sizes[index] / bytes_per_second
                )
                arrival = busy_until
            expected.append((arrival, columns.payload_sizes[index]))
        expected.sort(key=lambda row: row[0])

        assert len(got) == len(expected)
        np.testing.assert_allclose(
            got.timestamps, [arrival for arrival, _ in expected], rtol=1e-9, atol=0
        )
        if len({arrival for arrival, _ in expected}) == len(expected):
            np.testing.assert_array_equal(
                got.payload_sizes, [size for _, size in expected]
            )


class TestHostileCaptures:
    """Damaged captures never crash a read and every skip is accounted.

    Each malformed record lands under exactly one :class:`ParseStats`
    counter, decoded rows equal the capture with the hostile records
    removed, and the scalar oracle (:func:`read_pcap` above) skips the same
    frames as the columnar reader.
    """

    CLIENT = "192.168.0.9"
    SERVER = "203.0.113.5"

    @staticmethod
    def write_raw_pcap(path, frames, trailing=b""):
        """Write (timestamp, frame_bytes) records plus optional junk tail."""
        from repro.net.pcap import (
            _GLOBAL_HEADER,
            _RECORD_HEADER,
            LINKTYPE_ETHERNET,
            PCAP_MAGIC,
            PCAP_VERSION_MAJOR,
            PCAP_VERSION_MINOR,
        )

        with open(path, "wb") as handle:
            handle.write(
                _GLOBAL_HEADER.pack(
                    PCAP_MAGIC,
                    PCAP_VERSION_MAJOR,
                    PCAP_VERSION_MINOR,
                    0,
                    0,
                    65535,
                    LINKTYPE_ETHERNET,
                )
            )
            for timestamp, frame in frames:
                seconds = int(timestamp)
                microseconds = int(round((timestamp - seconds) * 1e6))
                handle.write(
                    _RECORD_HEADER.pack(seconds, microseconds, len(frame), len(frame))
                )
                handle.write(frame)
            handle.write(trailing)

    @classmethod
    def frame(
        cls,
        payload=b"\x00" * 100,
        src=None,
        dst=None,
        sport=51000,
        dport=49004,
        ethertype=0x0800,
        protocol=17,
        ihl_words=5,
        udp_length=None,
    ):
        """An Ethernet/IPv4/UDP frame with independently corruptible fields."""
        import struct as _struct

        from repro.net.pcap import _ip_to_bytes

        src = cls.CLIENT if src is None else src
        dst = cls.SERVER if dst is None else dst
        eth = b"\x02" * 6 + b"\x04" * 6 + _struct.pack("!H", ethertype)
        udp_len = 8 + len(payload) if udp_length is None else udp_length
        ip = _struct.pack(
            "!BBHHHBBH4s4s",
            0x40 | ihl_words,
            0,
            20 + udp_len,
            0,
            0,
            64,
            protocol,
            0,
            _ip_to_bytes(src),
            _ip_to_bytes(dst),
        )
        udp = _struct.pack("!HHHH", sport, dport, udp_len, 0)
        return eth + ip + udp + payload

    @classmethod
    def rtp_payload(cls, sequence=1):
        from repro.net.rtp import RTPHeader

        header = RTPHeader(
            payload_type=96, sequence_number=sequence, timestamp=1000, ssrc=77
        )
        return header.encode() + bytes(60)

    def hostile_frames(self):
        """Valid frames interleaved with one record per corruption class."""
        valid = [
            (0.0, self.frame(payload=self.rtp_payload(1))),
            (0.1, self.frame(payload=self.rtp_payload(2), src=self.SERVER,
                             dst=self.CLIENT, sport=49004, dport=51000)),
            (0.7, self.frame(payload=bytes(40))),
        ]
        hostile = [
            (0.2, b"\x02" * 20),  # short frame
            (0.3, self.frame(ethertype=0x86DD)),  # IPv6 ethertype
            (0.4, self.frame(protocol=6)),  # TCP
            (0.5, self.frame(ihl_words=4)),  # IHL below the IPv4 minimum
            (0.55, self.frame(payload=bytes(10), ihl_words=12)),  # IHL > frame
            (0.6, self.frame(udp_length=4)),  # UDP length < UDP header
            # RTP version bits on a 6-byte payload: kept, demoted to non-RTP
            (0.65, self.frame(payload=b"\x80\x60\x00\x01\x00\x00")),
        ]
        return sorted(valid + hostile, key=lambda item: item[0])

    def test_well_formed_capture_counts_clean(self, tmp_path):
        from repro.net import ParseStats

        packets = streaming_packets(200)
        path = tmp_path / "clean.pcap"
        write_pcap(path, packets)
        stats = ParseStats()
        columns = read_pcap_columns(path, client_ip=self.CLIENT, stats=stats)
        assert len(columns) == len(packets)
        assert stats.n_records == len(packets)
        assert stats.n_decoded == len(packets)
        assert stats.n_skipped == 0
        assert stats.truncated_records == 0
        assert stats.malformed_rtp == 0

    def test_each_corruption_charged_to_one_counter(self, tmp_path):
        from repro.net import ParseStats

        path = tmp_path / "hostile.pcap"
        self.write_raw_pcap(path, self.hostile_frames(), trailing=b"\x01" * 9)
        stats = ParseStats()
        columns = read_pcap_columns(path, client_ip=self.CLIENT, stats=stats)
        assert stats.n_records == 10
        assert stats.truncated_records == 1
        assert stats.short_frames == 1
        assert stats.non_ipv4 == 1
        assert stats.non_udp == 1
        assert stats.bad_ip_header == 2
        assert stats.bad_udp_length == 1
        assert stats.n_skipped == 6
        assert stats.malformed_rtp == 1
        assert stats.n_decoded == 4 == len(columns)
        # the malformed-RTP row is kept with non-RTP columns
        from repro.net.packet import RTP_NONE

        assert columns.rtp_ssrc is not None
        assert int(np.count_nonzero(columns.rtp_ssrc != RTP_NONE)) == 2

    def test_hostile_decode_equals_valid_only_capture(self, tmp_path):
        hostile_path = tmp_path / "hostile.pcap"
        self.write_raw_pcap(hostile_path, self.hostile_frames(), trailing=b"xy")
        survivors = [
            (ts, frame)
            for ts, frame in self.hostile_frames()
            if ts in (0.0, 0.1, 0.65, 0.7)
        ]
        clean_path = tmp_path / "survivors.pcap"
        self.write_raw_pcap(clean_path, survivors)
        got = read_pcap_columns(hostile_path, client_ip=self.CLIENT)
        expected = read_pcap_columns(clean_path, client_ip=self.CLIENT)
        TestPcapColumnarPath.assert_columns_equal(expected, got)

    def test_object_path_skips_the_same_frames(self, tmp_path):
        path = tmp_path / "hostile.pcap"
        self.write_raw_pcap(path, self.hostile_frames(), trailing=b"\x00" * 5)
        reference = PacketStream(read_pcap(path, client_ip=self.CLIENT)).columns()
        got = PacketStream.from_columns(
            read_pcap_columns(path, client_ip=self.CLIENT)
        ).columns()
        TestPcapColumnarPath.assert_columns_equal(reference, got)

    def test_chunked_reader_accumulates_stats(self, tmp_path):
        from repro.net import ParseStats
        from repro.net.pcap import iter_pcap_column_batches

        path = tmp_path / "hostile.pcap"
        self.write_raw_pcap(path, self.hostile_frames(), trailing=b"\x01" * 9)
        whole_stats = ParseStats()
        whole = read_pcap_columns(path, client_ip=self.CLIENT, stats=whole_stats)
        chunk_stats = ParseStats()
        batches = list(
            iter_pcap_column_batches(
                path, batch_packets=3, client_ip=self.CLIENT, stats=chunk_stats
            )
        )
        assert sum(len(batch) for batch in batches) == len(whole)
        assert chunk_stats == whole_stats


# ---------------------------------------------------------------------------
# block-decoded batch iterator vs the per-span decode loop it replaced
# ---------------------------------------------------------------------------
def per_span_batches(path, batch_packets, batch_seconds, client_ip, stats):
    """Oracle: the loop ``iter_pcap_column_batches`` ran before it decoded in
    blocks — one dedicated decode per batch span, client pinned by the first
    span, column layout (which columns are ``None``) worked out per span."""
    from pathlib import Path

    from repro.net.packet import DEFAULT_ADDRESS, RTP_NONE, PacketColumns
    from repro.net.pcap import _decode_records, _ip_to_bytes, _scan_records

    data = Path(path).read_bytes()
    timestamps, offsets, lengths = _scan_records(data, source=str(path), stats=stats)
    n_records = timestamps.size
    client_u32 = (
        None if client_ip is None else int.from_bytes(_ip_to_bytes(client_ip), "big")
    )
    if n_records == 0:
        return
    if batch_seconds is None:
        bounds = list(range(0, n_records, batch_packets)) + [n_records]
    else:
        origin = float(timestamps[0])
        last = float(timestamps[-1])
        edges = origin + batch_seconds * np.arange(
            1, int(np.ceil(max(last - origin, 0.0) / batch_seconds)) + 1
        )
        bounds = (
            [0]
            + [int(i) for i in np.searchsorted(timestamps, edges, side="left")]
            + [n_records]
        )
    for start, end in zip(bounds[:-1], bounds[1:]):
        if end <= start:
            continue
        span = slice(start, end)
        block, client_u32 = _decode_records(
            data, timestamps[span], offsets[span], lengths[span], client_u32,
            stats=stats,
        )
        full = block.columns
        if not len(full):
            continue
        has_rtp = bool(np.any(full.rtp_ssrc != RTP_NONE))
        addressed = any(address != DEFAULT_ADDRESS for address in full.addresses)
        yield PacketColumns(
            timestamps=full.timestamps,
            payload_sizes=full.payload_sizes,
            directions=full.directions,
            rtp_payload_type=full.rtp_payload_type if has_rtp else None,
            rtp_ssrc=full.rtp_ssrc if has_rtp else None,
            rtp_sequence=full.rtp_sequence if has_rtp else None,
            rtp_timestamp=full.rtp_timestamp if has_rtp else None,
            addresses=full.addresses if addressed else None,
        )


def _record_frame(kind, flow):
    """One capture record of the given kind on client port ``51000 + flow``."""
    make = TestHostileCaptures.frame
    client, server = TestHostileCaptures.CLIENT, TestHostileCaptures.SERVER
    down = dict(src=server, dst=client, sport=49004, dport=51000 + flow)
    if kind == "rtp_down":
        return make(payload=TestHostileCaptures.rtp_payload(flow + 1), **down)
    if kind == "rtp_up":
        return make(payload=TestHostileCaptures.rtp_payload(9), sport=51000 + flow)
    if kind == "plain_down":
        return make(payload=bytes(40 + flow), **down)
    if kind == "default_address":
        return make(payload=bytes(30), src="0.0.0.0", dst="0.0.0.0", sport=0, dport=0)
    if kind == "malformed_rtp":  # kept, demoted to non-RTP columns
        return make(payload=b"\x80\x60\x00\x01\x00\x00", **down)
    return {
        "short": b"\x02" * 20,
        "non_ipv4": make(ethertype=0x86DD),
        "non_udp": make(protocol=6),
        "ihl_low": make(ihl_words=4),
        "ihl_past_frame": make(payload=bytes(10), ihl_words=12),
        "bad_udp_length": make(udp_length=4),
    }[kind]


_RECORD_KINDS = (
    "rtp_down", "rtp_up", "plain_down", "default_address", "malformed_rtp",
    "short", "non_ipv4", "non_udp", "ihl_low", "ihl_past_frame", "bad_udp_length",
)
# runs of one kind, so RTP-free and default-address batches occur inside blocks
# that hold RTP and addressed rows; gaps of zero (ties on a batch edge) up to
# more than a second (empty time spans)
_RUNS = st.lists(
    st.tuples(
        st.sampled_from(_RECORD_KINDS),
        st.integers(0, 3),  # flow
        st.lists(st.sampled_from([0, 1_000, 20_000, 150_000, 1_200_000]),
                 min_size=1, max_size=12),  # microseconds before each record
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=120, deadline=None)
@given(
    runs=_RUNS,
    batching=st.one_of(
        st.tuples(st.integers(1, 40), st.none()),
        st.tuples(st.just(50_000), st.sampled_from([0.01, 0.1, 0.15, 0.5, 3.0])),
    ),
    block_records=st.sampled_from([1, 3, 8, 4096]),
    client_ip=st.sampled_from([None, TestHostileCaptures.CLIENT]),
    truncated=st.booleans(),
)
def test_block_decoded_batches_equal_per_span_decode(
    tmp_path_factory, runs, batching, block_records, client_ip, truncated
):
    from unittest import mock

    from repro.net import ParseStats, pcap

    frames, clock = [], 0
    for kind, flow, gaps in runs:
        for gap in gaps:
            clock += gap
            frames.append((clock / 1e6, _record_frame(kind, flow)))
    path = tmp_path_factory.mktemp("blocks") / "capture.pcap"
    TestHostileCaptures.write_raw_pcap(
        path, frames, trailing=b"\x01" * 9 if truncated else b""
    )
    batch_packets, batch_seconds = batching
    expected_stats, got_stats = ParseStats(), ParseStats()
    expected = list(
        per_span_batches(path, batch_packets, batch_seconds, client_ip, expected_stats)
    )
    with mock.patch.object(pcap, "_BLOCK_RECORDS", block_records):
        got = list(
            pcap.iter_pcap_column_batches(
                path,
                batch_packets=batch_packets,
                batch_seconds=batch_seconds,
                client_ip=client_ip,
                stats=got_stats,
            )
        )
    assert len(got) == len(expected)
    for reference, batch in zip(expected, got):
        TestPcapColumnarPath.assert_columns_equal(reference, batch)
    assert got_stats == expected_stats


# ---------------------------------------------------------------------------
# stride-run header scan vs the per-record loop it replaced
# ---------------------------------------------------------------------------
def scan_records_loop(data, stats=None):
    """Oracle: the header walk ``_scan_records`` was before it scanned by
    stride runs — every field of every record header unpacked one by one
    (kept verbatim, minus the magic checks that raise)."""
    magic = struct.unpack("<I", data[:4])[0]
    record_struct = _RECORD_HEADER if magic == PCAP_MAGIC else struct.Struct(">IIII")
    seconds: List[int] = []
    microseconds: List[int] = []
    offsets: List[int] = []
    lengths: List[int] = []
    header_size = record_struct.size
    position = _GLOBAL_HEADER.size
    end = len(data)
    while position + header_size <= end:
        secs, usecs, captured_len, _original_len = record_struct.unpack_from(
            data, position
        )
        frame_start = position + header_size
        if frame_start + captured_len > end:
            break
        seconds.append(secs)
        microseconds.append(usecs)
        offsets.append(frame_start)
        lengths.append(captured_len)
        position = frame_start + captured_len
    if stats is not None:
        stats.n_records += len(offsets)
        if position < end:
            stats.truncated_records += 1
    timestamps = np.asarray(seconds, dtype=float) + np.asarray(
        microseconds, dtype=float
    ) / 1_000_000
    return (
        timestamps,
        np.asarray(offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )


def _global_header(magic=PCAP_MAGIC):
    return _GLOBAL_HEADER.pack(magic, 2, 4, 0, 0, 65535, 1)


def raw_capture(lengths, order="<", seed=0):
    """A pcap buffer of zero-filled frames of ``lengths`` with arbitrary clocks."""
    rng = np.random.default_rng(seed)
    clocks = rng.integers(0, 2**32, size=(len(lengths), 2)).tolist()
    parts = [_global_header(PCAP_MAGIC if order == "<" else PCAP_MAGIC_SWAPPED)]
    for (secs, usecs), length in zip(clocks, lengths):
        parts.append(struct.pack(order + "IIII", secs, usecs, length, length))
        parts.append(bytes(length))
    return b"".join(parts)


def assert_scan_equals_loop(data):
    from repro.net import ParseStats
    from repro.net.pcap import _scan_records

    expected_stats, got_stats = ParseStats(), ParseStats()
    expected = scan_records_loop(data, expected_stats)
    got = _scan_records(data, stats=got_stats)
    for reference, array in zip(expected, got):
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)
    assert got_stats == expected_stats
    return got


# runs of one captured length (what a snaplen capture is), two alternating
# lengths (a run that never starts), unrelated lengths, zero-length frames
_LENGTH_RUNS = st.lists(
    st.one_of(
        st.tuples(st.just("constant"), st.sampled_from([0, 1, 48, 64]), st.integers(1, 420)),
        st.tuples(st.just("alternating"), st.sampled_from([1, 60]), st.integers(1, 40)),
        st.tuples(st.just("random"), st.integers(0, 2**31), st.integers(1, 25)),
    ),
    min_size=1,
    max_size=6,
)


def _lengths_of(runs):
    lengths = []
    for kind, value, count in runs:
        if kind == "constant":
            lengths += [value] * count
        elif kind == "alternating":
            lengths += [value, value + 4] * count
        else:
            lengths += np.random.default_rng(value).integers(0, 1501, size=count).tolist()
    return lengths


@settings(max_examples=150, deadline=None)
@given(
    runs=_LENGTH_RUNS,
    order=st.sampled_from(["<", ">"]),
    cut=st.one_of(st.just(0), st.integers(1, 90), st.integers(91, 40_000)),
    poke=st.one_of(
        st.none(),
        st.tuples(st.floats(0, 1), st.sampled_from([0xFFFFFFFF, 0, 1, 63, 65, 80])),
    ),
)
def test_stride_run_scan_equals_record_loop(runs, order, cut, poke):
    """Same arrays and stats on any buffer: cut anywhere, lengths overwritten."""
    lengths = _lengths_of(runs)
    data = bytearray(raw_capture(lengths, order, seed=len(lengths)))
    if poke is not None:
        # overwrite one record's captured length (the walk derails from there:
        # what follows is read as whatever headers the new stride lands on)
        where, value = poke
        index = min(int(where * len(lengths)), len(lengths) - 1)
        position = _GLOBAL_HEADER.size + 16 * index + sum(lengths[:index]) + 8
        data[position : position + 4] = struct.pack(order + "I", value)
    keep = max(_GLOBAL_HEADER.size, len(data) - cut)
    assert_scan_equals_loop(bytes(data[:keep]))


# the walk reads _RUN_RECORDS headers one by one, compares the next
# _RUN_WINDOW at once, reads one more, compares 4 x _RUN_WINDOW, ...
_FIRST_WINDOW_END = _RUN_RECORDS + _RUN_WINDOW
_SECOND_WINDOW_END = _FIRST_WINDOW_END + 1 + 4 * _RUN_WINDOW


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize(
    "n_records,cut",
    [
        (_FIRST_WINDOW_END, 1),  # one byte short of the first window
        (_FIRST_WINDOW_END, 80),  # ... one whole record short
        (_FIRST_WINDOW_END, 80 + 70),  # tail cut mid-frame inside the window
        (_FIRST_WINDOW_END, 80 + 75),  # ... mid-header
        (_FIRST_WINDOW_END + 1, 0),  # the window exactly, one loose record after
        (_SECOND_WINDOW_END, 1),  # one byte short of the grown window
        (_SECOND_WINDOW_END + 5, 0),  # loose records after two full windows
        (_RUN_RECORDS, 0),  # the buffer ends where speculation would start
        (_RUN_RECORDS + 1, 3),  # ... with a cut record in the first window
        (_RUN_RECORDS - 1, 0),
    ],
)
def test_stride_run_scan_at_window_edges(order, n_records, cut):
    data = raw_capture([64] * n_records, order)
    timestamps, _, _ = assert_scan_equals_loop(data[: len(data) - cut])
    assert timestamps.size == n_records - (cut + 79) // 80


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("index", [3, 7, 8, 9, 40, 71, 72, 73, 74, 200])
def test_stride_run_scan_stops_at_an_impossible_length(order, index):
    """0xFFFFFFFF mid-file: the records before it, one truncation, no read past."""
    from repro.net import ParseStats
    from repro.net.pcap import _scan_records

    lengths = [64] * 300
    data = bytearray(raw_capture(lengths, order))
    position = _GLOBAL_HEADER.size + 80 * index + 8
    data[position : position + 4] = b"\xff" * 4
    assert_scan_equals_loop(bytes(data))
    stats = ParseStats()
    timestamps, _, _ = _scan_records(bytes(data), stats=stats)
    assert (timestamps.size, stats.n_records, stats.truncated_records) == (index, index, 1)


def test_scan_cost_is_per_run_not_per_record(profile_events):
    """Counts, not times: a fixed-length capture is a handful of windows."""
    from repro.net.pcap import _scan_records

    fixed = raw_capture([64] * 4000)
    assert profile_events(lambda: _scan_records(fixed)) <= 4000 // 4
    # no two neighbours alike: no run, no speculation, one header read and
    # one position kept per record
    ragged = raw_capture([40 + index % 7 for index in range(4000)])
    assert profile_events(lambda: _scan_records(ragged)) <= 3 * 4000


# ---------------------------------------------------------------------------
# batch_seconds bounds come from the records, not from the capture's time span
# ---------------------------------------------------------------------------
def _clock_capture(path, clock_us):
    """One valid frame per entry of ``clock_us`` (integer microseconds)."""
    frame = TestHostileCaptures.frame(payload=TestHostileCaptures.rtp_payload(1))
    with open(path, "wb") as handle:
        handle.write(_global_header())
        for clock in clock_us:
            handle.write(
                _RECORD_HEADER.pack(clock // 1_000_000, clock % 1_000_000, len(frame), len(frame))
            )
            handle.write(frame)


def test_one_wild_timestamp_costs_one_batch_boundary(tmp_path):
    """51 records, the last 3e9 s after the first: 51 rows, inside 4 GiB.

    The bounds used to come from one edge per elapsed ``batch_seconds`` —
    3e10 of them here, a 224 GiB allocation before the first batch.  Runs in
    a child process so the address-space limit binds nothing else.
    """
    import subprocess
    import sys
    import textwrap

    path = tmp_path / "wild.pcap"
    _clock_capture(path, [index * 20_000 for index in range(50)] + [3_000_000_000 * 1_000_000])
    script = textwrap.dedent(
        f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        from repro.net.pcap import iter_pcap_column_batches
        batches = list(iter_pcap_column_batches({str(path)!r}, batch_seconds=0.1,
                                                client_ip={TestHostileCaptures.CLIENT!r}))
        print([len(batch) for batch in batches])
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    # ten 0.1 s buckets of 20 ms records, then the wild one on its own
    sizes = [int(size) for size in done.stdout.strip("[]\n").split(",")]
    assert (len(sizes), sum(sizes), sizes[-1]) == (11, 51, 1)


def edge_formula_bounds(timestamps, batch_seconds):
    """Oracle: the bounds ``iter_pcap_column_batches`` searched for before —
    one edge per ``batch_seconds`` of the capture's whole span, bisected into
    the timestamps (their running maximum: batches never move backwards)."""
    furthest = np.maximum.accumulate(timestamps)
    origin, last = float(furthest[0]), float(furthest[-1])
    edges = origin + batch_seconds * np.arange(
        1, int(np.ceil(max(last - origin, 0.0) / batch_seconds)) + 1
    )
    bounds = np.searchsorted(furthest, edges, side="left")
    return np.unique(np.concatenate(([0], bounds, [timestamps.size])))


# gaps that land records exactly on batch edges, just before and just after
# them, in the same bucket, and buckets apart; negative ones step the clock back
_GAPS_US = st.sampled_from(
    [0, 1, 999, 10_000, 49_999, 50_000, 99_999, 100_000, 100_001, 150_000,
     300_000, 1_200_000, 7_000_000, -1, -30_000, -100_000, -450_000]
)


@settings(max_examples=150, deadline=None)
@given(
    origin_s=st.sampled_from([0, 1, 1_700_000_000, 4_294_000_000]),
    gaps=st.lists(_GAPS_US, min_size=1, max_size=60),
    decreasing=st.booleans(),
    batch_seconds=st.sampled_from([0.01, 0.05, 0.1, 0.15, 0.3, 0.5, 3.0]),
)
# shrunk from runs without the bucket's -1 / +1 settling against the edge
@example(origin_s=1_700_000_000, gaps=[0, 10_000], decreasing=False, batch_seconds=0.01)
@example(
    origin_s=0,
    gaps=[1, 1, 10_000, 10_000, 10_000, 49_999, 150_000, 150_000, 150_000, 150_000, 10_000],
    decreasing=False,
    batch_seconds=0.01,
)
def test_record_derived_bounds_equal_the_edge_formula(
    tmp_path_factory, origin_s, gaps, decreasing, batch_seconds
):
    from repro.net.pcap import iter_pcap_column_batches

    clock, clocks = origin_s * 1_000_000 + 600_000, []
    for gap in gaps:
        clock = max(0, clock + (gap if decreasing else abs(gap)))
        clocks.append(clock)
    path = tmp_path_factory.mktemp("bounds") / "capture.pcap"
    _clock_capture(path, clocks)
    whole = read_pcap_columns(path, client_ip=TestHostileCaptures.CLIENT)
    assert len(whole) == len(clocks)
    batches = list(
        iter_pcap_column_batches(
            path, batch_seconds=batch_seconds, client_ip=TestHostileCaptures.CLIENT
        )
    )
    TestPcapColumnarPath.assert_columns_equal(whole, PacketColumns.concat(batches))
    bounds = np.concatenate(([0], np.cumsum([len(batch) for batch in batches])))
    assert np.array_equal(bounds, edge_formula_bounds(whole.timestamps, batch_seconds))
