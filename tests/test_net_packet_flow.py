"""Unit tests for the packet/flow substrate, RTP codec and per-slot series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Direction, FlowDemux, PacketColumns, PacketStream, write_pcap
from repro.net.flow import flow_summary
from repro.net.rtp import RTP_HEADER_LEN
from repro.core.qoe import ObjectiveQoEEstimator
from repro.core.reducers import raw_slot_matrix
from repro.core.volumetric import VolumetricAttributeGenerator

from packet_rows import PacketRow, columns_of, stream_of
from test_net_pcap_filter_conditions import RTPFields, decode_rtp_header, encode_rtp_header


def ema(values, alpha):
    """Equation 1 on one series: the generator's EMA of a single column."""
    columns = np.repeat(np.asarray(values, dtype=float)[:, None], 4, axis=1)
    return VolumetricAttributeGenerator(alpha=alpha).smooth_many([columns])[0][:, 0]


def packet(ts, direction=Direction.DOWNSTREAM, size=1000, **kw):
    defaults = dict(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=49004, dst_port=50000
    )
    defaults.update(kw)
    return PacketRow(timestamp=ts, direction=direction, payload_size=size, **defaults)


class TestPacket:
    """Packets from outside the program are validated where they are written."""

    @staticmethod
    def write(tmp_path, *rows):
        return write_pcap(tmp_path / "rows.pcap", columns_of([packet(1.0), *rows]))

    def test_negative_timestamp_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="timestamps"):
            self.write(tmp_path, packet(-1.0))

    def test_negative_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="payload sizes"):
            self.write(tmp_path, packet(0.0, size=-5))

    def test_invalid_port_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="port out of range"):
            self.write(tmp_path, packet(0.0, src_port=70000))
        with pytest.raises(ValueError, match="port out of range"):
            self.write(tmp_path, packet(0.0, dst_port=-1))

    @pytest.mark.parametrize(
        "bad, good, message",
        [
            # the record's 32-bit seconds
            (packet(2.0**32 - 1), packet(2.0**32 - 2), "timestamps"),
            # IPv4's 16-bit total length
            (packet(0.0, size=65508), packet(0.0, size=65507), "payload sizes"),
            # the RTP header's 7 bits
            (packet(0.0, rtp_ssrc=1, rtp_payload_type=128),
             packet(0.0, rtp_ssrc=1, rtp_payload_type=127), "payload types"),
        ],
    )
    def test_value_the_format_cannot_hold_rejected(self, tmp_path, bad, good, message):
        with pytest.raises(ValueError, match=message):
            self.write(tmp_path, bad)
        self.write(tmp_path, good)

    @pytest.mark.parametrize("address", ["10.0.0", "10.0.0.256", "10.0.x.1", ""])
    def test_bad_dotted_quad_rejected(self, tmp_path, address):
        with pytest.raises(ValueError, match="invalid IPv4 address"):
            self.write(tmp_path, packet(0.0, dst_ip=address))
        assert not (tmp_path / "rows.pcap").exists()


class TestPacketStream:
    def test_sorted_on_construction(self):
        stream = stream_of([packet(2.0), packet(1.0), packet(3.0)])
        times = stream.timestamps()
        assert list(times) == sorted(times)

    def test_append_out_of_order_resorts(self):
        # streams are immutable: appending is concat + a new sorted view
        stream = stream_of([packet(1.0)])
        late = stream_of([packet(0.5)])
        stream = PacketStream(PacketColumns.concat([stream.columns(), late.columns()]))
        assert stream.timestamps()[0] == pytest.approx(0.5)
        assert not hasattr(stream, "append")

    def test_filter_direction(self):
        stream = stream_of(
            [packet(0.0), packet(1.0, Direction.UPSTREAM), packet(2.0)]
        )
        assert len(stream.filter_direction(Direction.UPSTREAM)) == 1

    def test_between_and_first_seconds(self):
        stream = stream_of([packet(float(i)) for i in range(10)])
        assert len(stream.between(2.0, 5.0)) == 3
        assert len(stream.first_seconds(3.0)) == 3

    def test_between_invalid_range(self):
        with pytest.raises(ValueError):
            PacketStream().between(5.0, 2.0)

    def test_throughput_and_rate(self):
        stream = stream_of([packet(float(i), size=1250) for i in range(11)])
        # 10 seconds span, 11 packets of 1250 bytes
        ((key, _rows),) = FlowDemux().split(stream.columns())
        summary = flow_summary(key, stream)
        assert summary["downstream_mbps"] == pytest.approx(11 * 1250 * 8 / 10 / 1e6)
        assert len(stream) / stream.duration == pytest.approx(1.1)

    def test_empty_stream_defaults(self):
        stream = PacketStream()
        assert stream.duration == 0.0
        assert stream.total_bytes() == 0

    def test_built_from_columns_only(self):
        with pytest.raises(TypeError, match="PacketColumns"):
            PacketStream([packet(0.0)])


def split_flows(packets):
    """``FlowDemux().split`` of a time-sorted stream of packet rows."""
    return FlowDemux().split(stream_of(packets).columns())


class TestFlows:
    def test_flow_key_canonical_across_directions(self):
        down = packet(0.0, Direction.DOWNSTREAM, src_ip="1.1.1.1", dst_ip="2.2.2.2",
                      src_port=49004, dst_port=50000)
        up = packet(0.1, Direction.UPSTREAM, src_ip="2.2.2.2", dst_ip="1.1.1.1",
                    src_port=50000, dst_port=49004)
        ((key, rows),) = split_flows([down, up])
        assert (key.client_ip, key.client_port) == ("2.2.2.2", 50000)
        assert (key.server_ip, key.server_port) == ("1.1.1.1", 49004)
        assert len(rows) == 2

    def test_build_flows_groups_by_five_tuple(self):
        packets = [
            packet(0.2, dst_port=50001),
            packet(0.1, dst_port=50000),
            packet(0.0, dst_port=50000),
        ]
        flows = split_flows(packets)
        assert len(flows) == 2
        # flows come back ordered by their first packet
        assert [key.client_port for key, _ in flows] == [50000, 50001]

    def test_flow_direction_stats(self):
        packets = [
            packet(0.0, Direction.DOWNSTREAM, size=1000),
            packet(1.0, Direction.DOWNSTREAM, size=1000),
            packet(0.5, Direction.UPSTREAM, size=100,
                   src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=50000, dst_port=49004),
        ]
        ((key, rows),) = split_flows(packets)
        flow = PacketStream(rows)
        assert flow.total_bytes(Direction.DOWNSTREAM) == 2000
        assert flow.total_bytes(Direction.UPSTREAM) == 100
        assert flow_summary(key, flow)["downstream_fraction"] == pytest.approx(2000 / 2100)

    def test_largest_flow(self):
        flows = split_flows([packet(0.0, dst_port=50000, size=10),
                             packet(0.1, dst_port=50001, size=9000)])
        key, _ = max(flows, key=lambda flow: flow[1].payload_sizes.sum())
        assert key.client_port == 50001

    def test_interarrival_times(self):
        # a stream sorts on construction, so its gaps are the inter-arrival times
        stream = stream_of([packet(1.5), packet(0.0), packet(0.5)])
        np.testing.assert_allclose(np.diff(stream.timestamps()), [0.5, 1.0])


class TestRTP:
    def test_encode_decode_roundtrip(self):
        header = RTPFields(payload_type=96, sequence_number=1234, timestamp=567890, ssrc=42,
                           marker=True)
        decoded = decode_rtp_header(encode_rtp_header(header))
        assert decoded == header

    def test_decode_rejects_short_buffer(self):
        assert decode_rtp_header(b"\x80\x60") is None

    def test_decode_rejects_wrong_version(self):
        data = bytearray(encode_rtp_header(RTPFields()))
        data[0] = 0x00  # version 0
        assert decode_rtp_header(bytes(data)) is None

    def test_build_and_parse_packet(self):
        datagram = encode_rtp_header(RTPFields(ssrc=7)) + b"payload-bytes"
        assert decode_rtp_header(datagram).ssrc == 7
        assert datagram[RTP_HEADER_LEN:] == b"payload-bytes"

    def test_looks_like_rtp(self):
        assert decode_rtp_header(encode_rtp_header(RTPFields()) + b"x" * 50) is not None
        assert decode_rtp_header(b"\x00" * 20) is None
        assert decode_rtp_header(b"ab") is None

    def test_sequence_gap(self):
        """Loss counts the numbers skipped between neighbours, across the wrap."""

        def loss(sequences):
            return ObjectiveQoEEstimator().estimate_arrays(
                duration_s=1.0,
                down_times=np.linspace(0.0, 1.0, len(sequences)),
                down_payload_bytes=1000.0,
                rtp_timestamps=np.array([], dtype=np.int64),
                rtp_sequences=np.array(sequences, dtype=np.int64),
            ).loss_rate

        assert loss([5]) == 0.0
        assert loss([5, 6]) == 0.0
        assert loss([5, 8]) == 2 / 4
        assert loss([0xFFFF, 0]) == 0.0
        assert loss([0xFFFE, 1]) == 2 / 4

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=127),
    )
    def test_roundtrip_property(self, seq, ts, pt):
        header = RTPFields(sequence_number=seq, timestamp=ts, payload_type=pt)
        assert decode_rtp_header(encode_rtp_header(header)) == header

    def test_header_length_constant(self):
        assert len(encode_rtp_header(RTPFields())) == RTP_HEADER_LEN


class TestTimeSeries:
    # per-slot series come from the slot reducer's count (raw_slot_matrix):
    # slot 0 starts at the first packet; columns are down Mbps, down pkt/s,
    # up Kbps, up pkt/s

    def test_throughput_series_values(self):
        stream = stream_of([packet(0.1, size=1000), packet(0.2, size=1000),
                               packet(1.5, size=500)])
        series = raw_slot_matrix(stream, 1.0, n_slots=2)[:, 0]
        assert len(series) == 2
        assert series[0] == pytest.approx(2000 * 8 / 1e6)
        assert series[1] == pytest.approx(500 * 8 / 1e6)

    def test_packet_rate_series(self):
        stream = stream_of([packet(0.1), packet(0.2), packet(0.3)])
        series = raw_slot_matrix(stream, 0.5, n_slots=1)[:, 1]
        assert series[0] == pytest.approx(6.0)

    def test_slot_aggregate_includes_empty_slots(self):
        stream = stream_of([packet(0.5), packet(4.5)])
        series = raw_slot_matrix(stream, 1.0, n_slots=5)[:, 1]
        assert len(series) == 5
        assert series.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0]

    def test_slot_aggregate_invalid_duration(self):
        with pytest.raises(ValueError):
            raw_slot_matrix(PacketStream(), 0.0)

    def test_direction_views_are_index_aligned(self):
        # the invariant TickFacts.of_stream relies on: timestamps(direction)
        # and payload_sizes(direction) subset the same packets in the same
        # order, so one flow's downstream span indexes both alike
        packets = [
            PacketRow(
                timestamp=float(i) / 10,
                direction=Direction.DOWNSTREAM if i % 3 else Direction.UPSTREAM,
                payload_size=1000 + i,
            )
            for i in range(50)
        ]
        stream = stream_of(packets)
        for direction in (Direction.DOWNSTREAM, Direction.UPSTREAM):
            times = stream.timestamps(direction)
            sizes = stream.payload_sizes(direction)
            assert times.size == sizes.size
            expected = [
                (p.timestamp, p.payload_size)
                for p in packets
                if p.direction is direction
            ]
            np.testing.assert_allclose(times, [t for t, _ in expected])
            np.testing.assert_allclose(sizes, [s for _, s in expected])

    def test_ema_2d_rows_match_1d(self):
        rng = np.random.default_rng(3)
        relatives = [rng.uniform(size=(40, 4)) for _ in range(5)]
        generator = VolumetricAttributeGenerator(alpha=0.5)
        for relative, got in zip(relatives, generator.smooth_many(relatives)):
            np.testing.assert_array_equal(generator.smooth_many([relative])[0], got)

    def test_ema_equals_input_for_alpha_one(self):
        values = [1.0, 5.0, 2.0]
        np.testing.assert_allclose(ema(values, 1.0), values)

    def test_ema_smooths_spike(self):
        values = [0.0, 0.0, 10.0, 0.0, 0.0]
        smoothed = ema(values, 0.4)
        assert smoothed[2] < 10.0
        assert smoothed[3] > 0.0

    def test_ema_invalid_alpha(self):
        with pytest.raises(ValueError):
            VolumetricAttributeGenerator(alpha=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_ema_stays_within_bounds(self, values, alpha):
        """Property: EMA output never leaves the [min, max] range of the input."""
        smoothed = ema(values, alpha)
        assert smoothed.min() >= min(values) - 1e-9
        assert smoothed.max() <= max(values) + 1e-9
