"""Unit tests for the packet/flow substrate, RTP codec and time-series helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Direction, FlowDemux, Packet, PacketColumns, PacketStream
from repro.net.flow import flow_summary, interarrival_times
from repro.net.rtp import (
    RTP_HEADER_LEN,
    RTPHeader,
    build_rtp_packet,
    looks_like_rtp,
    parse_rtp_payload,
    sequence_gap,
)
from repro.net.timeseries import (
    exponential_moving_average,
    packet_rate_series,
    slot_aggregate,
    throughput_series,
)


def packet(ts, direction=Direction.DOWNSTREAM, size=1000, **kw):
    defaults = dict(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=49004, dst_port=50000
    )
    defaults.update(kw)
    return Packet(timestamp=ts, direction=direction, payload_size=size, **defaults)


class TestPacket:
    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            packet(-1.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            packet(0.0, size=-5)

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            packet(0.0, src_port=70000)

    def test_wire_size_includes_headers(self):
        plain = packet(0.0, size=100)
        rtp = packet(0.0, size=100, rtp_ssrc=1)
        assert plain.wire_size == 128
        assert rtp.wire_size == 140

    def test_shifted_preserves_other_fields(self):
        original = packet(1.0, size=77)
        moved = original.shifted(2.5)
        assert moved.timestamp == pytest.approx(3.5)
        assert moved.payload_size == 77

    def test_direction_flip(self):
        assert Direction.DOWNSTREAM.flipped() is Direction.UPSTREAM
        assert Direction.UPSTREAM.flipped() is Direction.DOWNSTREAM


class TestPacketStream:
    def test_sorted_on_construction(self):
        stream = PacketStream([packet(2.0), packet(1.0), packet(3.0)])
        times = stream.timestamps()
        assert list(times) == sorted(times)

    def test_append_out_of_order_resorts(self):
        # streams are immutable: appending is concat + a new sorted view
        stream = PacketStream([packet(1.0)])
        late = PacketStream([packet(0.5)])
        stream = PacketStream(PacketColumns.concat([stream.columns(), late.columns()]))
        assert stream.timestamps()[0] == pytest.approx(0.5)
        assert not hasattr(stream, "append")

    def test_filter_direction(self):
        stream = PacketStream(
            [packet(0.0), packet(1.0, Direction.UPSTREAM), packet(2.0)]
        )
        assert len(stream.filter_direction(Direction.UPSTREAM)) == 1

    def test_between_and_first_seconds(self):
        stream = PacketStream([packet(float(i)) for i in range(10)])
        assert len(stream.between(2.0, 5.0)) == 3
        assert len(stream.first_seconds(3.0)) == 3

    def test_between_invalid_range(self):
        with pytest.raises(ValueError):
            PacketStream().between(5.0, 2.0)

    def test_throughput_and_rate(self):
        stream = PacketStream([packet(float(i), size=1250) for i in range(11)])
        # 10 seconds span, 11 packets of 1250 bytes
        assert stream.mean_throughput_mbps() == pytest.approx(11 * 1250 * 8 / 10 / 1e6)
        assert stream.packet_rate() == pytest.approx(1.1)

    def test_empty_stream_defaults(self):
        stream = PacketStream()
        assert stream.duration == 0.0
        assert stream.total_bytes() == 0
        assert stream.mean_throughput_mbps() == 0.0


def split_flows(packets):
    """``FlowDemux().split`` of a time-sorted stream of packet records."""
    return FlowDemux().split(PacketStream(packets).columns())


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
        stream = PacketStream([packet(0.0), packet(0.5), packet(1.5)])
        np.testing.assert_allclose(interarrival_times(stream), [0.5, 1.0])


class TestRTP:
    def test_encode_decode_roundtrip(self):
        header = RTPHeader(payload_type=96, sequence_number=1234, timestamp=567890, ssrc=42,
                           marker=True)
        decoded = RTPHeader.decode(header.encode())
        assert decoded == header

    def test_decode_rejects_short_buffer(self):
        with pytest.raises(ValueError):
            RTPHeader.decode(b"\x80\x60")

    def test_decode_rejects_wrong_version(self):
        data = bytearray(RTPHeader().encode())
        data[0] = 0x00  # version 0
        with pytest.raises(ValueError, match="version"):
            RTPHeader.decode(bytes(data))

    def test_next_increments_and_wraps(self):
        header = RTPHeader(sequence_number=0xFFFF, timestamp=10)
        nxt = header.next(timestamp_increment=3000)
        assert nxt.sequence_number == 0
        assert nxt.timestamp == 3010

    def test_build_and_parse_packet(self):
        header = RTPHeader(ssrc=7)
        datagram = build_rtp_packet(header, b"payload-bytes")
        parsed, body = parse_rtp_payload(datagram)
        assert parsed.ssrc == 7
        assert body == b"payload-bytes"

    def test_looks_like_rtp(self):
        assert looks_like_rtp(RTPHeader().encode() + b"x" * 50)
        assert not looks_like_rtp(b"\x00" * 20)
        assert not looks_like_rtp(b"ab")

    def test_sequence_gap(self):
        assert sequence_gap(None, 5) == 0
        assert sequence_gap(5, 6) == 0
        assert sequence_gap(5, 8) == 2
        assert sequence_gap(0xFFFF, 0) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=127),
    )
    def test_roundtrip_property(self, seq, ts, pt):
        header = RTPHeader(sequence_number=seq, timestamp=ts, payload_type=pt)
        assert RTPHeader.decode(header.encode()) == header

    def test_header_length_constant(self):
        assert len(RTPHeader().encode()) == RTP_HEADER_LEN


class TestTimeSeries:
    def test_throughput_series_values(self):
        stream = PacketStream([packet(0.1, size=1000), packet(0.2, size=1000),
                               packet(1.5, size=500)])
        series = throughput_series(stream, 1.0, Direction.DOWNSTREAM, duration=2.0, origin=0.0)
        assert len(series) == 2
        assert series[0] == pytest.approx(2000 * 8 / 1e6)
        assert series[1] == pytest.approx(500 * 8 / 1e6)

    def test_packet_rate_series(self):
        stream = PacketStream([packet(0.1), packet(0.2), packet(0.3)])
        series = packet_rate_series(stream, 1.0, Direction.DOWNSTREAM, duration=1.0, origin=0.0)
        assert series[0] == pytest.approx(3.0)

    def test_slot_aggregate_includes_empty_slots(self):
        stream = PacketStream([packet(0.5), packet(4.5)])
        series = slot_aggregate(stream, 1.0, lambda t, s: float(len(t)), duration=5.0, origin=0.0)
        assert len(series) == 5
        assert series.values[2] == 0.0

    def test_slot_aggregate_invalid_duration(self):
        with pytest.raises(ValueError):
            slot_aggregate(PacketStream(), 0.0, lambda t, s: 0.0)

    def test_slot_aggregate_named_aggregators_match_callables(self):
        packets = [packet(0.1 * i, size=100 + 7 * i) for i in range(30)]
        packets += [
            Packet(timestamp=0.15 * i, direction=Direction.UPSTREAM, payload_size=50 + i)
            for i in range(10)
        ]
        stream = PacketStream(packets)
        for direction in (None, Direction.DOWNSTREAM, Direction.UPSTREAM):
            count = slot_aggregate(stream, 1.0, "count", direction=direction)
            looped = slot_aggregate(
                stream, 1.0, lambda t, s: float(len(t)), direction=direction
            )
            np.testing.assert_array_equal(count.values, looped.values)
            total = slot_aggregate(stream, 1.0, "sum", direction=direction)
            looped = slot_aggregate(
                stream, 1.0, lambda t, s: float(s.sum()), direction=direction
            )
            np.testing.assert_array_equal(total.values, looped.values)
            mean = slot_aggregate(stream, 1.0, "mean", direction=direction)
            looped = slot_aggregate(
                stream,
                1.0,
                lambda t, s: float(s.mean()) if s.size else 0.0,
                direction=direction,
            )
            np.testing.assert_array_equal(mean.values, looped.values)

    def test_slot_aggregate_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="aggregator"):
            slot_aggregate(PacketStream([packet(0.0)]), 1.0, "median")

    def test_direction_views_are_index_aligned(self):
        # the invariant slot aggregation relies on: timestamps(direction)
        # and payload_sizes(direction) subset the same packets in the same
        # order, so one mask derived from the former applies to the latter
        packets = [
            Packet(
                timestamp=float(i) / 10,
                direction=Direction.DOWNSTREAM if i % 3 else Direction.UPSTREAM,
                payload_size=1000 + i,
            )
            for i in range(50)
        ]
        stream = PacketStream(packets)
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
        matrix = rng.uniform(size=(5, 40))
        smoothed = exponential_moving_average(matrix, 0.5)
        for row, got in zip(matrix, smoothed):
            np.testing.assert_array_equal(exponential_moving_average(row, 0.5), got)

    def test_ema_equals_input_for_alpha_one(self):
        values = [1.0, 5.0, 2.0]
        np.testing.assert_allclose(exponential_moving_average(values, 1.0), values)

    def test_ema_smooths_spike(self):
        values = [0.0, 0.0, 10.0, 0.0, 0.0]
        smoothed = exponential_moving_average(values, 0.4)
        assert smoothed[2] < 10.0
        assert smoothed[3] > 0.0

    def test_ema_invalid_alpha(self):
        with pytest.raises(ValueError):
            exponential_moving_average([1.0], 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_ema_stays_within_bounds(self, values, alpha):
        """Property: EMA output never leaves the [min, max] range of the input."""
        smoothed = exponential_moving_average(values, alpha)
        assert smoothed.min() >= min(values) - 1e-9
        assert smoothed.max() <= max(values) + 1e-9
