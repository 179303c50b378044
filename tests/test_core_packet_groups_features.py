"""Tests for packet-group labeling (§4.2.1) and the 51 launch attributes (§4.2.2).

A batch's launch windows are labeled in one pass over all their rows
(``PacketGroupLabeler.label_windows``).  The per-slot labeling it replaced
is the oracle :func:`oracle_label_window`; launch features built from it,
slot by slot, through ``slot_feature_matrix`` must equal the batched
``launch_feature_matrix`` byte for byte.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.features import (
    FLOW_VOLUMETRIC_FEATURE_NAMES,
    PACKET_GROUP_FEATURE_NAMES,
    _segment_order,
    launch_feature_matrix,
    volumetric_launch_features,
)
from repro.core.packet_groups import (
    FULL_CODE,
    SPARSE_CODE,
    STEADY_CODE,
    LabeledSlot,
    PacketGroup,
    PacketGroupLabeler,
)
from repro.net.packet import Direction, PacketStream
from repro.simulation.devices import FULL_PACKET_PAYLOAD

from labeled_slots import slot_feature_matrix


def oracle_steady_votes(labeler, sizes):
    """Oracle: one slot's majority vote by shifted comparisons (the per-slot body)."""
    count = sizes.size
    if count == 0:
        return np.array([], dtype=bool)
    if count == 1:
        return np.array([False])
    tolerance = labeler.size_variation * sizes
    close = np.zeros(count, dtype=np.int64)
    neighbors = np.zeros(count, dtype=np.int64)
    for offset in range(1, labeler.neighbor_window + 1):
        if offset >= count:
            break
        gap = np.abs(sizes[offset:] - sizes[:-offset])
        close[offset:] += gap <= tolerance[offset:]
        neighbors[offset:] += 1
        close[:-offset] += gap <= tolerance[:-offset]
        neighbors[:-offset] += 1
    return (close * 2 >= neighbors) & (neighbors > 0)


def oracle_label_window(labeler, stream, window_seconds):
    """Oracle: ``label_window`` slot by slot, before the one-pass labeling."""
    all_times = stream.timestamps(Direction.DOWNSTREAM)
    origin = stream.start_time
    lo = int(np.searchsorted(all_times, origin, side="left"))
    hi = int(np.searchsorted(all_times, origin + window_seconds, side="left"))
    times = all_times[lo:hi]
    sizes = stream.payload_sizes(Direction.DOWNSTREAM)[lo:hi]
    full_size = labeler.full_size
    if full_size is None:
        full_size = int(sizes.max()) if sizes.size else 0
    n_slots = int(np.ceil(window_seconds / labeler.slot_duration))
    slot_of_packet = (
        np.floor((times - origin) / labeler.slot_duration).astype(int)
        if times.size
        else np.array([], dtype=int)
    )
    bounds = np.searchsorted(slot_of_packet, np.arange(n_slots + 1), side="left")
    slots = []
    for slot_index in range(n_slots):
        start, stop = int(bounds[slot_index]), int(bounds[slot_index + 1])
        slot_sizes = sizes[start:stop]
        codes = np.full(slot_sizes.size, SPARSE_CODE, dtype=np.int8)
        is_full = np.abs(slot_sizes - full_size) <= labeler.full_tolerance
        codes[is_full] = FULL_CODE
        non_full = np.flatnonzero(~is_full)
        codes[non_full[oracle_steady_votes(labeler, slot_sizes[non_full])]] = STEADY_CODE
        slots.append(LabeledSlot(slot_index, times[start:stop], slot_sizes, codes))
    return slots


#: (slot duration, window): 0.7 s slots over 3.5 s put a row just below the
#: window's end into slot 5 of 5, which the labeling must drop
_GEOMETRIES = [(1.0, 5.0), (0.7, 3.5), (0.7, 2.8), (1.0, 0.9)]


@st.composite
def launch_chunks(draw):
    """1-8 streams with empty slots, lone packets, window-edge rows and upstream heads."""
    slot_duration, window = draw(st.sampled_from(_GEOMETRIES), label="geometry")
    streams = []
    for _ in range(draw(st.integers(1, 8), label="sessions")):
        origin = draw(st.sampled_from([0.0, 0.05, 0.123, 12.9]))
        edge = np.nextafter(origin + window, -np.inf)
        # None: the last representable time before the window's end
        offsets = draw(
            st.lists(
                st.one_of(
                    st.floats(0.0, window + 1.0),
                    st.sampled_from([0.0, slot_duration, 2 * slot_duration]),
                    st.none(),
                ),
                max_size=60,
            )
        )
        sizes = draw(
            st.lists(
                st.sampled_from([1432.0, 1430.0, 700.0, 720.0, 760.0, 300.0, 40.0]),
                min_size=len(offsets),
                max_size=len(offsets),
            )
        )
        # the first packet sets the origin; upstream, it is no window row
        head = draw(st.sampled_from([Direction.DOWNSTREAM, Direction.UPSTREAM]))
        times = [origin] + [
            float(edge) if offset is None else origin + offset for offset in offsets
        ]
        directions = [head] + [Direction.DOWNSTREAM] * len(offsets)
        order = np.argsort(times, kind="stable")
        streams.append(
            PacketStream.from_arrays(
                np.array(times)[order],
                np.array([1432.0] + sizes)[order],
                np.array([0 if d is Direction.DOWNSTREAM else 1 for d in directions],
                         dtype=np.int8)[order],
            )
        )
    return streams, slot_duration, window


class TestOnePassLabeling:
    @settings(max_examples=120, deadline=None)
    @given(
        chunk=launch_chunks(),
        full_size=st.sampled_from([None, 1432, 720]),
        neighbor_window=st.sampled_from([1, 2, 3]),
    )
    def test_chunk_features_equal_the_per_slot_oracle(self, chunk, full_size, neighbor_window):
        streams, slot_duration, window = chunk
        labeler = PacketGroupLabeler(
            slot_duration=slot_duration, full_size=full_size, neighbor_window=neighbor_window
        )
        oracle = [oracle_label_window(labeler, stream, window) for stream in streams]
        rows = labeler.label_windows(streams, window_seconds=window)
        assert rows.label_codes.tobytes() == b"".join(
            slot.label_codes.tobytes() for slots in oracle for slot in slots
        )
        assert rows.slot_counts.tolist() == [len(slots) for slots in oracle]
        for aggregate in ("mean", "concat"):
            expected = np.stack(
                [
                    slot_feature_matrix(slots).mean(axis=0)
                    if aggregate == "mean"
                    else slot_feature_matrix(slots).reshape(-1)
                    for slots in oracle
                ]
            )
            got = launch_feature_matrix(streams, window, labeler, aggregate)
            assert got.tobytes() == expected.tobytes(), aggregate

    def test_row_on_the_window_edge_is_dropped(self):
        # 3.4999999999999996 < 3.5, but (t - 0) / 0.7 rounds to 5.0: slot 5 of 5
        edge = float(np.nextafter(3.5, -np.inf))
        stream = PacketStream.from_arrays(
            [0.0, 1.0, edge], [1432.0, 700.0, 700.0], Direction.DOWNSTREAM
        )
        labeler = PacketGroupLabeler(slot_duration=0.7)
        rows = labeler.label_windows([stream], window_seconds=3.5)
        assert rows.timestamps.tolist() == [0.0, 1.0]
        assert [slot.timestamps.size for slot in labeler.label_window(stream, 3.5)] == [
            1, 1, 0, 0, 0
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, -1.0]), max_size=80),
        n_segments=st.sampled_from([1, 3, 40, 70000]),
        seed=st.integers(0, 2**16),
    )
    @example(values=[], n_segments=1, seed=0)
    def test_segment_order_is_the_two_key_lexsort(self, values, n_segments, seed):
        values = np.array(values, dtype=float)
        segments = np.random.default_rng(seed).integers(0, n_segments, values.size)
        got = _segment_order(values, segments)
        assert got.tolist() == np.lexsort((values, segments)).tolist()


def named(vector):
    """A 51-attribute launch vector as ``{name: value}``."""
    return dict(zip(PACKET_GROUP_FEATURE_NAMES, vector.tolist()))


def make_stream(slots):
    """Build a downstream stream from a spec: list of (second, [payload sizes])."""
    times = [
        second + (index + 1) / (len(sizes) + 1)
        for second, sizes in slots
        for index in range(len(sizes))
    ]
    sizes = [size for _second, sizes in slots for size in sizes]
    return PacketStream.from_arrays(times, sizes, Direction.DOWNSTREAM)


class TestPacketGroupLabeler:
    def test_full_packets_identified_by_max_size(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD] * 5 + [500, 510, 505])])
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(stream, window_seconds=1.0)
        counts = labeler.group_counts(slots)
        assert counts[PacketGroup.FULL] == 5

    def test_steady_band_identified(self):
        # a tight band around 500 bytes -> steady
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD, 500, 505, 498, 502, 495])])
        labeler = PacketGroupLabeler(size_variation=0.10)
        slots = labeler.label_window(stream, window_seconds=1.0)
        counts = labeler.group_counts(slots)
        assert counts[PacketGroup.STEADY] == 5
        assert counts[PacketGroup.SPARSE] == 0

    def test_scattered_sizes_labeled_sparse(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD, 100, 900, 300, 1200, 50])])
        labeler = PacketGroupLabeler(size_variation=0.10)
        slots = labeler.label_window(stream, window_seconds=1.0)
        counts = labeler.group_counts(slots)
        assert counts[PacketGroup.SPARSE] >= 4

    def test_lower_variation_labels_fewer_steady(self):
        sizes = [FULL_PACKET_PAYLOAD] + [500 + 30 * i for i in range(8)]
        stream = make_stream([(0, sizes)])
        strict = PacketGroupLabeler(size_variation=0.01)
        loose = PacketGroupLabeler(size_variation=0.20)
        strict_counts = strict.group_counts(strict.label_window(stream, 1.0))
        loose_counts = loose.group_counts(loose.label_window(stream, 1.0))
        assert loose_counts[PacketGroup.STEADY] >= strict_counts[PacketGroup.STEADY]

    def test_empty_slots_are_emitted(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD]), (4, [FULL_PACKET_PAYLOAD])])
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(stream, window_seconds=5.0)
        assert len(slots) == 5
        assert slots[2].payload_sizes.size == 0

    def test_lone_non_full_packet_is_sparse(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD, FULL_PACKET_PAYLOAD, 700])])
        labeler = PacketGroupLabeler()
        counts = labeler.group_counts(labeler.label_window(stream, 1.0))
        assert counts[PacketGroup.SPARSE] == 1

    def test_group_scatter_returns_aligned_arrays(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD, 500, 505, 100])])
        labeler = PacketGroupLabeler()
        scatter = labeler.group_scatter(labeler.label_window(stream, 1.0))
        for times, sizes in scatter.values():
            assert times.shape == sizes.shape

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PacketGroupLabeler(slot_duration=0)
        with pytest.raises(ValueError):
            PacketGroupLabeler(size_variation=0.0)
        with pytest.raises(ValueError):
            PacketGroupLabeler(neighbor_window=0)

    def test_upstream_packets_ignored(self):
        packets = PacketStream.from_arrays([0.1, 0.2], [100, FULL_PACKET_PAYLOAD], [1, 0])
        labeler = PacketGroupLabeler()
        counts = labeler.group_counts(labeler.label_window(packets, 1.0))
        assert sum(counts.values()) == 1

    def test_labeling_on_synthetic_launch(self, launch_only_session):
        """A real launch fingerprint yields all three groups, full dominating bytes."""
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(launch_only_session.packets, window_seconds=30.0)
        counts = labeler.group_counts(slots)
        assert counts[PacketGroup.FULL] > 0
        assert counts[PacketGroup.STEADY] + counts[PacketGroup.SPARSE] > 0


class TestLaunchFeatures:
    def test_exactly_51_attributes(self):
        assert len(PACKET_GROUP_FEATURE_NAMES) == 51
        # 17 per group as described in Fig. 7
        for prefix in ("full", "steady", "sparse"):
            assert sum(1 for n in PACKET_GROUP_FEATURE_NAMES if n.startswith(prefix)) == 17

    def test_mean_aggregate_vector_length(self, launch_only_session):
        vector = launch_feature_matrix([launch_only_session.packets], window_seconds=5.0)[0]
        assert vector.shape == (51,)
        assert np.isfinite(vector).all()

    def test_concat_aggregate_vector_length(self, launch_only_session):
        vector = launch_feature_matrix(
            [launch_only_session.packets], window_seconds=5.0, aggregate="concat"
        )[0]
        assert vector.shape == (51 * 5,)

    def test_invalid_aggregate(self, launch_only_session):
        with pytest.raises(ValueError):
            launch_feature_matrix([launch_only_session.packets], aggregate="median")

    def test_feature_dict_names(self, launch_only_session):
        vector = launch_feature_matrix([launch_only_session.packets], window_seconds=5.0)[0]
        assert vector.shape == (len(PACKET_GROUP_FEATURE_NAMES),)
        assert len(set(PACKET_GROUP_FEATURE_NAMES)) == len(PACKET_GROUP_FEATURE_NAMES)

    def test_count_attribute_matches_label_counts(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD] * 4 + [500, 505, 498])])
        mapping = named(launch_feature_matrix([stream], window_seconds=1.0)[0])
        assert mapping["full_ct_sum"] == pytest.approx(4.0)
        assert mapping["steady_ct_sum"] == pytest.approx(3.0)

    def test_full_size_stats_constant(self):
        stream = make_stream([(0, [FULL_PACKET_PAYLOAD] * 6)])
        mapping = named(launch_feature_matrix([stream], window_seconds=1.0)[0])
        assert mapping["full_sz_mean"] == pytest.approx(FULL_PACKET_PAYLOAD)
        assert mapping["full_sz_stddev"] == pytest.approx(0.0)
        assert mapping["full_sz_skew"] == pytest.approx(0.0)

    def test_launch_feature_matrix_shape(self, small_launch_corpus):
        streams = [s.packets for s in small_launch_corpus.sessions[:4]]
        matrix = launch_feature_matrix(streams, window_seconds=5.0)
        assert matrix.shape == (4, 51)

    def test_launch_feature_matrix_empty_rejected(self):
        # zero streams is an error, never one all-NaN (or zero-width) row
        for aggregate in ("mean", "concat"):
            with pytest.raises(ValueError, match="must not be empty"):
                launch_feature_matrix([], aggregate=aggregate)

    def test_same_title_features_closer_than_cross_title(self, small_launch_corpus):
        """Launch fingerprints cluster by title (the basis of §4.2)."""
        sessions = small_launch_corpus.sessions
        matrix = launch_feature_matrix(
            [session.packets for session in sessions], window_seconds=5.0, aggregate="concat"
        )
        by_title = {}
        for session, row in zip(sessions, matrix):
            by_title.setdefault(session.title_name, []).append(row)
        # compare steady/sparse size structure: distance within Genshin vs
        # Genshin-to-Fortnite
        genshin = by_title["Genshin Impact"]
        fortnite = by_title["Fortnite"]
        within = np.linalg.norm(genshin[0] - genshin[1])
        across = np.linalg.norm(genshin[0] - fortnite[0])
        assert across > within


class TestVolumetricLaunchFeatures:
    def test_vector_length_and_names(self, launch_only_session):
        vector = volumetric_launch_features(launch_only_session.packets)
        assert vector.shape == (len(FLOW_VOLUMETRIC_FEATURE_NAMES),)
        assert np.isfinite(vector).all()

    def test_invalid_window(self, launch_only_session):
        with pytest.raises(ValueError):
            volumetric_launch_features(launch_only_session.packets, window_seconds=0)

    def test_throughput_positive_on_launch(self, launch_only_session):
        vector = volumetric_launch_features(launch_only_session.packets)
        assert vector[2] > 0  # mean throughput
