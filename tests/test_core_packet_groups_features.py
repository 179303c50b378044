"""Tests for packet-group labeling (§4.2.1) and the 51 launch attributes (§4.2.2)."""

import numpy as np
import pytest

from repro.core.features import (
    FLOW_VOLUMETRIC_FEATURE_NAMES,
    PACKET_GROUP_FEATURE_NAMES,
    launch_feature_matrix,
    volumetric_launch_features,
)
from repro.core.packet_groups import PacketGroup, PacketGroupLabeler
from repro.net.packet import Direction, PacketStream
from repro.simulation.devices import FULL_PACKET_PAYLOAD


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
        with pytest.raises(ValueError):
            launch_feature_matrix([])

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
