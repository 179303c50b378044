"""Equivalence tests: vectorized labeler/features vs the seed implementation.

The columnar refactor (DESIGN.md §3) replaced the per-packet Python loops of
the packet-group labeler and the 51-attribute extractor with vectorised
formulations.  These tests pin the new code against faithful copies of the
seed's reference implementations on randomized streams and edge cases:

* group labels must be **identical** (they are integer decisions);
* count / sum / mean / median / min / max attributes must be **identical**
  (they are exact in IEEE-754 for integer-valued payload columns);
* stddev / kurtosis / skew must agree to floating-point roundoff (the
  vectorised moments accumulate in a different order than ``np.std`` /
  ``scipy.stats``).
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.features import (
    _STAT_NAMES,
    PACKET_GROUP_FEATURE_NAMES,
    launch_feature_matrix,
    volumetric_launch_features,
)
from repro.core.packet_groups import (
    GROUP_CODES,
    LabeledSlot,
    PacketGroup,
    PacketGroupLabeler,
)
from repro.net.packet import DOWNSTREAM_CODE, RTP_NONE, UPSTREAM_CODE, Direction, PacketStream

from labeled_slots import slot_feature_matrix
from packet_rows import PacketRow, stream_of

FULL_SIZE = 1432

#: Feature columns that must be bit-identical (count, and the exact
#: statistics sum/mean/median/min/max of both value kinds, per group).
EXACT_COLUMNS = [
    i
    for i, name in enumerate(PACKET_GROUP_FEATURE_NAMES)
    if name.endswith(("_ct_sum", "_sum", "_mean", "_median", "_min", "_max"))
]
ROUNDOFF_COLUMNS = [
    i
    for i in range(len(PACKET_GROUP_FEATURE_NAMES))
    if i not in EXACT_COLUMNS
]


# --------------------------------------------------------------------------
# reference implementations (verbatim seed semantics, per-packet loops)
# --------------------------------------------------------------------------
def ref_steady_votes(sizes, size_variation, neighbor_window):
    count = sizes.size
    if count == 0:
        return []
    if count == 1:
        return [False]
    flags = []
    for index in range(count):
        low = max(0, index - neighbor_window)
        high = min(count, index + neighbor_window + 1)
        neighbors = np.concatenate([sizes[low:index], sizes[index + 1 : high]])
        if neighbors.size == 0:
            flags.append(False)
            continue
        tolerance = size_variation * sizes[index]
        close = np.abs(neighbors - sizes[index]) <= tolerance
        flags.append(bool(close.sum() * 2 >= neighbors.size))
    return flags


def ref_label_slot(sizes, full_size, labeler):
    labels = []
    if sizes.size == 0:
        return labels
    is_full = np.abs(sizes - full_size) <= labeler.full_tolerance
    non_full_indices = np.flatnonzero(~is_full)
    steady_flags = ref_steady_votes(
        sizes[non_full_indices], labeler.size_variation, labeler.neighbor_window
    )
    steady_lookup = dict(zip(non_full_indices.tolist(), steady_flags))
    for index in range(sizes.size):
        if is_full[index]:
            labels.append(PacketGroup.FULL)
        elif steady_lookup.get(index, False):
            labels.append(PacketGroup.STEADY)
        else:
            labels.append(PacketGroup.SPARSE)
    return labels


def ref_label_window(stream, labeler, window_seconds=None, origin=None):
    downstream = stream.filter_direction(Direction.DOWNSTREAM)
    origin = stream.start_time if origin is None else origin
    if window_seconds is None:
        window_seconds = max(downstream.duration, labeler.slot_duration)
    times = np.array(downstream.timestamps(), dtype=float)
    sizes = np.array(downstream.payload_sizes(), dtype=float)
    in_window = (times >= origin) & (times < origin + window_seconds)
    times = times[in_window]
    sizes = sizes[in_window]
    full_size = labeler.full_size
    if full_size is None:
        full_size = int(sizes.max()) if sizes.size else 0
    n_slots = int(np.ceil(window_seconds / labeler.slot_duration))
    slot_of_packet = (
        np.floor((times - origin) / labeler.slot_duration).astype(int)
        if times.size
        else np.array([], dtype=int)
    )
    slots = []
    for slot_index in range(n_slots):
        mask = slot_of_packet == slot_index
        slot_times = times[mask]
        slot_sizes = sizes[mask]
        order = np.argsort(slot_times, kind="mergesort")
        slots.append(
            (slot_times[order], slot_sizes[order],
             ref_label_slot(slot_sizes[order], full_size, labeler))
        )
    return slots


def ref_stat_vector(values):
    if values.size == 0:
        return [0.0] * len(_STAT_NAMES)
    if values.size == 1:
        value = float(values[0])
        return [value, value, value, value, value, 0.0, 0.0, 0.0]
    std = float(values.std())
    if std > 1e-12:
        with np.errstate(all="ignore"):
            kurtosis = float(stats.kurtosis(values, bias=True))
            skew = float(stats.skew(values, bias=True))
        if not np.isfinite(kurtosis):
            kurtosis = 0.0
        if not np.isfinite(skew):
            skew = 0.0
    else:
        kurtosis = 0.0
        skew = 0.0
    return [
        float(values.sum()),
        float(values.mean()),
        float(np.median(values)),
        float(values.min()),
        float(values.max()),
        std,
        kurtosis,
        skew,
    ]


def ref_slot_features(slot_times, slot_sizes, labels):
    features = []
    labels = np.array([GROUP_CODES[label] for label in labels], dtype=np.int8)
    for group in (PacketGroup.FULL, PacketGroup.STEADY, PacketGroup.SPARSE):
        mask = labels == GROUP_CODES[group]
        sizes = slot_sizes[mask]
        times = slot_times[mask]
        interarrivals = np.diff(np.sort(times)) if times.size >= 2 else np.array([])
        features.append(float(mask.sum()))
        features.extend(ref_stat_vector(sizes))
        features.extend(ref_stat_vector(interarrivals))
    return np.array(features, dtype=float)


def ref_volumetric(stream, window_seconds=5.0, slot_duration=1.0):
    downstream = stream.filter_direction(Direction.DOWNSTREAM)
    origin = stream.start_time
    times = np.array(downstream.timestamps(), dtype=float)
    sizes = np.array(downstream.payload_sizes(), dtype=float)
    in_window = (times >= origin) & (times < origin + window_seconds)
    times = times[in_window]
    sizes = sizes[in_window]
    n_slots = max(1, int(np.ceil(window_seconds / slot_duration)))
    rates = np.zeros(n_slots)
    throughputs = np.zeros(n_slots)
    if times.size:
        indices = np.floor((times - origin) / slot_duration).astype(int)
        indices = np.clip(indices, 0, n_slots - 1)
        for slot in range(n_slots):
            mask = indices == slot
            rates[slot] = mask.sum() / slot_duration
            throughputs[slot] = sizes[mask].sum() * 8 / slot_duration / 1e6
    return np.array(
        [rates.mean(), rates.std(), throughputs.mean(), throughputs.std()],
        dtype=float,
    )


# --------------------------------------------------------------------------
# randomized stream factory
# --------------------------------------------------------------------------
def random_stream(seed, n_packets=400, window=6.0, tie_fraction=0.05):
    """A randomized launch-like stream mixing full, banded and scattered sizes."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=n_packets, p=[0.45, 0.35, 0.20])
    sizes = np.empty(n_packets)
    sizes[kinds == 0] = FULL_SIZE
    band_center = rng.uniform(200, 1200)
    sizes[kinds == 1] = rng.normal(band_center, 12, size=int((kinds == 1).sum()))
    sizes[kinds == 2] = rng.uniform(40, 1400, size=int((kinds == 2).sum()))
    sizes = np.clip(sizes, 40, FULL_SIZE).astype(int)
    times = rng.uniform(0.0, window, size=n_packets)
    # introduce timestamp ties to exercise stable ordering
    n_ties = int(n_packets * tie_fraction)
    if n_ties:
        times[rng.choice(n_packets, n_ties, replace=False)] = np.round(
            rng.uniform(0, window, n_ties), 1
        )
    directions = np.where(rng.random(n_packets) < 0.85, 0, 1)
    return PacketStream.from_arrays(times, sizes, directions)


def assert_features_equivalent(got, ref):
    got = np.atleast_2d(got)
    ref = np.atleast_2d(ref)
    np.testing.assert_array_equal(got[:, EXACT_COLUMNS], ref[:, EXACT_COLUMNS])
    np.testing.assert_allclose(
        got[:, ROUNDOFF_COLUMNS], ref[:, ROUNDOFF_COLUMNS], rtol=1e-9, atol=1e-9
    )


# --------------------------------------------------------------------------
# labeler equivalence
# --------------------------------------------------------------------------
LABELER_VARIANTS = [
    dict(),
    dict(size_variation=0.01),
    dict(size_variation=0.20),
    dict(neighbor_window=1),
    dict(neighbor_window=4),
    dict(full_tolerance=0),
    dict(slot_duration=0.5),
]


class TestLabelerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("variant", range(len(LABELER_VARIANTS)))
    def test_labels_identical_on_random_streams(self, seed, variant):
        stream = random_stream(seed)
        labeler = PacketGroupLabeler(**LABELER_VARIANTS[variant])
        got = labeler.label_window(stream, window_seconds=6.0)
        ref = ref_label_window(stream, labeler, window_seconds=6.0)
        assert len(got) == len(ref)
        for got_slot, (ref_times, ref_sizes, ref_labels) in zip(got, ref):
            np.testing.assert_array_equal(got_slot.timestamps, ref_times)
            np.testing.assert_array_equal(got_slot.payload_sizes, ref_sizes)
            assert got_slot.labels == ref_labels

    def test_steady_votes_match_reference(self):
        rng = np.random.default_rng(11)
        labeler = PacketGroupLabeler()
        for trial in range(50):
            n = int(rng.integers(0, 30))
            sizes = rng.uniform(40, 1400, size=n)
            got = labeler._steady_votes(sizes, np.zeros(n, dtype=np.intp))
            ref = ref_steady_votes(sizes, labeler.size_variation, labeler.neighbor_window)
            assert list(got) == ref

    def test_empty_stream(self):
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(PacketStream(), window_seconds=3.0)
        assert len(slots) == 3
        assert all(slot.label_codes.size == 0 for slot in slots)

    def test_single_non_full_packet_is_sparse(self):
        packets = [
            PacketRow(timestamp=0.1, direction=Direction.DOWNSTREAM, payload_size=FULL_SIZE),
            PacketRow(timestamp=0.2, direction=Direction.DOWNSTREAM, payload_size=700),
        ]
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(stream_of(packets), window_seconds=1.0)
        assert slots[0].labels == [PacketGroup.FULL, PacketGroup.SPARSE]

    def test_all_full_slot(self):
        packets = [
            PacketRow(timestamp=0.1 * i, direction=Direction.DOWNSTREAM, payload_size=FULL_SIZE)
            for i in range(8)
        ]
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(stream_of(packets), window_seconds=1.0)
        assert labeler.group_counts(slots[:1]) == {
            PacketGroup.FULL: 8, PacketGroup.STEADY: 0, PacketGroup.SPARSE: 0
        }


# --------------------------------------------------------------------------
# feature equivalence
# --------------------------------------------------------------------------
class TestFeatureEquivalence:
    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_slot_feature_matrix_matches_reference(self, seed):
        stream = random_stream(seed)
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(stream, window_seconds=6.0)
        got = slot_feature_matrix(slots)
        ref = np.stack(
            [
                ref_slot_features(slot.timestamps, slot.payload_sizes, slot.labels)
                for slot in slots
            ]
        )
        assert_features_equivalent(got, ref)

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_launch_features_both_aggregates(self, seed):
        stream = random_stream(seed)
        labeler = PacketGroupLabeler()
        slots = labeler.label_window(stream, window_seconds=5.0)
        ref_rows = np.stack(
            [
                ref_slot_features(slot.timestamps, slot.payload_sizes, slot.labels)
                for slot in slots
            ]
        )
        mean_vector = launch_feature_matrix([stream], window_seconds=5.0)[0]
        np.testing.assert_allclose(
            mean_vector, ref_rows.mean(axis=0), rtol=1e-9, atol=1e-9
        )
        concat_vector = launch_feature_matrix([stream], window_seconds=5.0, aggregate="concat")[0]
        np.testing.assert_allclose(
            concat_vector, ref_rows.reshape(-1), rtol=1e-9, atol=1e-9
        )

    def test_launch_feature_matrix_matches_per_session(self):
        streams = [random_stream(seed) for seed in (30, 31, 32, 33)]
        matrix = launch_feature_matrix(streams, window_seconds=5.0)
        per_session = np.stack(
            [launch_feature_matrix([stream], window_seconds=5.0)[0] for stream in streams]
        )
        np.testing.assert_allclose(matrix, per_session, rtol=1e-12, atol=1e-12)

    def test_empty_slot_features_all_zero(self):
        slot = LabeledSlot(
            slot_index=0,
            timestamps=np.array([]),
            payload_sizes=np.array([]),
            label_codes=np.array([], dtype=np.int8),
        )
        np.testing.assert_array_equal(slot_feature_matrix([slot])[0], np.zeros(51))

    def test_single_packet_slot_features(self):
        slot = LabeledSlot(
            slot_index=0,
            timestamps=np.array([0.5]),
            payload_sizes=np.array([700.0]),
            label_codes=np.array([GROUP_CODES[PacketGroup.SPARSE]], dtype=np.int8),
        )
        got = slot_feature_matrix([slot])[0]
        ref = ref_slot_features(
            np.array([0.5]), np.array([700.0]), [PacketGroup.SPARSE]
        )
        np.testing.assert_array_equal(got, ref)

    def test_unsorted_hand_built_slot_matches_reference(self):
        # a LabeledSlot whose timestamps are not chronological must still
        # reproduce the seed's np.diff(np.sort(times)) inter-arrival stats
        times = np.array([3.0, 1.0, 2.0])
        sizes = np.array([500.0, 510.0, 505.0])
        labels = [PacketGroup.STEADY] * 3
        slot = LabeledSlot(0, times, sizes, labels)
        got = slot_feature_matrix([slot])[0]
        ref = ref_slot_features(times, sizes, labels)
        assert_features_equivalent(got, ref)

    def test_label_codes_accepts_plain_int_list(self):
        slot = LabeledSlot(0, np.array([0.1, 0.2]), np.array([10.0, 20.0]), [0, 2])
        assert slot.labels == [PacketGroup.FULL, PacketGroup.SPARSE]

    def test_label_codes_validated(self):
        with pytest.raises(ValueError, match="must match"):
            LabeledSlot(0, np.arange(4.0), np.full(4, 100.0), [0, 1])
        with pytest.raises(ValueError, match="within 0..2"):
            LabeledSlot(0, np.array([0.1, 0.2]), np.array([10.0, 20.0]), [0, 3])

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_volumetric_matches_reference(self, seed):
        stream = random_stream(seed)
        got = volumetric_launch_features(stream, window_seconds=5.0)
        ref = ref_volumetric(stream, window_seconds=5.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------
# columnar stream semantics
# --------------------------------------------------------------------------
class TestColumnarStreamEquivalence:
    def test_between_is_zero_copy_view(self):
        stream = random_stream(50)
        window = stream.between(1.0, 3.0)
        assert np.shares_memory(window.timestamps(), stream.timestamps())

    def test_filter_direction_counts(self):
        stream = random_stream(51)
        down = stream.filter_direction(Direction.DOWNSTREAM)
        up = stream.filter_direction(Direction.UPSTREAM)
        assert len(down) + len(up) == len(stream)
        assert np.all(down.columns().directions == DOWNSTREAM_CODE)

    def test_aggregates_match_object_loop(self):
        stream = random_stream(52)
        rows = list(zip(stream.payload_sizes().tolist(), stream.columns().directions.tolist()))
        assert stream.total_bytes() == sum(size for size, _ in rows)
        assert stream.total_bytes(Direction.UPSTREAM) == sum(
            size for size, code in rows if code == UPSTREAM_CODE
        )

    def test_misaligned_optional_columns_rejected(self):
        from repro.net.packet import PacketColumns

        with pytest.raises(ValueError, match="rtp_sequence"):
            PacketColumns(
                timestamps=np.arange(5.0),
                payload_sizes=np.full(5, 100.0),
                directions=np.zeros(5, dtype=np.int8),
                rtp_sequence=np.arange(3, dtype=np.int64),
            )

    def test_rtp_columns(self):
        packets = [
            PacketRow(timestamp=0.1, direction=Direction.DOWNSTREAM, payload_size=10,
                      rtp_sequence=7, rtp_timestamp=900, rtp_ssrc=1),
            PacketRow(timestamp=0.2, direction=Direction.DOWNSTREAM, payload_size=10),
            PacketRow(timestamp=0.3, direction=Direction.DOWNSTREAM, payload_size=10,
                      rtp_sequence=9, rtp_timestamp=901, rtp_ssrc=1),
        ]
        stream = stream_of(packets)
        columns = stream.columns()
        np.testing.assert_array_equal(columns.rtp_sequence, [7, RTP_NONE, 9])
        np.testing.assert_array_equal(columns.rtp_timestamp, [900, RTP_NONE, 901])
        assert stream.has_rtp
        assert not stream_of([packets[1]]).has_rtp
