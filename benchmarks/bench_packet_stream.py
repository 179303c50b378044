"""Micro-benchmarks for the columnar :class:`PacketStream` backend.

These track the substrate-level costs every pipeline stage pays (see
DESIGN.md §4): stream construction, direction filtering with vector views,
time-window slicing, and the batched 10k-session launch feature matrix.
``scripts/perf_smoke.py`` runs the same workloads standalone and writes a
``BENCH_*.json`` snapshot for cross-PR tracking.
"""

import numpy as np
import pytest

from repro.core.features import launch_feature_matrix
from repro.net.packet import Direction, PacketStream

N_PACKETS = 100_000


def _random_arrays(n=N_PACKETS, seed=7):
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0, 100, n))
    sizes = rng.integers(40, 1432, n).astype(float)
    directions = np.where(rng.random(n) < 0.8, 0, 1).astype(np.int8)
    return timestamps, sizes, directions


@pytest.fixture(scope="module")
def big_stream():
    timestamps, sizes, directions = _random_arrays()
    return PacketStream.from_arrays(timestamps, sizes, directions, assume_sorted=True)


@pytest.mark.benchmark(group="packet-stream")
def test_bench_construction_from_arrays(benchmark):
    timestamps, sizes, directions = _random_arrays()
    stream = benchmark(
        PacketStream.from_arrays, timestamps, sizes, directions, assume_sorted=True
    )
    assert len(stream) == N_PACKETS


@pytest.mark.benchmark(group="packet-stream")
def test_bench_filter_direction_views(benchmark, big_stream):
    def workload():
        down = big_stream.filter_direction(Direction.DOWNSTREAM)
        return down.timestamps(), down.payload_sizes()

    times, sizes = benchmark(workload)
    assert times.size == sizes.size > 0


@pytest.mark.benchmark(group="packet-stream")
def test_bench_window_slice(benchmark, big_stream):
    def workload():
        window = big_stream.first_seconds(5.0)
        return window.timestamps()

    times = benchmark(workload)
    assert times.size > 0


@pytest.mark.benchmark(group="packet-stream")
def test_bench_feature_matrix_10k_sessions(benchmark):
    rng = np.random.default_rng(3)
    streams = []
    for _ in range(10_000):
        n = int(rng.integers(40, 80))
        timestamps = np.sort(rng.uniform(0, 5, n))
        sizes = np.where(
            rng.random(n) < 0.5, 1432.0, rng.uniform(40, 1400, n).round()
        )
        streams.append(
            PacketStream.from_arrays(
                timestamps, sizes, Direction.DOWNSTREAM, assume_sorted=True
            )
        )
    matrix = benchmark.pedantic(
        launch_feature_matrix, args=(streams,), kwargs={"window_seconds": 5.0},
        rounds=1, iterations=1,
    )
    assert matrix.shape == (10_000, 51)
