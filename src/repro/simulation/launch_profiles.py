"""Per-title launch-stage packet fingerprints (Fig. 3).

During the launch stage of a cloud gaming session the cloud server streams a
title-specific opening animation.  The paper observes that the downstream
packets of this stage fall into three groups whose *relative* profile is a
stable fingerprint of the game title, independent of device and streaming
settings:

* **full** packets — fixed maximum payload (1432 bytes), streamed constantly;
* **steady** packets — payloads concentrated in one or a few narrow bands
  whose centre changes with the animation scene (i.e. per time slot);
* **sparse** packets — payloads scattered widely around their neighbours.

This module synthesises that structure.  Each catalog title gets a
deterministic :class:`LaunchProfile` derived from its ``launch_seed``: a
sequence of *scenes*, each defining per-second rates for the three packet
groups, a steady band centre/width and a sparse size range.  Sessions of the
same title share the profile (up to small per-session noise); different
titles differ in scene boundaries, band centres and group densities — exactly
the information the 51 packet-group attributes capture and plain volumetric
attributes miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.net.packet import Direction, PacketColumns
from repro.net.rtp import PAYLOAD_TYPE_VIDEO
from repro.simulation.catalog import GameTitle
from repro.simulation.devices import FULL_PACKET_PAYLOAD


@dataclass(frozen=True)
class SlotProfile:
    """Packet-group parameters for one second of the launch animation.

    Rates are packets per second at the nominal launch bitrate; payload
    sizes are bytes.
    """

    full_rate: float
    steady_rate: float
    steady_center: float
    steady_width: float
    sparse_rate: float
    sparse_low: float
    sparse_high: float

    def __post_init__(self) -> None:
        if min(self.full_rate, self.steady_rate, self.sparse_rate) < 0:
            raise ValueError("packet-group rates must be non-negative")
        if not 0 < self.steady_center <= FULL_PACKET_PAYLOAD:
            raise ValueError(f"steady_center out of range: {self.steady_center}")
        if not 0 <= self.sparse_low < self.sparse_high <= FULL_PACKET_PAYLOAD:
            raise ValueError(
                f"invalid sparse size range ({self.sparse_low}, {self.sparse_high})"
            )


@dataclass(frozen=True)
class LaunchProfile:
    """Deterministic launch fingerprint of one game title."""

    title_name: str
    duration_s: float
    slots: Tuple[SlotProfile, ...]

    def slot_at(self, second: int) -> SlotProfile:
        """The slot profile for launch second ``second`` (clamped)."""
        if not self.slots:
            raise ValueError(f"launch profile for {self.title_name} has no slots")
        index = min(max(second, 0), len(self.slots) - 1)
        return self.slots[index]

    def mean_bitrate_mbps(self) -> float:
        """Approximate mean downstream bitrate of the launch animation."""
        total_bytes = 0.0
        for slot in self.slots:
            total_bytes += slot.full_rate * FULL_PACKET_PAYLOAD
            total_bytes += slot.steady_rate * slot.steady_center
            total_bytes += slot.sparse_rate * (slot.sparse_low + slot.sparse_high) / 2
        if not self.slots:
            return 0.0
        return total_bytes * 8 / len(self.slots) / 1e6


@lru_cache(maxsize=64)
def _build_profile(title_name: str, launch_seed: int, launch_bitrate_mbps: float) -> LaunchProfile:
    """Construct the deterministic fingerprint for one title."""
    rng = np.random.default_rng(launch_seed)
    duration = float(rng.uniform(42.0, 60.0))
    n_slots = int(np.ceil(duration))

    # split the launch animation into scenes of a few seconds each
    scenes: List[Tuple[int, int]] = []
    cursor = 0
    while cursor < n_slots:
        scene_len = int(rng.integers(3, 10))
        scenes.append((cursor, min(cursor + scene_len, n_slots)))
        cursor += scene_len

    # budget bytes across the three groups (title-specific shares)
    full_share = float(rng.uniform(0.55, 0.8))
    steady_share = float(rng.uniform(0.1, 0.3))
    sparse_share = max(0.05, 1.0 - full_share - steady_share)
    bytes_per_second = launch_bitrate_mbps * 1e6 / 8.0

    slots: List[SlotProfile] = []
    scene_params = []
    for _start, _end in scenes:
        scene_params.append(
            {
                # steady band centre differs per scene and per title
                "steady_center": float(rng.uniform(180.0, 1250.0)),
                "steady_width": float(rng.uniform(8.0, 40.0)),
                # some scenes have little or no sparse/steady traffic
                "steady_on": bool(rng.random() > 0.2),
                "sparse_on": bool(rng.random() > 0.35),
                "sparse_low": float(rng.uniform(40.0, 300.0)),
                "sparse_high": float(rng.uniform(600.0, 1400.0)),
                "full_modulation": float(rng.uniform(0.6, 1.2)),
                "steady_modulation": float(rng.uniform(0.5, 1.5)),
                "sparse_modulation": float(rng.uniform(0.4, 1.6)),
            }
        )

    for scene_index, (start, end) in enumerate(scenes):
        params = scene_params[scene_index]
        for second in range(start, end):
            ripple = 1.0 + 0.08 * np.sin(2 * np.pi * second / max(4.0, n_slots / 3))
            full_rate = (
                bytes_per_second * full_share * params["full_modulation"] * ripple
            ) / FULL_PACKET_PAYLOAD
            steady_rate = 0.0
            if params["steady_on"]:
                steady_rate = (
                    bytes_per_second * steady_share * params["steady_modulation"]
                ) / params["steady_center"]
            sparse_rate = 0.0
            if params["sparse_on"]:
                sparse_mean = (params["sparse_low"] + params["sparse_high"]) / 2
                sparse_rate = (
                    bytes_per_second * sparse_share * params["sparse_modulation"]
                ) / sparse_mean
            slots.append(
                SlotProfile(
                    full_rate=max(1.0, full_rate),
                    steady_rate=steady_rate,
                    steady_center=params["steady_center"],
                    steady_width=params["steady_width"],
                    sparse_rate=sparse_rate,
                    sparse_low=params["sparse_low"],
                    sparse_high=min(params["sparse_high"], FULL_PACKET_PAYLOAD - 1),
                )
            )

    return LaunchProfile(title_name=title_name, duration_s=duration, slots=tuple(slots))


def launch_profile_for(title: GameTitle) -> LaunchProfile:
    """Return the (cached) launch fingerprint of a catalog title."""
    return _build_profile(title.name, title.launch_seed, title.launch_bitrate_mbps)


def generate_launch_columns(
    profile: LaunchProfile,
    rng: Optional[np.random.Generator] = None,
    rate_scale: float = 1.0,
    session_noise: float = 0.25,
    start_time: float = 0.0,
    src_ip: str = "203.0.113.10",
    dst_ip: str = "192.168.1.10",
    src_port: int = 49004,
    dst_port: int = 51000,
    ssrc: int = 0x47454F,
    duration_s: Optional[float] = None,
) -> PacketColumns:
    """Synthesise the downstream launch animation directly as arrays.

    Parameters
    ----------
    rate_scale:
        Global multiplier on packet rates; values below 1 produce reduced-
        fidelity sessions that preserve the relative structure (used to keep
        test corpora small).
    session_noise:
        Per-session multiplicative noise applied to group rates; the noise is
        shared across the whole session so that relative per-slot profiles
        stay intact (matching the paper's observation that the fingerprint is
        stable across sessions of the same title).
    duration_s:
        Optionally truncate the launch stage (e.g. when only the first N
        seconds are needed).
    """
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale}")
    rng = rng or np.random.default_rng()
    session_rate_factor = float(rng.uniform(1.0 - session_noise, 1.0 + session_noise))

    limit = profile.duration_s if duration_s is None else min(duration_s, profile.duration_s)
    n_slots = int(np.ceil(limit))
    time_batches: List[np.ndarray] = []
    size_batches: List[np.ndarray] = []
    # drawn (unused) to keep the RNG stream aligned with earlier revisions,
    # so seeded corpora stay reproducible across the columnar refactor
    _ = int(rng.integers(0, 30000))

    for second in range(n_slots):
        slot = profile.slot_at(second)
        slot_start = start_time + second
        slot_width = min(1.0, limit - second)
        if slot_width <= 0:
            break

        group_specs = (
            ("full", slot.full_rate, None),
            ("steady", slot.steady_rate, (slot.steady_center, slot.steady_width)),
            ("sparse", slot.sparse_rate, (slot.sparse_low, slot.sparse_high)),
        )
        for group, rate, size_spec in group_specs:
            expected = rate * rate_scale * session_rate_factor * slot_width
            count = int(rng.poisson(expected)) if expected > 0 else 0
            if count == 0:
                continue
            times = np.sort(rng.uniform(0.0, slot_width, size=count)) + slot_start
            if group == "full":
                sizes = np.full(count, FULL_PACKET_PAYLOAD, dtype=float)
            elif group == "steady":
                center, width = size_spec
                sizes = rng.uniform(center - width / 2, center + width / 2, size=count)
            else:
                low, high = size_spec
                sizes = rng.uniform(low, high, size=count)
            time_batches.append(times)
            size_batches.append(sizes)

    times = np.concatenate(time_batches) if time_batches else np.array([], dtype=float)
    sizes = np.concatenate(size_batches) if size_batches else np.array([], dtype=float)
    order = np.argsort(times, kind="stable")
    times = times[order]
    sizes = np.clip(sizes[order], 40, FULL_PACKET_PAYLOAD).astype(np.int64).astype(float)
    # RTP sequence numbers must follow transmission (time) order; the groups
    # above were generated group-by-group, so number after sorting.
    base_sequence = int(rng.integers(0, 30000))
    sequences = (base_sequence + np.arange(times.size, dtype=np.int64)) & 0xFFFF
    return PacketColumns.uniform(
        timestamps=times,
        payload_sizes=sizes,
        direction=Direction.DOWNSTREAM,
        address=(src_ip, dst_ip, src_port, dst_port, "udp"),
        rtp_payload_type=PAYLOAD_TYPE_VIDEO,
        rtp_ssrc=ssrc,
        rtp_sequence=sequences,
        rtp_timestamp=(times * 90_000).astype(np.int64) & 0xFFFFFFFF,
    )
