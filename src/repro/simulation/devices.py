"""User device, software and streaming-setting profiles (Table 2).

The lab dataset covers eight device/OS/software configurations spanning
Windows and macOS PCs, Android and iOS phones, an Android TV and an Xbox
console, each streaming at resolutions between SD and UHD and frame rates
between 30 and 120 fps.  Streaming settings determine the encoder target
bitrate (and therefore the absolute volumetric levels of a session) while
leaving the *relative* per-stage and per-title structure unchanged — the
property the paper's classifiers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

import numpy as np


class Resolution(Enum):
    """Streaming resolution tiers used in Table 2."""

    SD = "SD"        # 854x480
    HD = "HD"        # 1280x720
    FHD = "FHD"      # 1920x1080
    QHD = "QHD"      # 2560x1440
    UHD = "UHD"      # 3840x2160

#: Maximum UDP payload of a full video packet on the GeForce NOW path
#: (observed as a fixed maximum payload size in Fig. 3).
FULL_PACKET_PAYLOAD = 1432

#: Typical upstream input-packet payload sizes in bytes.
INPUT_PACKET_MEAN = 120
INPUT_PACKET_STD = 30


@dataclass(frozen=True)
class StreamingSettings:
    """Per-session streaming configuration.

    Attributes
    ----------
    resolution:
        Encoder output resolution tier.
    fps:
        Target streaming frame rate (30–120 in Table 2).
    """

    resolution: Resolution = Resolution.FHD
    fps: int = 60

    def __post_init__(self) -> None:
        if not 10 <= self.fps <= 240:
            raise ValueError(f"fps out of range: {self.fps}")


@dataclass(frozen=True)
class DeviceConfiguration:
    """A device/OS/software row of Table 2.

    ``resolution_range`` bounds the resolutions this configuration supports
    (e.g. mobile browsers cap at FHD), and ``fps_options`` lists the frame
    rates users pick from.
    """

    device: str
    os: str
    software: str
    resolution_range: Tuple[Resolution, Resolution]
    fps_options: Tuple[int, ...] = (30, 60, 120)

    def __str__(self) -> str:
        return f"{self.device}/{self.os}/{self.software}"

    def supported_resolutions(self) -> Tuple[Resolution, ...]:
        """Resolutions within this configuration's supported range."""
        ordered = list(Resolution)
        low, high = self.resolution_range
        low_index = ordered.index(low)
        high_index = ordered.index(high)
        if low_index > high_index:
            low_index, high_index = high_index, low_index
        return tuple(ordered[low_index : high_index + 1])

    def sample_settings(
        self, rng: Optional[np.random.Generator] = None
    ) -> StreamingSettings:
        """Draw a random resolution/fps combination for this configuration."""
        rng = rng or np.random.default_rng()
        resolutions = self.supported_resolutions()
        resolution = resolutions[int(rng.integers(0, len(resolutions)))]
        fps = int(self.fps_options[int(rng.integers(0, len(self.fps_options)))])
        return StreamingSettings(resolution=resolution, fps=fps)


#: The eight lab configurations of Table 2, keyed by a short identifier, with
#: the number of sessions and playtime hours the paper captured for each.
LAB_CONFIGURATIONS: Dict[str, dict] = {
    "windows-app": {
        "config": DeviceConfiguration(
            device="PC", os="Windows", software="Native app",
            resolution_range=(Resolution.SD, Resolution.UHD),
        ),
        "sessions": 89,
        "playtime_hours": 10.9,
    },
    "windows-browser": {
        "config": DeviceConfiguration(
            device="PC", os="Windows", software="Browser",
            resolution_range=(Resolution.SD, Resolution.QHD),
        ),
        "sessions": 60,
        "playtime_hours": 6.8,
    },
    "macos-app": {
        "config": DeviceConfiguration(
            device="PC", os="macOS", software="Native app",
            resolution_range=(Resolution.SD, Resolution.UHD),
        ),
        "sessions": 76,
        "playtime_hours": 10.5,
    },
    "macos-browser": {
        "config": DeviceConfiguration(
            device="PC", os="macOS", software="Browser",
            resolution_range=(Resolution.SD, Resolution.QHD),
        ),
        "sessions": 61,
        "playtime_hours": 7.7,
    },
    "android-app": {
        "config": DeviceConfiguration(
            device="Mobile", os="Android", software="Native app",
            resolution_range=(Resolution.FHD, Resolution.QHD),
        ),
        "sessions": 73,
        "playtime_hours": 9.1,
    },
    "ios-browser": {
        "config": DeviceConfiguration(
            device="Mobile", os="iOS", software="Browser",
            resolution_range=(Resolution.SD, Resolution.FHD),
        ),
        "sessions": 70,
        "playtime_hours": 8.8,
    },
    "androidtv-app": {
        "config": DeviceConfiguration(
            device="TV", os="AndroidTV", software="Native app",
            resolution_range=(Resolution.SD, Resolution.FHD),
        ),
        "sessions": 48,
        "playtime_hours": 6.1,
    },
    "xbox-browser": {
        "config": DeviceConfiguration(
            device="Console", os="Xbox", software="Browser",
            resolution_range=(Resolution.SD, Resolution.FHD),
        ),
        "sessions": 54,
        "playtime_hours": 7.1,
    },
}


def total_lab_sessions() -> int:
    """Total number of lab sessions across all configurations (531)."""
    return sum(entry["sessions"] for entry in LAB_CONFIGURATIONS.values())


def total_lab_playtime_hours() -> float:
    """Total lab playtime in hours (~67)."""
    return float(sum(entry["playtime_hours"] for entry in LAB_CONFIGURATIONS.values()))
