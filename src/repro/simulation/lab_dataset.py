"""Lab traffic corpus builder (Table 2, §3.1).

The paper's lab dataset contains 531 labeled sessions (67 hours) across the
13 catalog titles and 8 device/OS/software configurations.  This module
builds an equivalent synthetic corpus — by default scaled down in session
count, duration and packet fidelity so that training and evaluation remain
laptop-friendly, with the full-size corpus available by passing the paper's
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.catalog import GAME_TITLES, GameTitle
from repro.simulation.devices import LAB_CONFIGURATIONS, DeviceConfiguration
from repro.simulation.session import GameSession, SessionConfig, SessionGenerator


@dataclass
class LabDataset:
    """A labeled corpus of synthetic gameplay sessions."""

    sessions: List[GameSession] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self):
        return iter(self.sessions)

    def titles(self) -> List[str]:
        """Distinct title names present in the corpus."""
        return sorted({session.title_name for session in self.sessions})

    def total_playtime_hours(self) -> float:
        """Total session duration across the corpus in hours."""
        return sum(session.duration for session in self.sessions) / 3600.0

    def summary_by_configuration(self) -> Dict[str, Dict[str, float]]:
        """Session count and playtime per device configuration (Table 2 shape)."""
        summary: Dict[str, Dict[str, float]] = {}
        for session in self.sessions:
            key = str(session.device) if session.device else "unspecified"
            entry = summary.setdefault(key, {"sessions": 0, "playtime_hours": 0.0})
            entry["sessions"] += 1
            entry["playtime_hours"] += session.duration / 3600.0
        return summary


def _lab_device_cycle() -> List[DeviceConfiguration]:
    """Device configurations weighted by their Table 2 session counts."""
    devices: List[DeviceConfiguration] = []
    for entry in LAB_CONFIGURATIONS.values():
        weight = max(1, int(round(entry["sessions"] / 50)))
        devices.extend([entry["config"]] * weight)
    return devices


def generate_lab_dataset(
    sessions_per_title: int = 4,
    titles: Optional[Sequence[GameTitle]] = None,
    gameplay_duration_s: float = 180.0,
    rate_scale: float = 0.08,
    launch_only: bool = False,
    launch_duration_s: Optional[float] = None,
    random_state: Optional[int] = None,
) -> LabDataset:
    """Generate a labeled lab corpus.

    Parameters
    ----------
    sessions_per_title:
        Number of sessions per catalog title (the paper's corpus averages
        ~40; the default is scaled down for fast tests).
    gameplay_duration_s:
        Gameplay duration of every session (launch stage excluded).
    rate_scale:
        Packet-count fidelity forwarded to the traffic models.
    launch_only:
        Generate only launch-stage packets (sufficient for the game-title
        classifier corpus and much cheaper).
    launch_duration_s:
        Optionally truncate launch stages (e.g. to the first ``N`` seconds).
    """
    if sessions_per_title <= 0:
        raise ValueError(
            f"sessions_per_title must be positive, got {sessions_per_title}"
        )
    titles = list(titles) if titles is not None else list(GAME_TITLES)
    generator = SessionGenerator(random_state=random_state)
    rng = np.random.default_rng(random_state)
    devices = _lab_device_cycle()

    sessions: List[GameSession] = []
    for title in titles:
        for _ in range(sessions_per_title):
            device = devices[int(rng.integers(0, len(devices)))]
            config = SessionConfig(
                gameplay_duration_s=gameplay_duration_s,
                rate_scale=rate_scale,
                launch_only=launch_only,
                launch_duration_s=launch_duration_s,
            )
            sessions.append(generator.generate(title, config=config, device=device))
    return LabDataset(sessions=sessions)
