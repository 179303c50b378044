"""End-to-end synthetic gameplay session generation.

A :class:`GameSession` bundles everything the paper's lab dataset provides
for one session: the packet capture, the game-context ground truth (title,
genre, gameplay activity pattern), the user configuration (device, streaming
settings) and the timestamped player-activity-stage labels.  The
:class:`SessionGenerator` assembles sessions from the launch fingerprint,
activity-stage Markov model and per-stage traffic model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.net.conditions import NetworkConditions, apply_conditions_columns
from repro.net.packet import PacketColumns, PacketStream
from repro.simulation.activity_model import (
    ActivityPatternModel,
    StageInterval,
    gameplay_fractions,
    stage_at,
)
from repro.simulation.catalog import (
    ActivityPattern,
    GameTitle,
    Genre,
    PlayerStage,
    get_title,
)
from repro.simulation.devices import DeviceConfiguration, StreamingSettings
from repro.simulation.launch_profiles import (
    generate_launch_columns,
    launch_profile_for,
)
from repro.simulation.traffic import StageTrafficModel

#: Default addressing for synthetic sessions.
DEFAULT_SERVER_IP = "203.0.113.10"
DEFAULT_CLIENT_IP = "192.168.1.10"
DEFAULT_SERVER_PORT = 49004
DEFAULT_CLIENT_PORT = 51000


@dataclass
class SessionConfig:
    """Parameters controlling the generation of one session.

    Attributes
    ----------
    gameplay_duration_s:
        Duration of gameplay after the launch stage.
    rate_scale:
        Fidelity control forwarded to the traffic models; scaling down keeps
        relative structure while shrinking packet counts (useful for fast
        test corpora).
    launch_only:
        Generate only the launch stage (used by the title classifier's
        training corpus, which never needs gameplay packets).
    launch_duration_s:
        Override the launch duration; defaults to the title fingerprint's.
    conditions:
        Access-network conditions applied to the final packet stream.
    """

    gameplay_duration_s: float = 240.0
    rate_scale: float = 1.0
    launch_only: bool = False
    launch_duration_s: Optional[float] = None
    conditions: NetworkConditions = field(default_factory=NetworkConditions.ideal)

    def __post_init__(self) -> None:
        if self.gameplay_duration_s <= 0 and not self.launch_only:
            raise ValueError(
                f"gameplay_duration_s must be positive, got {self.gameplay_duration_s}"
            )
        if self.rate_scale <= 0:
            raise ValueError(f"rate_scale must be positive, got {self.rate_scale}")


@dataclass
class GameSession:
    """A labeled synthetic cloud-gaming session."""

    title: GameTitle
    settings: StreamingSettings
    device: Optional[DeviceConfiguration]
    timeline: List[StageInterval]
    packets: PacketStream
    conditions: NetworkConditions
    client_ip: str = DEFAULT_CLIENT_IP
    server_ip: str = DEFAULT_SERVER_IP
    session_id: int = 0
    #: packet-count fidelity the session was generated at; 1.0 is physical
    #: scale.  Consumers measuring absolute throughput should divide by this.
    rate_scale: float = 1.0

    # ------------------------------------------------------------ metadata
    @property
    def title_name(self) -> str:
        return self.title.name

    @property
    def genre(self) -> Genre:
        return self.title.genre

    @property
    def pattern(self) -> ActivityPattern:
        return self.title.pattern

    @property
    def duration(self) -> float:
        """Total session duration including launch (seconds)."""
        if not self.timeline:
            return 0.0
        return self.timeline[-1].end

    def stage_at(self, timestamp: float) -> PlayerStage:
        """Ground-truth player activity stage at a timestamp."""
        return stage_at(self.timeline, timestamp)

    def gameplay_start(self) -> float:
        """Timestamp at which gameplay (post-launch) begins."""
        for interval in self.timeline:
            if interval.stage is not PlayerStage.LAUNCH:
                return interval.start
        return 0.0

    def stage_fractions(self) -> Dict[PlayerStage, float]:
        """Fraction of gameplay time per stage (ground truth)."""
        return gameplay_fractions(self.timeline)

    def slot_ground_truth(self, slot_duration: float = 1.0) -> List[PlayerStage]:
        """Ground-truth stage per slot over the whole session."""
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        n_slots = int(np.ceil(self.duration / slot_duration))
        return [
            self.stage_at((index + 0.5) * slot_duration) for index in range(n_slots)
        ]


class SessionGenerator:
    """Generates labeled synthetic sessions for catalog titles."""

    def __init__(self, random_state: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(random_state)
        self._session_counter = 0

    def _next_rng(self) -> np.random.Generator:
        return np.random.default_rng(self._rng.integers(0, 2**63 - 1))

    def generate(
        self,
        title,
        config: Optional[SessionConfig] = None,
        settings: Optional[StreamingSettings] = None,
        device: Optional[DeviceConfiguration] = None,
    ) -> GameSession:
        """Generate one session.

        Parameters
        ----------
        title:
            A :class:`~repro.simulation.catalog.GameTitle` or a title name.
        config:
            Generation parameters; defaults to a 4-minute full-fidelity
            session under ideal network conditions.
        settings:
            Streaming settings; when omitted and a device is given, sampled
            from the device's supported options, otherwise FHD/60fps.
        """
        if isinstance(title, str):
            title = get_title(title)
        config = config or SessionConfig()
        rng = self._next_rng()
        if settings is None:
            settings = (
                device.sample_settings(rng) if device is not None else StreamingSettings()
            )

        profile = launch_profile_for(title)
        launch_duration = (
            config.launch_duration_s
            if config.launch_duration_s is not None
            else profile.duration_s
        )

        launch_columns = generate_launch_columns(
            profile,
            rng=rng,
            rate_scale=config.rate_scale,
            duration_s=launch_duration,
            src_ip=DEFAULT_SERVER_IP,
            dst_ip=DEFAULT_CLIENT_IP,
            src_port=DEFAULT_SERVER_PORT,
            dst_port=DEFAULT_CLIENT_PORT,
        )

        if config.launch_only:
            timeline = [
                StageInterval(stage=PlayerStage.LAUNCH, start=0.0, end=launch_duration)
            ]
            all_columns = launch_columns
        else:
            model = ActivityPatternModel(
                pattern=title.pattern, launch_duration_s=launch_duration
            )
            timeline = model.sample_timeline(
                gameplay_duration_s=config.gameplay_duration_s,
                rng=rng,
                launch_duration_s=launch_duration,
            )
            traffic = StageTrafficModel(
                title=title, settings=settings, rate_scale=config.rate_scale, rng=rng
            )
            batches = [launch_columns]
            for interval in timeline:
                if interval.stage is PlayerStage.LAUNCH:
                    continue
                batches.append(
                    traffic.generate_stage_columns(
                        stage=interval.stage,
                        start=interval.start,
                        end=interval.end,
                        src_ip=DEFAULT_SERVER_IP,
                        dst_ip=DEFAULT_CLIENT_IP,
                        src_port=DEFAULT_SERVER_PORT,
                        dst_port=DEFAULT_CLIENT_PORT,
                    )
                )
            all_columns = PacketColumns.concat(batches)

        shaped = apply_conditions_columns(all_columns, config.conditions, rng=rng)
        self._session_counter += 1
        return GameSession(
            title=title,
            settings=settings,
            device=device,
            timeline=timeline,
            packets=PacketStream.from_columns(shaped, assume_sorted=True),
            conditions=config.conditions,
            session_id=self._session_counter,
            rate_scale=config.rate_scale,
        )
