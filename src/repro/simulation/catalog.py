"""The cloud game catalog (Table 1) and per-title behavioural parameters.

Table 1 of the paper lists the 13 most popular GeForce NOW titles in the
studied geography together with their genre, gameplay activity pattern and
share of total playtime.  Sections 5.1/5.2 additionally report per-title
session durations, stage compositions and bandwidth clusters; the constants
here encode those *shapes* so the ISP-scale simulator reproduces them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple


class Genre(Enum):
    """Game genre as defined by the gaming community (Table 1)."""

    SHOOTER = "shooter"
    ROLE_PLAYING = "role-playing"
    SPORTS = "sports"
    MOBA = "moba"
    CARD = "card"


class ActivityPattern(Enum):
    """Gameplay activity pattern (§2.1)."""

    SPECTATE_AND_PLAY = "spectate-and-play"
    CONTINUOUS_PLAY = "continuous-play"


class PlayerStage(Enum):
    """Player activity stage within a gameplay session (§2.1)."""

    LAUNCH = "launch"
    IDLE = "idle"
    PASSIVE = "passive"
    ACTIVE = "active"

    @classmethod
    def gameplay_stages(cls) -> Tuple["PlayerStage", ...]:
        """The three stages classified by the pipeline (launch excluded)."""
        return (cls.IDLE, cls.PASSIVE, cls.ACTIVE)


@dataclass(frozen=True)
class GameTitle:
    """One catalog entry with the parameters used by the simulator.

    Attributes
    ----------
    name, genre, pattern, popularity:
        Direct Table 1 columns (popularity = fraction of total playtime).
    mean_session_minutes:
        Average streaming session duration observed in the ISP deployment
        (Fig. 11a shape).
    stage_fractions:
        Mean fraction of gameplay time in idle/passive/active stages
        (Fig. 11a shape).
    bitrate_clusters_mbps:
        Per-title clusters of session-average downstream throughput in Mbps
        (Fig. 12a shape); each cluster corresponds to a group of streaming
        settings (resolution/device).
    launch_seed:
        Deterministic seed for the title's launch-animation fingerprint
        (Fig. 3): sessions of the same title share the fingerprint, distinct
        titles differ.
    launch_bitrate_mbps:
        Typical downstream bitrate during the launch animation.
    """

    name: str
    genre: Genre
    pattern: ActivityPattern
    popularity: float
    mean_session_minutes: float
    stage_fractions: Dict[PlayerStage, float] = field(default_factory=dict)
    bitrate_clusters_mbps: Tuple[Tuple[float, float], ...] = ((10.0, 25.0),)
    launch_seed: int = 0
    launch_bitrate_mbps: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError(f"popularity must be in [0, 1], got {self.popularity}")
        if self.mean_session_minutes <= 0:
            raise ValueError(
                f"mean_session_minutes must be positive, got {self.mean_session_minutes}"
            )
        total = sum(self.stage_fractions.values())
        if self.stage_fractions and not 0.99 <= total <= 1.01:
            raise ValueError(
                f"stage_fractions for {self.name} must sum to 1, got {total:.3f}"
            )
        for low, high in self.bitrate_clusters_mbps:
            if not 0 < low < high:
                raise ValueError(
                    f"invalid bitrate cluster ({low}, {high}) for {self.name}"
                )

    def stage_fraction(self, stage: PlayerStage) -> float:
        """Fraction of gameplay time spent in ``stage`` (0 when unknown)."""
        return self.stage_fractions.get(stage, 0.0)


def _fractions(idle: float, passive: float, active: float) -> Dict[PlayerStage, float]:
    return {
        PlayerStage.IDLE: idle,
        PlayerStage.PASSIVE: passive,
        PlayerStage.ACTIVE: active,
    }


#: The 13 popular titles of Table 1.  Popularity values are the paper's
#: playtime shares; duration/stage/bitrate parameters encode the shapes of
#: Fig. 11a and Fig. 12a.
GAME_TITLES: Tuple[GameTitle, ...] = (
    GameTitle(
        name="Fortnite",
        genre=Genre.SHOOTER,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.3780,
        mean_session_minutes=48.0,
        stage_fractions=_fractions(0.15, 0.18, 0.67),
        bitrate_clusters_mbps=((9.0, 18.0), (22.0, 34.0), (40.0, 68.0)),
        launch_seed=101,
        launch_bitrate_mbps=12.0,
    ),
    GameTitle(
        name="Genshin Impact",
        genre=Genre.ROLE_PLAYING,
        pattern=ActivityPattern.CONTINUOUS_PLAY,
        popularity=0.2010,
        mean_session_minutes=65.0,
        stage_fractions=_fractions(0.22, 0.05, 0.73),
        bitrate_clusters_mbps=((8.0, 16.0), (18.0, 30.0), (32.0, 50.0)),
        launch_seed=102,
        launch_bitrate_mbps=14.0,
    ),
    GameTitle(
        name="Baldur's Gate 3",
        genre=Genre.ROLE_PLAYING,
        pattern=ActivityPattern.CONTINUOUS_PLAY,
        popularity=0.0330,
        mean_session_minutes=95.0,
        stage_fractions=_fractions(0.30, 0.08, 0.62),
        bitrate_clusters_mbps=((10.0, 20.0), (24.0, 38.0), (45.0, 68.0)),
        launch_seed=103,
        launch_bitrate_mbps=15.0,
    ),
    GameTitle(
        name="R6: Siege",
        genre=Genre.SHOOTER,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0124,
        mean_session_minutes=70.0,
        stage_fractions=_fractions(0.22, 0.26, 0.52),
        bitrate_clusters_mbps=((8.0, 16.0), (18.0, 30.0), (32.0, 48.0)),
        launch_seed=104,
        launch_bitrate_mbps=11.0,
    ),
    GameTitle(
        name="Honkai: Star Rail",
        genre=Genre.ROLE_PLAYING,
        pattern=ActivityPattern.CONTINUOUS_PLAY,
        popularity=0.0116,
        mean_session_minutes=60.0,
        stage_fractions=_fractions(0.35, 0.10, 0.55),
        bitrate_clusters_mbps=((6.0, 12.0), (14.0, 24.0), (26.0, 40.0)),
        launch_seed=105,
        launch_bitrate_mbps=9.0,
    ),
    GameTitle(
        name="Destiny 2",
        genre=Genre.SHOOTER,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0115,
        mean_session_minutes=62.0,
        stage_fractions=_fractions(0.20, 0.22, 0.58),
        bitrate_clusters_mbps=((8.0, 18.0), (20.0, 30.0), (35.0, 47.0)),
        launch_seed=106,
        launch_bitrate_mbps=12.0,
    ),
    GameTitle(
        name="Call of Duty",
        genre=Genre.SHOOTER,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0097,
        mean_session_minutes=55.0,
        stage_fractions=_fractions(0.18, 0.24, 0.58),
        bitrate_clusters_mbps=((9.0, 18.0), (22.0, 34.0), (38.0, 56.0)),
        launch_seed=107,
        launch_bitrate_mbps=13.0,
    ),
    GameTitle(
        name="Cyberpunk 2077",
        genre=Genre.ROLE_PLAYING,
        pattern=ActivityPattern.CONTINUOUS_PLAY,
        popularity=0.0084,
        mean_session_minutes=82.0,
        stage_fractions=_fractions(0.28, 0.07, 0.65),
        bitrate_clusters_mbps=((10.0, 20.0), (24.0, 36.0), (40.0, 62.0)),
        launch_seed=108,
        launch_bitrate_mbps=16.0,
    ),
    GameTitle(
        name="Overwatch 2",
        genre=Genre.SHOOTER,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0074,
        mean_session_minutes=50.0,
        stage_fractions=_fractions(0.21, 0.23, 0.56),
        bitrate_clusters_mbps=((8.0, 16.0), (18.0, 28.0), (32.0, 50.0)),
        launch_seed=109,
        launch_bitrate_mbps=11.0,
    ),
    GameTitle(
        name="Rocket League",
        genre=Genre.SPORTS,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0064,
        mean_session_minutes=30.0,
        stage_fractions=_fractions(0.23, 0.20, 0.57),
        bitrate_clusters_mbps=((7.0, 14.0), (16.0, 26.0), (28.0, 44.0)),
        launch_seed=110,
        launch_bitrate_mbps=8.0,
    ),
    GameTitle(
        name="CS:GO/CS2",
        genre=Genre.SHOOTER,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0061,
        mean_session_minutes=35.0,
        stage_fractions=_fractions(0.22, 0.26, 0.52),
        bitrate_clusters_mbps=((7.0, 14.0), (16.0, 26.0), (30.0, 46.0)),
        launch_seed=111,
        launch_bitrate_mbps=9.0,
    ),
    GameTitle(
        name="Dota 2",
        genre=Genre.MOBA,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0055,
        mean_session_minutes=75.0,
        stage_fractions=_fractions(0.14, 0.18, 0.68),
        bitrate_clusters_mbps=((6.0, 12.0), (14.0, 24.0), (26.0, 42.0)),
        launch_seed=112,
        launch_bitrate_mbps=8.0,
    ),
    GameTitle(
        name="Hearthstone",
        genre=Genre.CARD,
        pattern=ActivityPattern.SPECTATE_AND_PLAY,
        popularity=0.0004,
        mean_session_minutes=45.0,
        stage_fractions=_fractions(0.30, 0.25, 0.45),
        bitrate_clusters_mbps=((3.0, 7.0), (8.0, 13.0), (14.0, 20.0)),
        launch_seed=113,
        launch_bitrate_mbps=5.0,
    ),
)

#: Catalog keyed by title name.
CATALOG: Dict[str, GameTitle] = {title.name: title for title in GAME_TITLES}

#: Label used when the classifier cannot confidently identify the title.
UNKNOWN_TITLE = "unknown"


def get_title(name: str) -> GameTitle:
    """Look up a title by name.

    Raises
    ------
    KeyError
        If the title is not in the catalog.
    """
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown game title {name!r}; known titles: {sorted(CATALOG)}"
        ) from None


def popularity_weights() -> Dict[str, float]:
    """Normalised popularity distribution over the 13 titles.

    Table 1 covers ~69% of total playtime; this helper renormalises those
    shares to 1.0 for sampling within the covered catalog.
    """
    total = sum(title.popularity for title in GAME_TITLES)
    return {title.name: title.popularity / total for title in GAME_TITLES}
