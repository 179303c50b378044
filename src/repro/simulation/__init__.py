"""Synthetic cloud-gaming traffic generation.

The paper's evaluation rests on two datasets we cannot capture here: 531
labeled lab sessions of NVIDIA GeForce NOW gameplay (§3.1) and a three-month
ISP deployment (§5).  This subpackage substitutes both with generative
models whose observable structure matches what the paper reports:

* :mod:`repro.simulation.catalog` — the 13-title catalog (Table 1) with
  genre, gameplay activity pattern, popularity, per-title session-duration
  and bandwidth parameters.
* :mod:`repro.simulation.devices` — the lab device/OS/software/streaming
  configurations (Table 2).
* :mod:`repro.simulation.launch_profiles` — per-title launch fingerprints
  made of *full*, *steady* and *sparse* downstream packet groups (Fig. 3).
* :mod:`repro.simulation.activity_model` — per-pattern Markov models of
  player activity stages (Fig. 5).
* :mod:`repro.simulation.traffic` — per-stage bidirectional packet synthesis
  (Fig. 4).
* :mod:`repro.simulation.session` — end-to-end session generator combining
  the above into labeled packet streams.
* :mod:`repro.simulation.augmentation` — variation-based augmentation used
  to enlarge the training corpus (§4.4).
* :mod:`repro.simulation.lab_dataset` — the lab corpus builder (Table 2).
* :mod:`repro.simulation.isp` — the ISP-scale session-record sampler used by
  the §5 analyses.
* :mod:`repro.simulation.profiles` — distribution-driven scenario profiles
  (codec changes, WiFi jitter, cellular handovers, VPN/QUIC tunnels, title
  switches, clock skew) layered over the generated corpora (DESIGN.md §9).
"""

from repro.simulation.activity_model import ActivityPatternModel, StageInterval
from repro.simulation.augmentation import augment_session, augment_stream
from repro.simulation.catalog import (
    CATALOG,
    GAME_TITLES,
    ActivityPattern,
    GameTitle,
    Genre,
    PlayerStage,
    get_title,
)
from repro.simulation.devices import (
    LAB_CONFIGURATIONS,
    DeviceConfiguration,
    Resolution,
    StreamingSettings,
)
from repro.simulation.isp import ISPDeploymentSimulator, SessionRecord
from repro.simulation.lab_dataset import LabDataset, generate_lab_dataset
from repro.simulation.launch_profiles import LaunchProfile, launch_profile_for
from repro.simulation.profiles import (
    SCENARIO_PROFILES,
    LayerContext,
    RVConfig,
    ScenarioProfile,
    scenario_sessions,
)
from repro.simulation.session import GameSession, SessionConfig, SessionGenerator
from repro.simulation.traffic import StageTrafficModel

__all__ = [
    "GameTitle",
    "Genre",
    "ActivityPattern",
    "PlayerStage",
    "CATALOG",
    "GAME_TITLES",
    "get_title",
    "DeviceConfiguration",
    "StreamingSettings",
    "Resolution",
    "LAB_CONFIGURATIONS",
    "LaunchProfile",
    "launch_profile_for",
    "ActivityPatternModel",
    "StageInterval",
    "StageTrafficModel",
    "GameSession",
    "SessionConfig",
    "SessionGenerator",
    "augment_stream",
    "augment_session",
    "LabDataset",
    "generate_lab_dataset",
    "ISPDeploymentSimulator",
    "SessionRecord",
    "RVConfig",
    "LayerContext",
    "ScenarioProfile",
    "SCENARIO_PROFILES",
    "scenario_sessions",
]
