"""Tests for the traffic simulation substrate (catalog, launch, activity, sessions, ISP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import DOWNSTREAM_CODE, UPSTREAM_CODE, Direction
from repro.simulation import (
    ActivityPattern,
    ActivityPatternModel,
    GameSession,
    Genre,
    ISPDeploymentSimulator,
    PlayerStage,
    SessionConfig,
    SessionGenerator,
    StreamingSettings,
    augment_session,
    augment_stream,
    launch_profile_for,
)
from repro.simulation.activity_model import (
    STAGE_FRACTIONS,
    TRANSITIONS,
    gameplay_fractions,
    stage_durations,
)
from repro.simulation.catalog import (
    CATALOG,
    GAME_TITLES,
    get_title,
    popularity_weights,
    titles_by_genre,
    titles_by_pattern,
)
from repro.simulation.devices import (
    FULL_PACKET_PAYLOAD,
    LAB_CONFIGURATIONS,
    Resolution,
    total_lab_playtime_hours,
    total_lab_sessions,
)
from repro.simulation.isp import records_by_pattern, records_by_title
from repro.simulation.launch_profiles import generate_launch_columns
from repro.simulation.traffic import StageTrafficModel, resolution_cluster_index


class TestCatalog:
    def test_thirteen_titles_five_genres(self):
        assert len(GAME_TITLES) == 13
        assert len({t.genre for t in GAME_TITLES}) == 5

    def test_popularity_matches_paper_coverage(self):
        total = sum(t.popularity for t in GAME_TITLES)
        assert 0.67 < total < 0.71  # paper: "over 69% of total playtime"

    def test_fortnite_is_most_popular(self):
        ranked = sorted(GAME_TITLES, key=lambda t: t.popularity, reverse=True)
        assert ranked[0].name == "Fortnite"
        assert ranked[-1].name == "Hearthstone"

    def test_all_role_playing_titles_are_continuous_play(self):
        for title in titles_by_genre(Genre.ROLE_PLAYING):
            assert title.pattern is ActivityPattern.CONTINUOUS_PLAY

    def test_all_shooters_are_spectate_and_play(self):
        for title in titles_by_genre(Genre.SHOOTER):
            assert title.pattern is ActivityPattern.SPECTATE_AND_PLAY

    def test_get_title_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown game title"):
            get_title("Tetris")

    def test_stage_fractions_sum_to_one(self):
        for title in GAME_TITLES:
            assert sum(title.stage_fractions.values()) == pytest.approx(1.0, abs=0.02)

    def test_popularity_weights_normalised(self):
        assert sum(popularity_weights().values()) == pytest.approx(1.0)

    def test_titles_by_pattern_partition(self):
        spectate = titles_by_pattern(ActivityPattern.SPECTATE_AND_PLAY)
        continuous = titles_by_pattern(ActivityPattern.CONTINUOUS_PLAY)
        assert len(spectate) + len(continuous) == 13
        assert len(continuous) == 4  # the four role-playing titles


class TestDevices:
    def test_table2_totals(self):
        assert total_lab_sessions() == 531
        assert total_lab_playtime_hours() == pytest.approx(67.0, abs=0.2)

    def test_eight_configurations(self):
        assert len(LAB_CONFIGURATIONS) == 8

    def test_streaming_settings_bitrate_scales_with_resolution(self):
        low = StreamingSettings(Resolution.SD, 60).target_bitrate_mbps
        high = StreamingSettings(Resolution.UHD, 60).target_bitrate_mbps
        assert high > low * 3

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            StreamingSettings(fps=5)
        with pytest.raises(ValueError):
            StreamingSettings(base_bitrate_mbps=-1)

    def test_device_sample_settings_within_supported_range(self):
        config = LAB_CONFIGURATIONS["ios-browser"]["config"]
        rng = np.random.default_rng(0)
        for _ in range(20):
            settings = config.sample_settings(rng)
            assert settings.resolution in config.supported_resolutions()
            assert settings.fps in config.fps_options


class TestLaunchProfiles:
    def test_profile_deterministic_per_title(self):
        title = get_title("Fortnite")
        a = launch_profile_for(title)
        b = launch_profile_for(title)
        assert a.slots == b.slots

    def test_profiles_differ_across_titles(self):
        a = launch_profile_for(get_title("Fortnite"))
        b = launch_profile_for(get_title("Genshin Impact"))
        centers_a = [slot.steady_center for slot in a.slots[:10]]
        centers_b = [slot.steady_center for slot in b.slots[:10]]
        assert centers_a != centers_b

    def test_duration_in_expected_range(self):
        for title in GAME_TITLES:
            profile = launch_profile_for(title)
            assert 40.0 <= profile.duration_s <= 60.0

    def test_generated_packets_downstream_and_bounded(self):
        profile = launch_profile_for(get_title("Dota 2"))
        packets = generate_launch_columns(profile, rng=np.random.default_rng(0), rate_scale=0.1)
        assert len(packets)
        assert np.all(packets.directions == DOWNSTREAM_CODE)
        assert np.all((packets.payload_sizes >= 40) & (packets.payload_sizes <= FULL_PACKET_PAYLOAD))
        assert np.all(packets.timestamps <= profile.duration_s + 1)

    def test_full_packets_present(self):
        profile = launch_profile_for(get_title("Hearthstone"))
        packets = generate_launch_columns(profile, rng=np.random.default_rng(1), rate_scale=0.2)
        full = np.count_nonzero(packets.payload_sizes == FULL_PACKET_PAYLOAD)
        assert full > len(packets) * 0.2

    def test_duration_truncation(self):
        profile = launch_profile_for(get_title("Fortnite"))
        packets = generate_launch_columns(
            profile, rng=np.random.default_rng(2), rate_scale=0.2, duration_s=5.0
        )
        assert packets.timestamps.max() < 5.0

    def test_invalid_rate_scale(self):
        profile = launch_profile_for(get_title("Fortnite"))
        with pytest.raises(ValueError):
            generate_launch_columns(profile, rate_scale=0.0)


class TestActivityModel:
    @pytest.mark.parametrize("pattern", list(ActivityPattern))
    def test_transition_probabilities_rows_sum_to_one(self, pattern):
        for stage, targets in TRANSITIONS[pattern].items():
            assert sum(targets.values()) == pytest.approx(1.0)
            assert stage not in targets  # no self-transitions at stage level

    @pytest.mark.parametrize("pattern", list(ActivityPattern))
    def test_timeline_starts_with_launch_then_idle(self, pattern):
        model = ActivityPatternModel(pattern)
        timeline = model.sample_timeline(600.0, rng=np.random.default_rng(0))
        assert timeline[0].stage is PlayerStage.LAUNCH
        assert timeline[1].stage is PlayerStage.IDLE

    def test_timeline_is_contiguous(self):
        model = ActivityPatternModel(ActivityPattern.SPECTATE_AND_PLAY)
        timeline = model.sample_timeline(900.0, rng=np.random.default_rng(1))
        for previous, current in zip(timeline[:-1], timeline[1:]):
            assert current.start == pytest.approx(previous.end)

    def test_long_run_fractions_approach_fig5(self):
        """Long sessions reproduce the Fig. 5 playtime shares (±10 points)."""
        for pattern in ActivityPattern:
            model = ActivityPatternModel(pattern)
            rng = np.random.default_rng(3)
            totals = {stage: 0.0 for stage in PlayerStage.gameplay_stages()}
            for _ in range(8):
                timeline = model.sample_timeline(3600.0, rng=rng)
                fractions = gameplay_fractions(timeline)
                for stage in totals:
                    totals[stage] += fractions[stage] / 8
            for stage, expected in STAGE_FRACTIONS[pattern].items():
                assert totals[stage] == pytest.approx(expected, abs=0.10)

    def test_continuous_play_has_little_passive(self):
        model = ActivityPatternModel(ActivityPattern.CONTINUOUS_PLAY)
        timeline = model.sample_timeline(3600.0, rng=np.random.default_rng(4))
        fractions = gameplay_fractions(timeline)
        assert fractions[PlayerStage.PASSIVE] < 0.15

    def test_stage_durations_accounts_all_time(self):
        model = ActivityPatternModel(ActivityPattern.SPECTATE_AND_PLAY, launch_duration_s=30.0)
        timeline = model.sample_timeline(300.0, rng=np.random.default_rng(5))
        totals = stage_durations(timeline)
        assert sum(totals.values()) == pytest.approx(timeline[-1].end)

    def test_invalid_duration(self):
        model = ActivityPatternModel(ActivityPattern.SPECTATE_AND_PLAY)
        with pytest.raises(ValueError):
            model.sample_timeline(-5.0)


class TestTrafficModel:
    def test_relative_stage_levels_hold(self):
        title = get_title("Fortnite")
        model = StageTrafficModel(title=title, settings=StreamingSettings(),
                                  rate_scale=0.1, rng=np.random.default_rng(0))
        active = model.generate_stage_columns(PlayerStage.ACTIVE, 0.0, 20.0)
        idle = model.generate_stage_columns(PlayerStage.IDLE, 0.0, 20.0)
        passive = model.generate_stage_columns(PlayerStage.PASSIVE, 0.0, 20.0)

        def down_bytes(packets):
            return packets.payload_sizes[packets.directions == DOWNSTREAM_CODE].sum()

        def up_count(packets):
            return np.count_nonzero(packets.directions == UPSTREAM_CODE)

        assert down_bytes(active) > down_bytes(passive) > down_bytes(idle)
        assert up_count(active) > up_count(passive) > up_count(idle)
        # passive keeps downstream near active but upstream drops sharply
        assert down_bytes(passive) > 0.6 * down_bytes(active)
        assert up_count(passive) < 0.5 * up_count(active)

    def test_resolution_cluster_index_monotone(self):
        indices = [
            resolution_cluster_index(res, 3)
            for res in (Resolution.SD, Resolution.FHD, Resolution.UHD)
        ]
        assert indices == sorted(indices)
        assert indices[0] == 0 and indices[-1] == 2

    def test_invalid_interval(self):
        model = StageTrafficModel(title=get_title("Dota 2"), settings=StreamingSettings(),
                                  rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.generate_stage_columns(PlayerStage.ACTIVE, 10.0, 5.0)


class TestSessionGenerator:
    def test_session_metadata_and_labels(self, fortnite_session):
        assert fortnite_session.title_name == "Fortnite"
        assert fortnite_session.pattern is ActivityPattern.SPECTATE_AND_PLAY
        assert fortnite_session.duration > 100
        assert len(fortnite_session.packets) > 1000
        # ground-truth lookup is consistent with the timeline
        assert fortnite_session.stage_at(1.0) is PlayerStage.LAUNCH

    def test_launch_only_session(self, launch_only_session):
        stages = {interval.stage for interval in launch_only_session.timeline}
        assert stages == {PlayerStage.LAUNCH}
        assert launch_only_session.packets.total_bytes(Direction.UPSTREAM) == 0

    def test_slot_ground_truth_length(self, cyberpunk_session):
        labels = cyberpunk_session.slot_ground_truth(1.0)
        assert len(labels) == int(np.ceil(cyberpunk_session.duration))

    def test_bidirectional_traffic_in_gameplay(self, cyberpunk_session):
        assert cyberpunk_session.packets.total_bytes(Direction.UPSTREAM) > 0
        assert cyberpunk_session.packets.total_bytes(Direction.DOWNSTREAM) > 0

    def test_generate_many(self):
        generator = SessionGenerator(random_state=3)
        sessions = generator.generate_many(
            "Hearthstone", 2, SessionConfig(launch_only=True, rate_scale=0.1)
        )
        assert len(sessions) == 2
        assert sessions[0].session_id != sessions[1].session_id

    def test_unknown_title_rejected(self):
        with pytest.raises(KeyError):
            SessionGenerator().generate("Minesweeper")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SessionConfig(gameplay_duration_s=-1)
        with pytest.raises(ValueError):
            SessionConfig(rate_scale=0)


class TestAugmentation:
    def test_augment_stream_preserves_approximate_size(self, launch_only_session):
        augmented = augment_stream(
            launch_only_session.packets, rng=np.random.default_rng(0)
        )
        assert 0.95 * len(launch_only_session.packets) <= len(augmented) <= len(
            launch_only_session.packets
        )

    def test_augment_session_keeps_labels(self, fortnite_session):
        augmented = augment_session(fortnite_session, rng=np.random.default_rng(1))
        assert augmented.title_name == fortnite_session.title_name
        assert augmented.timeline == fortnite_session.timeline

    def test_invalid_parameters(self, launch_only_session):
        with pytest.raises(ValueError):
            augment_stream(launch_only_session.packets, drop_fraction=1.5)


class TestISPSimulator:
    def test_record_fields_consistent(self, isp_record_pool):
        for record in isp_record_pool[:200]:
            assert record.duration_minutes > 0
            assert record.avg_downstream_mbps > 0
            assert 0 <= record.loss_rate < 1
            assert record.gameplay_minutes <= record.duration_minutes + 1e-6

    def test_popularity_ordering_respected(self, isp_record_pool):
        by_title = records_by_title(isp_record_pool)
        fortnite = len(by_title.get("Fortnite", []))
        hearthstone = len(by_title.get("Hearthstone", []))
        assert fortnite > hearthstone

    def test_unknown_fraction_close_to_configured(self, isp_record_pool):
        unknown = sum(1 for r in isp_record_pool if r.title_name == "unknown")
        assert 0.1 < unknown / len(isp_record_pool) < 0.3

    def test_degraded_sessions_have_worse_qos(self, isp_record_pool):
        degraded = [r for r in isp_record_pool if r.network_degraded]
        healthy = [r for r in isp_record_pool if not r.network_degraded]
        assert degraded and healthy
        assert np.mean([r.latency_ms for r in degraded]) > np.mean(
            [r.latency_ms for r in healthy]
        )
        assert np.mean([r.avg_frame_rate for r in degraded]) < np.mean(
            [r.avg_frame_rate for r in healthy]
        )

    def test_patterns_present(self, isp_record_pool):
        by_pattern = records_by_pattern(isp_record_pool)
        assert set(by_pattern) == set(ActivityPattern)

    def test_classifier_accuracy_parameter(self):
        simulator = ISPDeploymentSimulator(
            unknown_title_fraction=0.0, classifier_accuracy=1.0, random_state=1
        )
        records = simulator.generate_records(300)
        assert all(r.classified_title == r.title_name for r in records)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ISPDeploymentSimulator(unknown_title_fraction=1.5)
        with pytest.raises(ValueError):
            ISPDeploymentSimulator(classifier_accuracy=0.0)
        with pytest.raises(ValueError):
            ISPDeploymentSimulator().generate_records(0)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_generate_records_count_property(self, n):
        simulator = ISPDeploymentSimulator(random_state=0)
        assert len(simulator.generate_records(n)) == n
