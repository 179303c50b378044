"""Tests for the analysis aggregations and the experiment runners' contracts."""

import pytest

from repro.analysis.bandwidth import (
    bandwidth_by_pattern,
    bandwidth_by_title,
    bandwidth_clusters,
)
from repro.analysis.characterization import (
    launch_group_scatter,
    packet_group_share,
    session_volumetric_timeseries,
    stage_transition_statistics,
)
from repro.analysis.qoe_report import (
    mislabel_correction_summary,
    qoe_levels_by_pattern,
    qoe_levels_by_title,
    session_qoe_levels,
)
from repro.analysis.stage_durations import (
    session_duration_ranking,
    stage_minutes_by_pattern,
    stage_minutes_by_title,
)
from repro.core.qoe import QoELevel
from repro.experiments import activity_classification
from repro.experiments.activity_classification import (
    run_fig10_stage_parameter_sweep,
    run_table4_stage_pattern_accuracy,
)
from repro.experiments.deployment import run_table1_catalog
from repro.ml.forest import RandomForestClassifier
from repro.simulation.catalog import ActivityPattern, PlayerStage


class TestCharacterizationAnalysis:
    def test_launch_group_scatter_structure(self, launch_only_session):
        scatter = launch_group_scatter(launch_only_session, window_seconds=30.0)
        assert set(scatter) == {"full", "steady", "sparse"}
        assert scatter["full"]["sizes"].size > 0

    def test_packet_group_share_sums_to_one(self, launch_only_session):
        share = packet_group_share(launch_only_session, window_seconds=30.0)
        assert sum(share.values()) == pytest.approx(1.0)

    def test_volumetric_timeseries_stage_alignment(self, fortnite_session):
        series = session_volumetric_timeseries(fortnite_session)
        assert len(series["down_mbps"]) == len(series["stage"])
        # active slots carry more downstream traffic than idle slots
        active = series["down_mbps"][series["stage"] == "active"]
        idle = series["down_mbps"][series["stage"] == "idle"]
        if active.size and idle.size:
            assert active.mean() > idle.mean()

    def test_stage_transition_statistics(self, small_gameplay_corpus):
        stats = stage_transition_statistics(small_gameplay_corpus.sessions)
        assert set(stats) <= set(ActivityPattern)
        for data in stats.values():
            fractions = data["stage_fractions"]
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)
            matrix = data["transition_matrix"]
            for row in matrix:
                total = row.sum()
                assert total == pytest.approx(1.0) or total == pytest.approx(0.0)

    def test_continuous_play_less_passive_than_spectate(self, small_gameplay_corpus):
        stats = stage_transition_statistics(small_gameplay_corpus.sessions)
        if set(stats) == set(ActivityPattern):
            spectate = stats[ActivityPattern.SPECTATE_AND_PLAY]["stage_fractions"]
            continuous = stats[ActivityPattern.CONTINUOUS_PLAY]["stage_fractions"]
            assert continuous[PlayerStage.PASSIVE] < spectate[PlayerStage.PASSIVE]


class TestStageDurationAnalysis:
    def test_by_title_excludes_unknown(self, isp_record_pool):
        by_title = stage_minutes_by_title(isp_record_pool)
        assert "unknown" not in by_title
        assert len(by_title) == 13

    def test_stage_minutes_do_not_exceed_total(self, isp_record_pool):
        for summary in stage_minutes_by_title(isp_record_pool).values():
            stage_sum = summary["active"] + summary["passive"] + summary["idle"]
            assert stage_sum <= summary["total"] + 1e-6

    def test_by_pattern_covers_both_patterns(self, isp_record_pool):
        by_pattern = stage_minutes_by_pattern(isp_record_pool)
        assert set(by_pattern) == {"spectate-and-play", "continuous-play"}

    def test_duration_ranking_matches_catalog_shape(self, isp_record_pool):
        ranking = session_duration_ranking(isp_record_pool)
        titles = [title for title, _ in ranking]
        # the paper's longest sessions: Baldur's Gate ahead of Rocket League
        assert titles.index("Baldur's Gate 3") < titles.index("Rocket League")


class TestBandwidthAnalysis:
    def test_low_throughput_sessions_excluded(self, isp_record_pool):
        by_title = bandwidth_by_title(isp_record_pool, floor_mbps=1.0)
        for summary in by_title.values():
            assert summary["p10"] >= 1.0

    def test_hearthstone_demands_less_than_fortnite(self, isp_record_pool):
        by_title = bandwidth_by_title(isp_record_pool)
        assert by_title["Hearthstone"]["mean"] < by_title["Fortnite"]["mean"]
        assert by_title["Hearthstone"]["max"] < 25.0

    def test_by_pattern_reports_both(self, isp_record_pool):
        by_pattern = bandwidth_by_pattern(isp_record_pool)
        assert set(by_pattern) == {"spectate-and-play", "continuous-play"}

    def test_clusters_ordered_and_disjoint(self, isp_record_pool):
        clusters = bandwidth_clusters(isp_record_pool, "Destiny 2", n_clusters=3)
        assert 1 <= len(clusters) <= 3
        centers = [c["center_mbps"] for c in clusters]
        assert centers == sorted(centers)


class TestQoEReport:
    def test_session_levels_use_context(self, isp_record_pool):
        record = next(r for r in isp_record_pool if r.title_name == "Hearthstone")
        levels = session_qoe_levels(record)
        assert levels["objective"] in QoELevel
        assert levels["effective"] in QoELevel

    def test_effective_good_fraction_not_lower_than_objective(self, isp_record_pool):
        by_title = qoe_levels_by_title(isp_record_pool)
        for summary in by_title.values():
            assert summary["effective"]["good"] >= summary["objective"]["good"] - 1e-9

    def test_low_demand_titles_get_large_correction(self, isp_record_pool):
        by_title = qoe_levels_by_title(isp_record_pool)
        hearthstone = by_title["Hearthstone"]
        gain = hearthstone["effective"]["good"] - hearthstone["objective"]["good"]
        assert gain > 0.3

    def test_pattern_report(self, isp_record_pool):
        by_pattern = qoe_levels_by_pattern(isp_record_pool)
        for summary in by_pattern.values():
            for key in ("objective", "effective"):
                assert sum(summary[key].values()) == pytest.approx(1.0)

    def test_degraded_sessions_stay_flagged(self, isp_record_pool):
        summary = mislabel_correction_summary(isp_record_pool)
        # genuinely degraded sessions must mostly remain non-good after calibration
        assert summary["degraded_recall"] > 0.8
        # and a meaningful share of falsely-poor sessions is corrected
        assert summary["corrected_fraction"] > 0.3


class TestExperimentContracts:
    def test_table1_runner(self):
        result = run_table1_catalog()
        assert result["n_titles"] == 13
        assert result["n_genres"] == 5
        assert 0.67 < result["total_popularity"] < 0.71
        assert result["rows"][0]["title"] == "Fortnite"

    def test_stage_and_pattern_tables_are_deterministic_per_seed(self, monkeypatch):
        # Fig. 10 and Table 4 oversample minority classes with the stage and
        # pattern classifiers' random_state; without one, two runs of one
        # seed trained different forests.  Small forests keep the four runs
        # cheap; the oversampling draws do not depend on the forest size.
        monkeypatch.setattr(
            activity_classification,
            "RandomForestClassifier",
            lambda **params: RandomForestClassifier(
                **{**params, "n_estimators": 4, "max_depth": 6}
            ),
        )
        sweep = run_fig10_stage_parameter_sweep(quick=True, alphas=(0.5,))
        assert run_fig10_stage_parameter_sweep(quick=True, alphas=(0.5,)) == sweep
        table = run_table4_stage_pattern_accuracy(quick=True)
        assert run_table4_stage_pattern_accuracy(quick=True) == table
