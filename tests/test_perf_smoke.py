"""The tier-2 perf gate itself: ``perf_smoke.py --quick --json`` semantics.

ISSUE 5 acceptance: the quick check must exit non-zero on an injected
regression (a doctored baseline whose recorded timings are impossibly
fast), write the measured sections to the ``--json`` artifact either way,
and respect the CI-looser ``PERF_SMOKE_REGRESSION_FACTOR`` multiplier.
The subprocess runs size the micro stream via ``PERF_SMOKE_N_PACKETS`` so
the gated timing (the cold direction filter, ~3 ns per packet) sits well
above the gate's 1 ms noise floor; the gate logic under test is identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "perf_smoke.py"


def run_quick(tmp_path, baseline, extra_env=None, sections="micro"):
    """Run ``--quick --sections <sections> --json`` against ``baseline``."""
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    json_path = tmp_path / "metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PERF_SMOKE_N_PACKETS"] = "4000000"
    env.update(extra_env or {})
    result = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--quick",
            "--sections",
            sections,
            "--output",
            str(baseline_path),
            "--json",
            str(json_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    return result, json_path


def test_quick_gate_fails_on_injected_regression(tmp_path):
    """An impossibly fast baseline makes every timing a >2x regression."""
    doctored = {"micro": {"columnar_filter_views_cold_s": 1e-3}}
    result, json_path = run_quick(tmp_path, doctored)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "PERF REGRESSIONS" in result.stderr
    assert "columnar_filter_views_cold_s" in result.stderr
    # the artifact is written even when the gate fails (CI uploads it)
    measured = json.loads(json_path.read_text())
    assert "micro" in measured
    assert measured["micro"]["columnar_filter_views_cold_s"] > 1e-3


def test_quick_gate_passes_and_writes_artifact(tmp_path):
    """A generous baseline passes; the artifact carries the sections."""
    generous = {"micro": {"window_slice_s": 1e9}}
    result, json_path = run_quick(tmp_path, generous)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "quick check passed" in result.stdout
    measured = json.loads(json_path.read_text())
    assert set(measured) >= {"generated_by", "n_cpus", "micro"}
    assert "feature_matrix" not in measured  # --sections filtered it out


def test_regression_factor_env_loosens_the_gate(tmp_path):
    """A borderline regression passes once the CI multiplier is raised."""
    # measure once to learn this machine's value, then craft a baseline
    # ~2.5x faster: fails at the default 2.0, passes at 30.0
    probe, json_path = run_quick(tmp_path, {})
    assert probe.returncode == 0, probe.stdout + probe.stderr
    measured = json.loads(json_path.read_text())["micro"]["columnar_filter_views_cold_s"]
    borderline = {"micro": {"columnar_filter_views_cold_s": max(measured / 2.5, 1.1e-3)}}
    strict, _ = run_quick(tmp_path, borderline)
    loose, _ = run_quick(
        tmp_path, borderline, extra_env={"PERF_SMOKE_REGRESSION_FACTOR": "30.0"}
    )
    assert loose.returncode == 0, loose.stdout + loose.stderr
    # the strict run may pass if the probe was unluckily slow; when it fails
    # it must fail through the gate, not through a crash
    assert strict.returncode in (0, 1)
    if strict.returncode == 1:
        assert "PERF REGRESSIONS" in strict.stderr


def test_unknown_section_is_rejected(tmp_path):
    result, _ = run_quick(tmp_path, {}, sections="micro,warp_drive")
    assert result.returncode == 2
    assert "warp_drive" in result.stderr


@pytest.mark.parametrize("empty", ["", ",", " , "])
def test_empty_section_selection_is_rejected(tmp_path, empty):
    """An empty selection must not silently pass the gate by measuring
    nothing."""
    result, _ = run_quick(tmp_path, {}, sections=empty)
    assert result.returncode == 2
    assert "selected nothing" in result.stderr


@pytest.mark.parametrize("key_suffix", ["_s", "_bytes", "_ratio", "_per_s"])
def test_check_against_baseline_directions(key_suffix):
    """Each metric family gates in its correct direction."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import importlib.util

        spec = importlib.util.spec_from_file_location("perf_smoke_mod", SCRIPT)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.pop(0)
    name = f"metric{key_suffix}"
    higher_is_better = key_suffix in ("_ratio", "_per_s")
    baseline = {"section": {name: 10.0}}
    worse = {"section": {name: 3.0 if higher_is_better else 30.0}}
    better = {"section": {name: 30.0 if higher_is_better else 3.0}}
    assert mod.check_against_baseline(worse, baseline, factor=2.0)
    assert not mod.check_against_baseline(better, baseline, factor=2.0)
    # the looser CI factor forgives a borderline 2.5x drift
    borderline = {"section": {name: 4.5 if higher_is_better else 25.0}}
    assert mod.check_against_baseline(borderline, baseline, factor=2.0)
    assert not mod.check_against_baseline(borderline, baseline, factor=3.0)


# ---------------------------------------------------------------------------
# the tick-count guard on the traced tap result (scripts/check_tick_counts.py)
# ---------------------------------------------------------------------------
def _run_count_guard(tmp_path, record):
    """``scripts/check_tick_counts.py`` on ``record`` written out as a result file."""
    path = tmp_path / "result.json"
    path.write_text(json.dumps(record))
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_tick_counts.py"), str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _traced_tap_result(**overrides):
    """A traced ``tap_small_ticks`` record with the counts of a healthy run."""
    counts = {
        "runtime.engine.ticks": 1377,
        "runtime.demux.calls": 1377,
        "runtime.demux.flows": 9525,
        "runtime.demux.rows": 70829,
        "net.pcap.records": 70829,
        "net.pcap.skipped": 0,
        "core.reducers.absorb_calls": 0,
        "ml.kernel.calls": 896,
        "trace.coverage_frac": 0.98,
    }
    counts.update(overrides)
    return {
        "workload": "tap_small_ticks",
        "trace": 1,
        "metrics": {name: {"value": value, "unit": "count"} for name, value in counts.items()},
    }


@pytest.mark.parametrize(
    "overrides, expected_exit, named",
    [
        ({}, 0, None),
        # the parent commit's count: one absorb per (flow, tick)
        ({"core.reducers.absorb_calls": 9525}, 1, "core.reducers.absorb_calls"),
        ({"ml.kernel.calls": 1378}, 1, "ml.kernel.calls"),
        ({"runtime.demux.calls": 2754}, 1, "runtime.demux.calls"),
        ({"trace.coverage_frac": 0.9}, 1, "trace.coverage_frac"),
        # batch bounds that lose records between the scan and the demux
        ({"runtime.demux.rows": 70765}, 1, "net.pcap.records"),
        # a scan that stops short of the buffer's end counts a truncation
        ({"net.pcap.skipped": 1}, 1, "net.pcap.skipped"),
    ],
)
def test_tick_count_guard(tmp_path, overrides, expected_exit, named):
    result = _run_count_guard(tmp_path, _traced_tap_result(**overrides))
    assert result.returncode == expected_exit, result.stdout + result.stderr
    if named is not None:
        assert named in result.stderr


def _traced_corpus_result(**overrides):
    """A traced ``corpus_batch`` record with the counts of a healthy run."""
    counts = {
        # one estimate per report; the 2 144 windows fold without one
        "core.qoe.intervals": 104,
        "analytics.fleet.events": 2248,
        "core.reducers.absorb_calls": 104,
        "core.reducers.rows": 2172285,
        "core.pipeline.finalize_sessions": 104,
        "trace.coverage_frac": 0.999,
    }
    counts.update(overrides)
    return {
        "workload": "corpus_batch",
        "trace": 1,
        "packets": 2172285,
        "metrics": {name: {"value": value, "unit": "count"} for name, value in counts.items()},
    }


@pytest.mark.parametrize(
    "overrides, expected_exit, named",
    [
        ({}, 0, None),
        # the parent commit's count: every window's full verdict estimated
        ({"core.qoe.intervals": 2248}, 1, "core.qoe.intervals"),
        # a second cascade fold per report
        ({"core.reducers.absorb_calls": 208}, 1, "core.reducers.absorb_calls"),
        ({"trace.coverage_frac": 0.9}, 1, "trace.coverage_frac"),
        # one session's rows folded a second time by the same fold count
        ({"core.reducers.rows": 2194081}, 1, "core.reducers.rows"),
    ],
)
def test_window_count_guard(tmp_path, overrides, expected_exit, named):
    """The same script picks the window chain's rules from the record's workload."""
    result = _run_count_guard(tmp_path, _traced_corpus_result(**overrides))
    assert result.returncode == expected_exit, result.stdout + result.stderr
    if named is not None:
        assert named in result.stderr


def _traced_live_result(packets=518397, **overrides):
    """A traced ``live_single`` record with the counts of a healthy run."""
    counts = {
        "runtime.engine.ticks": 236,
        "runtime.demux.calls": 236,
        "runtime.demux.rows": 518397,
        "core.activity_classifier.calls": 240,
        "core.pipeline.finalize_sessions": 24,
        "core.reducers.absorb_calls": 0,
        "core.qoe.intervals": 539,
        "analytics.fleet.events": 539,
        "trace.coverage_frac": 0.97,
    }
    counts.update(overrides)
    return {
        "workload": "live_single",
        "trace": 1,
        "packets": packets,
        "metrics": {name: {"value": value, "unit": "count"} for name, value in counts.items()},
    }


@pytest.mark.parametrize(
    "packets, overrides, expected_exit, named",
    [
        (518397, {}, 0, None),
        (518397, {"runtime.demux.calls": 472}, 1, "runtime.demux.calls"),
        # rows the feed's batches dropped on the way to the demux
        (518400, {}, 1, "runtime.demux.rows"),
        (518397, {"core.activity_classifier.calls": 261}, 1, "core.activity_classifier"),
        # one absorb per (flow, batch): the live path before the tick fold
        (518397, {"core.reducers.absorb_calls": 4878}, 1, "core.reducers.absorb_calls"),
        (518397, {"analytics.fleet.events": 538}, 1, "analytics.fleet.events"),
        (518397, {"trace.coverage_frac": 0.9}, 1, "trace.coverage_frac"),
    ],
)
def test_live_count_guard(tmp_path, packets, overrides, expected_exit, named):
    """The same script holds a traced ``live_single`` run to its own rules."""
    result = _run_count_guard(tmp_path, _traced_live_result(packets, **overrides))
    assert result.returncode == expected_exit, result.stdout + result.stderr
    if named is not None:
        assert named in result.stderr


def _traced_sharded_result(packets=518397, **overrides):
    """A traced ``live_sharded`` record with the counts of a healthy run."""
    counts = {
        "runtime.engine.ticks": 236,
        "runtime.demux.calls": 236,
        "runtime.demux.rows": 518397,
        "runtime.shm.fallback_ticks": 0,
        # the parent waits on its workers: below the 0.95 the others need
        "trace.coverage_frac": 0.93,
    }
    counts.update(overrides)
    return {
        "workload": "live_sharded",
        "trace": 1,
        "packets": packets,
        "metrics": {name: {"value": value, "unit": "count"} for name, value in counts.items()},
    }


@pytest.mark.parametrize(
    "packets, overrides, expected_exit, named",
    [
        (518397, {}, 0, None),
        # a second partition per tick in the parent
        (518397, {"runtime.demux.calls": 472}, 1, "runtime.demux.calls"),
        (518400, {}, 1, "runtime.demux.rows"),
        # ticks that missed the ring and crossed the pipe as pickles
        (518397, {"runtime.shm.fallback_ticks": 3}, 1, "runtime.shm.fallback_ticks"),
    ],
)
def test_sharded_count_guard(tmp_path, packets, overrides, expected_exit, named):
    """The same script holds a traced ``live_sharded`` run to its own rules."""
    result = _run_count_guard(tmp_path, _traced_sharded_result(packets, **overrides))
    assert result.returncode == expected_exit, result.stdout + result.stderr
    if named is not None:
        assert named in result.stderr


def test_tick_count_guard_rejects_an_untraced_result(tmp_path):
    record = _traced_tap_result()
    record["trace"] = 0
    assert _run_count_guard(tmp_path, record).returncode == 2


def test_tick_count_guard_rejects_a_workload_it_has_no_rules_for(tmp_path):
    record = _traced_tap_result()
    record["workload"] = "many_flows"
    assert _run_count_guard(tmp_path, record).returncode == 2
