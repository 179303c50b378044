"""Zero-downtime hot model swap: bit-identity, sequencing, fault matrix.

The load-bearing guarantees (ISSUE 9 acceptance):

* an **identity swap** (same model weights reloaded from disk) mid-feed
  leaves every event and final report **bit-identical** to the unswapped
  run — the only difference is the :class:`ModelSwapped` marker;
* on the sharded runtime every shard cuts over on the **same tick** and
  emits exactly one :class:`ModelSwapped`, including through the seeded
  SIGKILL/replay matrix of §8 (exactly-once, never zero, never two);
* fleet analytics rollup digests are invariant under an identity swap;
* fold-geometry mismatches are rejected in the caller before any state
  (or worker) is touched.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from hashlib import sha256

import pytest

from repro.runtime import (
    FaultPlan,
    KillWorker,
    ModelSwapped,
    SessionFeed,
    ShardedEngine,
    StreamingEngine,
    WorkerRestarted,
    load_pipeline,
    pipeline_digest,
    save_pipeline,
)

from test_runtime import assert_report_identical, reports_by_client_port


@pytest.fixture(scope="module")
def saved_pipeline_path(fitted_pipeline, tmp_path_factory):
    """The fitted pipeline saved once (the swap artifact of a deployment)."""
    path = tmp_path_factory.mktemp("swap") / "model"
    save_pipeline(fitted_pipeline, path)
    return path


@pytest.fixture()
def identity_pipeline(saved_pipeline_path):
    """A fresh load of the same weights: digest-equal, object-distinct."""
    return load_pipeline(saved_pipeline_path)


def retuned_copy(pipeline):
    """Same fold geometry, different gate tuning => a *different* digest."""
    clone = copy.deepcopy(pipeline)
    clone.pattern_classifier.confidence_threshold += 0.0625
    clone._digest = None  # deepcopy carried the cached digest of the original
    return clone


def swapless_fingerprints(events):
    """Hashable event identities with the ModelSwapped markers removed."""
    return Counter(
        (
            type(event).__name__,
            getattr(event, "flow", None),
            getattr(event, "time", None),
            getattr(event, "slot_index", None),
            getattr(event, "interval_index", None),
        )
        for event in events
        if not isinstance(event, (ModelSwapped, WorkerRestarted))
    )


class SwapMidFeed:
    """A feed wrapper that requests a sharded swap after ``at_tick`` ticks."""

    def __init__(self, feed, engine, at_tick, replacement):
        self.feed = feed
        self.engine = engine
        self.at_tick = at_tick
        self.replacement = replacement
        self.flow_contexts = getattr(feed, "flow_contexts", None)

    def __iter__(self):
        for tick, batch in enumerate(self.feed):
            if tick == self.at_tick:
                self.engine.request_swap(self.replacement)
            yield batch


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------
def test_pipeline_digest_is_stable_across_save_load(
    fitted_pipeline, identity_pipeline
):
    assert pipeline_digest(identity_pipeline) == pipeline_digest(fitted_pipeline)


def test_pipeline_digest_changes_with_tuning(fitted_pipeline):
    assert pipeline_digest(retuned_copy(fitted_pipeline)) != pipeline_digest(
        fitted_pipeline
    )


# ---------------------------------------------------------------------------
# single-engine swap
# ---------------------------------------------------------------------------
def test_identity_swap_mid_feed_is_bit_identical(
    fitted_pipeline, identity_pipeline, runtime_sessions
):
    """Swap between two ticks; every event before/after is unchanged."""
    batches = list(SessionFeed(runtime_sessions, batch_seconds=4.0))
    cut = len(batches) // 2

    baseline = StreamingEngine(fitted_pipeline)
    reference = []
    for batch in batches:
        reference.extend(baseline.ingest(batch))
    reference.extend(baseline.close_all())

    swapped_engine = StreamingEngine(fitted_pipeline)
    events = []
    for tick, batch in enumerate(batches):
        if tick == cut:
            swapped = swapped_engine.swap_pipeline(identity_pipeline)
            assert swapped.old_digest == swapped.new_digest
            events.append(swapped)
        events.extend(swapped_engine.ingest(batch))
    events.extend(swapped_engine.close_all())

    assert swapped_engine.pipeline is identity_pipeline
    assert swapless_fingerprints(events) == swapless_fingerprints(reference)
    got = reports_by_client_port(events)
    expected = reports_by_client_port(reference)
    assert set(got) == set(expected) == {52000, 52001, 52002}
    for port in got:
        assert_report_identical(got[port], expected[port])


def test_swap_by_path_and_gate_param_adoption(
    fitted_pipeline, saved_pipeline_path, runtime_sessions
):
    """A save directory is a valid swap source; gate params are adopted."""
    engine = StreamingEngine(fitted_pipeline)
    for batch in list(SessionFeed(runtime_sessions, batch_seconds=4.0))[:3]:
        engine.ingest(batch)
    swapped = engine.swap_pipeline(saved_pipeline_path)
    assert isinstance(swapped, ModelSwapped)
    assert swapped.old_digest == swapped.new_digest
    assert swapped.shard is None

    retuned = retuned_copy(fitted_pipeline)
    swapped = engine.swap_pipeline(retuned)
    assert swapped.old_digest != swapped.new_digest
    # the gates read their parameters from the adopted pipeline's classifiers
    assert engine.pipeline is retuned


def test_swap_rejects_unfitted_and_geometry_mismatch(
    fitted_pipeline, runtime_sessions
):
    engine = StreamingEngine(fitted_pipeline)
    engine.ingest(next(iter(SessionFeed(runtime_sessions, batch_seconds=4.0))))

    mismatched = copy.deepcopy(fitted_pipeline)
    mismatched.activity_classifier.slot_duration *= 2
    with pytest.raises(ValueError, match="fold geometry"):
        engine.swap_pipeline(mismatched)

    from repro.core.pipeline import ContextClassificationPipeline

    with pytest.raises(RuntimeError):
        engine.swap_pipeline(ContextClassificationPipeline())
    # a rejected swap must leave the engine untouched
    assert engine.pipeline is fitted_pipeline


def test_sharded_request_swap_rejects_geometry_mismatch(fitted_pipeline):
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="serial")
    mismatched = copy.deepcopy(fitted_pipeline)
    mismatched.title_classifier.window_seconds += 1.0
    with pytest.raises(ValueError, match="fold geometry"):
        engine.request_swap(mismatched)


# ---------------------------------------------------------------------------
# sharded swap: same tick on every shard, serial == fork
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "fork"])
def test_sharded_identity_swap_is_bit_identical(
    fitted_pipeline,
    identity_pipeline,
    runtime_sessions,
    runtime_offline_reports,
    backend,
):
    engine = ShardedEngine(
        fitted_pipeline, n_workers=2, backend=backend, snapshot_every_ticks=4
    )
    feed = SwapMidFeed(
        SessionFeed(runtime_sessions, batch_seconds=4.0),
        engine,
        at_tick=5,
        replacement=identity_pipeline,
    )
    events = list(engine.run_feed(feed))

    swaps = [event for event in events if isinstance(event, ModelSwapped)]
    assert sorted(swap.shard for swap in swaps) == [0, 1]
    assert len({swap.time for swap in swaps}) == 1  # same tick everywhere
    assert all(swap.old_digest == swap.new_digest for swap in swaps)
    assert engine.pipeline is identity_pipeline

    reports = reports_by_client_port(events)
    assert set(reports) == {52000, 52001, 52002}
    for port, report in reports.items():
        assert_report_identical(report, runtime_offline_reports[port - 52000])


def test_sharded_swap_by_path_last_request_wins(
    fitted_pipeline, saved_pipeline_path, runtime_sessions, runtime_offline_reports
):
    """Path sources load in the parent; a newer request replaces an older."""
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="serial")
    retuned = retuned_copy(fitted_pipeline)
    engine.request_swap(retuned)
    resolved = engine.request_swap(saved_pipeline_path)
    assert pipeline_digest(resolved) == pipeline_digest(fitted_pipeline)
    events = list(
        engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    )
    swaps = [event for event in events if isinstance(event, ModelSwapped)]
    assert len(swaps) == 2  # one per shard, for the *latest* request only
    assert all(swap.old_digest == swap.new_digest for swap in swaps)
    reports = reports_by_client_port(events)
    for port, report in reports.items():
        assert_report_identical(report, runtime_offline_reports[port - 52000])


# ---------------------------------------------------------------------------
# analytics invariance
# ---------------------------------------------------------------------------
def test_identity_swap_leaves_analytics_digest_unchanged(
    fitted_pipeline, identity_pipeline, runtime_sessions
):
    batches = list(SessionFeed(runtime_sessions, batch_seconds=4.0))
    cut = len(batches) // 2

    reference = StreamingEngine(fitted_pipeline, analytics=True)
    for batch in batches:
        reference.ingest(batch)
    reference.close_all()

    engine = StreamingEngine(fitted_pipeline, analytics=True)
    for tick, batch in enumerate(batches):
        if tick == cut:
            engine.swap_pipeline(identity_pipeline)
        engine.ingest(batch)
    engine.close_all()

    assert engine.analytics.digest() == reference.analytics.digest()


# ---------------------------------------------------------------------------
# the fault matrix: SIGKILL around the swap tick (exactly-once)
# ---------------------------------------------------------------------------
@pytest.mark.faults
@pytest.mark.parametrize("kill_tick", [4, 6, 8])
def test_swap_survives_worker_kill_exactly_once(
    fitted_pipeline,
    identity_pipeline,
    runtime_sessions,
    runtime_offline_reports,
    kill_tick,
):
    """Kill a worker before/at/after the swap: one ModelSwapped per shard.

    The swap consumes one supervisor sequence number, so feed tick ``t``
    after a swap at feed tick 5 lands on sequence ``t + 1``; the kill
    ticks straddle the swap sequence either way.  Recovery restores the
    snapshot, re-applies the latest swap at or before it, replays the ring
    (which holds the swap message when it came after the snapshot) and the
    emitted-sequence watermark deduplicates — never zero, never two.
    """
    plan = FaultPlan(actions=(KillWorker(shard=1, tick=kill_tick),))
    engine = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="fork", snapshot_every_ticks=4
    )
    feed = SwapMidFeed(
        SessionFeed(runtime_sessions, batch_seconds=4.0),
        engine,
        at_tick=5,
        replacement=identity_pipeline,
    )
    events = list(engine.run_feed(feed, fault_plan=plan))

    assert any(isinstance(event, WorkerRestarted) for event in events)
    assert engine.last_feed_stats["n_restarts"] >= 1
    assert engine.last_feed_stats["n_swaps"] == 1

    swap_counts = Counter(
        event.shard for event in events if isinstance(event, ModelSwapped)
    )
    assert swap_counts == {0: 1, 1: 1}

    duplicated = {k: c for k, c in swapless_fingerprints(events).items() if c > 1}
    assert not duplicated
    reports = reports_by_client_port(events)
    assert set(reports) == {52000, 52001, 52002}
    for port, report in reports.items():
        assert_report_identical(report, runtime_offline_reports[port - 52000])


@pytest.mark.faults
def test_swap_with_kill_preserves_analytics_digest(
    fitted_pipeline, identity_pipeline, runtime_sessions
):
    """Crash + replay + swap: the fleet rollup digest still matches serial."""

    def run(backend, plan=None, swap=False):
        engine = ShardedEngine(
            fitted_pipeline,
            n_workers=2,
            backend=backend,
            snapshot_every_ticks=4,
            analytics=True,
        )
        feed = SessionFeed(runtime_sessions, batch_seconds=4.0)
        if swap:
            feed = SwapMidFeed(feed, engine, at_tick=5, replacement=identity_pipeline)
        for _ in engine.run_feed(feed, fault_plan=plan):
            pass
        return engine.analytics.digest()

    reference = run("serial")
    plan = FaultPlan(actions=(KillWorker(shard=0, tick=6),))
    assert run("fork", plan=plan, swap=True) == reference


def test_model_swapped_event_is_picklable_and_frozen(fitted_pipeline):
    event = ModelSwapped(time=3.0, old_digest="a" * 64, new_digest="b" * 64, shard=1)
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    with pytest.raises(AttributeError):
        event.shard = 2
    # digests are hex sha256 strings in real events
    assert len(sha256(b"x").hexdigest()) == 64
