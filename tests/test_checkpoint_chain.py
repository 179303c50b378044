"""Incremental worker checkpoints: the chain always decodes to the engine.

The supervisor's workers ship each snapshot array once and the parent keeps
the opaque blobs as a chain (DESIGN.md §8).  These tests drive the encoder
and decoder directly — no processes — under inputs nobody hand-wrote:
random checkpoint cadence, random batch boundaries, feed outages (idle
sweeps), session closes, forced re-bases and worker restores.  The
process-level proof (kills, stalls, swaps restoring from a chain) is the
``faults`` matrix in ``test_fault_tolerance.py`` / ``test_hot_swap.py``.
"""

from __future__ import annotations

import io
import itertools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import PacketColumns
from repro.runtime import SessionFeed, SessionReport, StreamingEngine
from repro.runtime.supervisor import _CheckpointEncoder, _decode_checkpoints

SESSION_MODES = ("bounded", "full", "approx")
IDLE_TIMEOUT_S = 4.0


def state_bytes(engine: StreamingEngine) -> bytes:
    """The engine's snapshot as bytes that depend on its values alone.

    Plain ``pickle.dumps`` memoises each array's dtype *object*, and arrays
    unpickled from different blobs of a chain carry different (equal)
    instances, so two snapshots with identical contents can differ in memo
    references.  Every numeric array is therefore written by value.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.persistent_id = lambda obj: (
        (obj.dtype.str, obj.shape, obj.tobytes())
        if type(obj) is np.ndarray and not obj.dtype.hasobject
        else None
    )
    pickler.dump(engine.snapshot())
    return buffer.getvalue()


def restored_from(chain, pipeline, mode) -> StreamingEngine:
    engine = StreamingEngine(
        pipeline, session_mode=mode, idle_timeout_s=IDLE_TIMEOUT_S, analytics=True
    )
    engine.restore(_decode_checkpoints(chain))
    return engine


STEPS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),  # one-second batches in this step
        # fold them / drop them: a feed outage past the idle timeout, so the
        # next fold sweeps every session closed and their flows reopen
        st.sampled_from(("fold", "fold", "fold", "outage")),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2)),  # close a flow
        st.sampled_from((None, "delta", "delta", "rebase", "restore")),
    ),
    min_size=6,
    max_size=24,
)


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(SESSION_MODES), steps=STEPS)
def test_chain_decodes_to_the_source_engine(
    fitted_pipeline, runtime_sessions, mode, steps
):
    """After every checkpoint the decoded chain *is* the engine's state."""
    batches = iter(
        SessionFeed(runtime_sessions, batch_seconds=1.0, start_offsets=[0.0, 6.5, 13.0])
    )
    engine = StreamingEngine(
        fitted_pipeline, session_mode=mode, idle_timeout_s=IDLE_TIMEOUT_S, analytics=True
    )
    encoder, chain, restored_last = _CheckpointEncoder(), [], False
    for n_batches, feed, close, checkpoint in steps:
        group = list(itertools.islice(batches, n_batches))
        if feed == "fold":
            engine.ingest(PacketColumns.concat(group))
        if close is not None and engine.live_flows:
            engine.close(engine.live_flows[close % len(engine.live_flows)])
        if checkpoint is None:
            continue
        if checkpoint == "rebase":
            # what a chain grown past twice the live state looks like
            encoder._chain_nbytes = 1 << 60
        full, blob = encoder.encode(engine.snapshot())
        if restored_last or checkpoint == "rebase" or not chain:
            # the first checkpoint of an encoder (a new worker, or one just
            # restored) and a re-base carry everything: the chain restarts
            assert full
        chain = [blob] if full else chain + [blob]
        replica = restored_from(chain, fitted_pipeline, mode)
        assert state_bytes(replica) == state_bytes(engine)
        restored_last = checkpoint == "restore"
        if restored_last:
            # the worker died here: its replacement carries on from the chain
            engine, encoder = replica, _CheckpointEncoder()


def test_chain_stays_bounded_under_session_churn(fitted_pipeline, runtime_sessions):
    """Sessions open and close for many cadences; the chain does not grow.

    The no-leak bound: at every checkpoint the parent's chain holds at most
    ~2x one full checkpoint of the state at that moment, plus a constant —
    closed sessions' arrays leave with the next re-base.
    """
    rounds = 5
    feed = SessionFeed(
        list(runtime_sessions) * rounds,
        batch_seconds=4.0,
        start_offsets=[
            40.0 * cycle + 5.0 * index
            for cycle in range(rounds)
            for index in range(len(runtime_sessions))
        ],
    )
    engine = StreamingEngine(
        fitted_pipeline, idle_timeout_s=IDLE_TIMEOUT_S, analytics=True
    )
    encoder, chain, n_full, n_closed = _CheckpointEncoder(), [], 0, 0
    for tick, batch in enumerate(feed):
        n_closed += sum(
            isinstance(event, SessionReport) for event in engine.ingest(batch)
        )
        if tick % 2:
            continue
        snapshot = engine.snapshot()
        full, blob = encoder.encode(snapshot)
        n_full += full
        chain = [blob] if full else chain + [blob]
        _full, one_full_checkpoint = _CheckpointEncoder().encode(snapshot)
        assert sum(map(len, chain)) <= 2.25 * len(one_full_checkpoint) + (64 << 10)
    assert n_closed >= len(runtime_sessions) * (rounds - 2)  # sessions really churned
    assert 1 < n_full < tick // 4  # re-based, but mostly shipped deltas
    assert state_bytes(restored_from(chain, fitted_pipeline, "bounded")) == state_bytes(
        engine
    )
