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
from hypothesis.extra import numpy as hnp

from repro.core.reducers import FrozenSnapshot
from repro.core.title_classifier import TitlePrediction
from repro.net.flow import FlowKey
from repro.net.packet import PacketColumns
from repro.runtime import (
    FlowContext,
    QoEInterval,
    SessionFeed,
    SessionReport,
    StreamingEngine,
)
from repro.runtime.supervisor import _CheckpointEncoder, _decode_checkpoints
from repro.simulation.session import SessionConfig, SessionGenerator

SESSION_MODES = ("bounded", "full", "approx")
IDLE_TIMEOUT_S = 4.0


def state_bytes(engine: StreamingEngine) -> bytes:
    """The engine's snapshot as bytes that depend on its values alone.

    Plain ``pickle.dumps`` memoises shared objects — each array's dtype, the
    address strings and tuples a flow's rows share — and parts of a chain
    decode from different blobs, so two snapshots with identical contents
    can differ in memo references.  The memo is therefore off (every
    reference is written out) and every numeric array is written by value.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
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


# ---------------------------------------------------------------------------
# the encoder alone: array layouts and immutable holders nobody hand-picked
# ---------------------------------------------------------------------------
def _laid_out(array: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(array)
    if layout == "strided":
        return array[::2]
    if layout == "reversed":
        return array[::-1]
    if layout == "readonly":
        array.flags.writeable = False
    return array


NUMERIC_ARRAYS = st.builds(
    _laid_out,
    hnp.arrays(
        dtype=st.sampled_from((np.float64, np.float32, np.int64, np.int8, np.bool_)),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=24),
    ),
    st.sampled_from(("C", "F", "strided", "reversed", "readonly")),
)
OBJECT_ARRAYS = st.lists(
    st.one_of(st.text(max_size=4), st.tuples(st.text(max_size=4), st.integers())),
    max_size=12,
).map(lambda values: np.array(values + [None], dtype=object)[:-1])
HOLDERS = st.one_of(
    st.builds(
        lambda columns, count: FrozenSnapshot(columns=tuple(columns), n_packets=count),
        st.lists(NUMERIC_ARRAYS, max_size=3),
        st.integers(min_value=0),
    ),
    st.builds(
        lambda title, confidence: TitlePrediction(
            title=title, confidence=confidence, probabilities={title: confidence}
        ),
        st.text(max_size=6),
        st.floats(0, 1),
    ),
    st.builds(FlowKey, st.text(max_size=6), st.integers(0, 65535), st.text(max_size=6), st.integers(0, 65535)),
    st.builds(FlowContext, st.none() | st.text(max_size=4), st.floats(0.01, 1)),
)
# a numeric array, a view beside its base, an object column or a holder
ITEMS = st.lists(
    st.one_of(
        NUMERIC_ARRAYS.map(lambda array: [array]),
        NUMERIC_ARRAYS.filter(lambda array: array.shape[0] > 1).map(
            lambda base: [base, base[1:]]
        ),
        OBJECT_ARRAYS.map(lambda array: [array]),
        HOLDERS.map(lambda holder: [holder]),
    ),
    max_size=8,
).map(lambda groups: [item for group in groups for item in group])


def assert_decoded(decoded, source) -> None:
    """Same values, types, dtypes, shapes and writeability, all the way down."""
    assert type(decoded) is type(source)
    if type(source) is np.ndarray:
        assert decoded.dtype == source.dtype and decoded.shape == source.shape
        assert decoded.flags.writeable == source.flags.writeable
        if source.dtype.hasobject:
            assert decoded.tolist() == source.tolist()
        else:
            assert decoded.tobytes() == source.tobytes()
    elif isinstance(source, dict):
        assert list(decoded) == list(source)
        for key in source:
            assert_decoded(decoded[key], source[key])
    elif isinstance(source, (list, tuple)):
        assert len(decoded) == len(source)
        for left, right in zip(decoded, source):
            assert_decoded(left, right)
    else:
        assert decoded == source


@settings(max_examples=60, deadline=None)
@given(
    first=ITEMS,
    second=ITEMS,
    kept=st.lists(st.integers(min_value=0), max_size=6),
)
def test_encoder_round_trips_any_layout(first, second, kept):
    """Two checkpoints of snapshots that share objects decode to the second.

    Objects kept from the first snapshot travel by token only; an object
    named twice decodes as one object; a third checkpoint of an unchanged
    snapshot ships nothing unless the structures alone re-base the chain.
    """
    again = [first[index % len(first)] for index in kept] if first else []
    items = second + again + again
    encoder = _CheckpointEncoder()
    full, blob = encoder.encode({"items": first})
    assert full
    _full, delta = encoder.encode({"items": items})
    chain = [delta] if _full else [blob, delta]
    decoded = _decode_checkpoints(chain)["items"]
    assert_decoded(decoded, items)
    for i, j in itertools.combinations(range(len(items)), 2):
        assert (decoded[i] is decoded[j]) == (items[i] is items[j])
    _full, unchanged = encoder.encode({"items": items})
    assert _full or pickle.loads(unchanged)[1] == {}


def test_flow_key_pickles_as_its_five_fields(monkeypatch):
    """A key is one constructor call on the shard wire, and one object per chain."""
    key = FlowKey("10.0.0.7", 52001, "192.0.2.9", 49003)
    data = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    copy = pickle.loads(data)
    assert type(copy) is FlowKey and copy == key and hash(copy) == hash(key)
    with monkeypatch.context() as patched:  # the slots dataclass's own state pair
        patched.delattr(FlowKey, "__reduce__")
        assert len(data) < len(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))

    encoder = _CheckpointEncoder()
    _full, first = encoder.encode({"flows": {key: 1}, "keys": [key]})
    full, second = encoder.encode({"flows": {key: 2}, "keys": [key, key]})
    assert not full and pickle.loads(second)[1] == {}  # shipped once, then by token
    decoded = _decode_checkpoints([first, second])
    (restored,) = decoded["flows"]
    assert restored == key and decoded["flows"][restored] == 2
    assert all(each is restored for each in decoded["keys"])


def test_restored_state_that_folds_in_place_is_writeable(
    fitted_pipeline, runtime_sessions
):
    """Arrays a restored engine writes into (slot counters, the approx
    tier's counting sets and reservoirs) own writeable memory."""
    for mode in ("bounded", "approx"):
        engine = StreamingEngine(
            fitted_pipeline, session_mode=mode, idle_timeout_s=IDLE_TIMEOUT_S
        )
        for batch in itertools.islice(SessionFeed(runtime_sessions, batch_seconds=1.0), 40):
            engine.ingest(batch)
        _full, blob = _CheckpointEncoder().encode(engine.snapshot())
        replica = restored_from([blob], fitted_pipeline, mode)
        cascades = [state.cascade for state in replica._states.values()]
        assert cascades
        for cascade in cascades:
            assert cascade.slots._raw.flags.writeable
            # the tracker steps its peaks and EMA as python lists
            tracker = cascade.slots._tracker
            assert type(tracker._peaks) is list
            assert tracker._ema is None or type(tracker._ema) is list
            if mode == "approx":
                qoe = cascade.qoe
                arrays = [qoe._gap_reservoir.samples]
                arrays += [store.reservoir.samples for store in qoe._stores.values()]
                arrays += [qoe._seen, qoe._skipped] if qoe._seen is not None else []
                assert all(array.flags.writeable for array in arrays)


class _CountingPickler(pickle.Pickler):
    """The encoder's pickler, counting what it hands the persistent-id hook
    and how many structure bytes it writes."""

    objects = 0
    nbytes = 0

    def __init__(self, file, *args, **kwargs):
        super().__init__(file, *args, **kwargs)
        self.out = file

    def __setattr__(self, name, value):
        if name == "persistent_id":
            hook = value

            def value(obj):
                _CountingPickler.objects += 1
                return hook(obj)

        super().__setattr__(name, value)

    def dump(self, obj):
        super().dump(obj)
        _CountingPickler.nbytes = self.out.tell()


def test_checkpoint_work_does_not_grow_with_session_age(fitted_pipeline, monkeypatch):
    """Sealed intervals and the stage timeline cost a checkpoint nothing to
    walk once shipped: the objects the pickler visits and the structure it
    writes stay flat while the session ages.  Counts, not times."""
    session = SessionGenerator(random_state=5).generate(
        "CS:GO/CS2", SessionConfig(gameplay_duration_s=300.0, rate_scale=0.05)
    )
    engine = StreamingEngine(
        fitted_pipeline, idle_timeout_s=IDLE_TIMEOUT_S, analytics=True
    )
    encoder, walks, n_sealed = _CheckpointEncoder(), [], 0
    for tick, batch in enumerate(SessionFeed([session], batch_seconds=1.0)):
        n_sealed += sum(isinstance(event, QoEInterval) for event in engine.ingest(batch))
        if tick % 16 == 15:
            snapshot = engine.snapshot()
            with monkeypatch.context() as patch:
                patch.setattr(pickle, "Pickler", _CountingPickler)
                _CountingPickler.objects = 0
                encoder.encode(snapshot)
            walks.append((_CountingPickler.objects, _CountingPickler.nbytes))
    assert n_sealed >= 12 and len(walks) > 12
    (objects_third, nbytes_third), (objects_last, nbytes_last) = walks[2], walks[-1]
    assert objects_last <= 1.25 * objects_third
    assert nbytes_last <= 1.25 * nbytes_third
