"""Spans around the program's public calls, recorded from outside it.

Nothing under ``src/`` knows about this file.  :class:`Tracer` wraps public
methods — on the instance for the fitted pipeline's parts, on the class for
objects the engine creates itself — and every wrapped call appends one span
``[name, start, end, parent, tick, n, m]`` to a list in memory: ``parent``
is the index of the enclosing span (-1 at top level), ``tick`` the feed
tick the driver was in, ``n`` and ``m`` two counts taken at the same
boundary (rows and flows, bytes and rows, ...).  A layer's *self* time is
its spans' durations minus the part their direct children cover, so the
self times of all layers add up to the traced part of the pass.

(The issue calls this file ``trace.py``; it is ``tracing.py`` because pytest
puts this directory on ``sys.path`` for the whole tier-1 run, where a
``trace.py`` would shadow the standard library's ``trace`` module.)
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, TICK, N, M = range(7)
_MISSING = object()


class Tracer:
    """In-memory span recorder with reversible monkey-patching."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.tick = -1
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        #: boundaries :meth:`patch` did not find; their layers read 0
        self.missing: List[str] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``count(args, result)`` returns ``n`` or ``(n, m)``; it runs after
        the span has ended, so counting is never on the layer's clock.
        """
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tick, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                counted = count(args, result)
                if isinstance(counted, tuple):
                    span[N], span[M] = counted
                else:
                    span[N] = counted
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` by its traced version until :meth:`unpatch`.

        ``owner`` is a class, a module or an instance.  On an instance the
        bound method is wrapped and stored in the instance ``__dict__``, so
        ``count`` sees ``args`` without ``self``; on a class it sees ``self``
        as ``args[0]``.  A boundary the program no longer has is noted in
        :attr:`missing` instead of stopping the run: later changes may remove
        a method, and may not edit this file to say so.
        """
        if not hasattr(owner, attribute):
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attribute}")
            return
        own = vars(owner).get(attribute, _MISSING)
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), count))
        self._patched.append((owner, attribute, own))

    def unpatch(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._patched:
            owner, attribute, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def take(self) -> List[list]:
        """Hand over the recorded spans and start an empty list."""
        spans, self.spans, self.tick = self.spans, [], -1
        return spans


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def by_name(spans: List[list]) -> Dict[str, dict]:
    """``name -> {self_s, total_s, calls, n, m}``.

    ``total_s`` is inclusive time with same-name nesting counted once: a
    span inside another of its own name is already part of that one's total.
    """
    out: Dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(
            span[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "n": 0, "m": 0}
        )
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["n"] += span[N]
        entry["m"] += span[M]
        ancestor = span[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            entry["total_s"] += span[END] - span[START]
    return out


def top_level_seconds(spans: List[list]) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(span[END] - span[START] for span in spans if span[PARENT] < 0)


def write_jsonl(path: Path, spans: List[list], header: dict) -> None:
    """One header object, then one span array per line, times from the first start."""
    origin = spans[0][START] if spans else 0.0
    with path.open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for span in spans:
            row = list(span)
            row[START] -= origin
            row[END] -= origin
            handle.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# where the spans go: the program's layers
# ---------------------------------------------------------------------------
def _first_len(args, _result) -> int:
    return len(args[0])


def _method_len(args, _result) -> int:
    return len(args[1])


def _result_len(_args, result) -> int:
    return len(result)


def install(tracer: Tracer, pipeline) -> None:
    """Patch the program's layer boundaries (undo with ``tracer.unpatch()``)."""
    from repro.analytics import fleet
    from repro.core.reducers import SessionReducerCascade
    from repro.runtime import FlowDemux, ShardSupervisor, ShmColumnRing, StreamingEngine
    from repro.runtime import shard as shard_module

    patch = tracer.patch
    # runtime.engine: what ingest and close do that no layer below claims
    patch(StreamingEngine, "ingest", "runtime.engine.ingest", _result_len)
    patch(StreamingEngine, "close", "runtime.engine.close", _result_len)
    patch(StreamingEngine, "close_all", "runtime.engine.close", _result_len)
    # runtime.demux: split() materialises what split_indices() found
    patch(FlowDemux, "split", "runtime.demux")
    patch(
        FlowDemux, "split_indices", "runtime.demux.indices",
        lambda args, result: (len(args[1]), len(result)),
    )
    # core.reducers: one absorb per flow sub-batch (live) or per session (offline)
    patch(SessionReducerCascade, "absorb", "core.reducers.absorb", _method_len)
    patch(SessionReducerCascade, "absorb_stream", "core.reducers.absorb", _method_len)
    # the three classification processes
    title, activity = pipeline.title_classifier, pipeline.activity_classifier
    pattern = pipeline.pattern_classifier
    patch(title, "predict_streams", "core.title_classifier", _first_len)
    patch(activity, "predict_features", "core.activity_classifier", _first_len)
    patch(
        activity, "predict_raw_slots_many", "core.activity_classifier",
        lambda args, _result: sum(len(matrix) for matrix in args[0]),
    )
    patch(pattern, "predict_incremental_many", "core.pattern_classifier", _first_len)
    patch(pattern.model, "predict_proba", "core.pattern_classifier", _first_len)
    # ml.kernel: one compiled kernel per forest
    for model in (title.model, activity.model, pattern.model):
        patch(model.kernel, "predict_proba", "ml.kernel", _first_len)
    # core.qoe: n counts measurement windows estimated
    estimator, calibrator = pipeline.qoe_estimator, pipeline.qoe_calibrator
    patch(estimator, "estimate_arrays", "core.qoe", lambda _args, _result: 1)
    patch(estimator, "estimate_approx", "core.qoe", lambda _args, _result: 1)
    patch(calibrator, "objective_level", "core.qoe")
    patch(calibrator, "objective_levels", "core.qoe")
    patch(calibrator, "effective_levels", "core.qoe")
    # core.pipeline
    patch(pipeline, "finalize_cascades", "core.pipeline.finalize", _first_len)
    patch(pipeline, "process_many", "core.pipeline.process_many", _first_len)
    # analytics.fleet
    patch(fleet.FleetAggregator, "observe_all", "analytics.fleet.observe")
    patch(fleet, "fold_corpus", "analytics.fleet.observe")
    patch(fleet.FleetAggregator, "merge", "analytics.fleet.merge")
    patch(ShardSupervisor, "merged_analytics", "analytics.fleet.merge")
    # runtime.shard / shm / supervisor: the parent side of the sharded feed
    patch(shard_module, "shard_of", "runtime.shard.partition")
    patch(
        ShmColumnRing, "write_slot", "runtime.shm.write",
        lambda args, result: (args[0].slot_nbytes(result[0]), result[0]),
    )
    patch(
        ShardSupervisor, "send_tick_indexed", "runtime.supervisor.send",
        lambda args, _result: (sum(int(rows.size) for _key, rows in args[3]), args[1]),
    )
    patch(ShardSupervisor, "drain", "runtime.supervisor.drain")
    patch(ShardSupervisor, "close_all", "runtime.supervisor.drain")
    patch(ShardSupervisor, "start", "runtime.supervisor.start")
    patch(ShardSupervisor, "stop", "runtime.supervisor.stop")


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The per-layer metrics that come from spans alone, by BENCHMARK.json name."""
    names = by_name(spans)

    def get(name: str, field: str) -> float:
        return names.get(name, {}).get(field, 0)

    out = {
        "net.pcap.decode_self_s": get("net.pcap.decode", "self_s"),
        "runtime.demux.self_s": get("runtime.demux", "self_s")
        + get("runtime.demux.indices", "self_s"),
        "runtime.demux.calls": get("runtime.demux.indices", "calls"),
        "runtime.demux.rows": get("runtime.demux.indices", "n"),
        "runtime.demux.flows": get("runtime.demux.indices", "m"),
        "core.reducers.absorb_self_s": get("core.reducers.absorb", "self_s"),
        "core.reducers.absorb_calls": get("core.reducers.absorb", "calls"),
        "core.reducers.rows": get("core.reducers.absorb", "n"),
        "core.qoe.self_s": get("core.qoe", "self_s"),
        "core.qoe.intervals": get("core.qoe", "n"),
        "core.pipeline.finalize_self_s": get("core.pipeline.finalize", "self_s"),
        "core.pipeline.finalize_sessions": get("core.pipeline.finalize", "n"),
        "core.pipeline.process_many_self_s": get("core.pipeline.process_many", "self_s"),
        "runtime.engine.ingest_self_s": get("runtime.engine.ingest", "self_s"),
        "runtime.engine.close_self_s": get("runtime.engine.close", "self_s"),
        "analytics.fleet.observe_self_s": get("analytics.fleet.observe", "self_s"),
        "analytics.fleet.merge_s": get("analytics.fleet.merge", "total_s"),
        "runtime.shard.partition_self_s": get("runtime.shard.partition", "self_s"),
        "runtime.shm.write_self_s": get("runtime.shm.write", "self_s"),
        "runtime.shm.bytes": get("runtime.shm.write", "n"),
        "runtime.supervisor.send_self_s": get("runtime.supervisor.send", "self_s"),
        "runtime.supervisor.drain_wait_s": get("runtime.supervisor.drain", "self_s"),
        "runtime.supervisor.start_s": get("runtime.supervisor.start", "total_s"),
        "runtime.supervisor.stop_s": get("runtime.supervisor.stop", "total_s"),
        "trace.spans": len(spans),
    }
    for layer in ("core.title_classifier", "core.activity_classifier", "core.pattern_classifier"):
        out[f"{layer}.self_s"] = get(layer, "self_s")
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.rows"] = get(layer, "n")
    kernel_calls = get("ml.kernel", "calls")
    out["ml.kernel.self_s"] = get("ml.kernel", "self_s")
    out["ml.kernel.calls"] = kernel_calls
    out["ml.kernel.rows"] = get("ml.kernel", "n")
    out["ml.kernel.rows_per_call"] = get("ml.kernel", "n") / kernel_calls if kernel_calls else 0
    sent = [0] * (1 + max((span[M] for span in spans if span[NAME] == "runtime.supervisor.send"), default=0))
    for span in spans:
        if span[NAME] == "runtime.supervisor.send":
            sent[span[M]] += span[N]
    out["runtime.shard.skew"] = max(sent) * len(sent) / sum(sent) if sum(sent) else 0
    return out
