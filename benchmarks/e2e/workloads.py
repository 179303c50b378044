"""The four workloads: inputs, the program as deployed, and the reference pass.

Every workload is a closed loop with one driver thread: a pre-materialised
feed is drained through a synchronous in-process library call, so there is
no queue and real-time headroom is ``batch_seconds / tick``.  This file is
the only one that calls into the program under test; clocks are read in
:class:`TimedFeed` between pulls and nowhere else.

Run as a script (``workloads.py <workload> <cold-start file>``) it is the
cold-start child of ``setup_s``: its first statement starts the clock.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, Iterable, List, Optional  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

T_NUMPY = time.perf_counter()

from repro.analytics import fleet as fleet_module  # noqa: E402
from repro.net.flow import FlowKey  # noqa: E402
from repro.net.packet import UPSTREAM_CODE, PacketStream  # noqa: E402
from repro.net.pcap import ParseStats, read_pcap_columns  # noqa: E402
from repro.runtime import (  # noqa: E402
    FlowContext,
    SessionFeed,
    SessionStarted,
    ShardedEngine,
    StreamingEngine,
    TitleClassified,
    default_worker_count,
    load_pipeline,
    pcap_feed,
)

T_IMPORTED = time.perf_counter()

#: name -> why the workload exists (copied into BENCHMARK.json)
WORKLOADS = {
    "live_single": (
        "24 staggered sessions in 1 s ticks through one StreamingEngine: reducers, "
        "forest gates and fleet fold do the work; the single-worker reference"
    ),
    "live_sharded": (
        "the identical feed through the fork-backend ShardedEngine: the difference "
        "to live_single is partition, shm write, control pipe, checkpoints, merge"
    ),
    "tap_small_ticks": (
        "8 sessions replayed from a snaplen-64 pcap in 0.1 s ticks: per-tick fixed "
        "cost, tiny forest matrices and pcap decode dominate; only user of net.pcap"
    ),
    "corpus_batch": (
        "all 104 held-out sessions classified offline in 32 chunks: bypasses runtime/, "
        "bulk finalize and large-matrix ForestKernel calls dominate"
    ),
}
#: sessions, span of the start offsets, tick length
LIVE_SESSIONS, LIVE_SPAN_S, LIVE_BATCH_S = 24, 30.0, 1.0
TAP_SESSIONS, TAP_SPAN_S, TAP_BATCH_S = 8, 20.0, 0.1
#: the tap captures the first 120 s of every session (~1400 ticks with the
#: offsets), which keeps a pass short enough for 8 of them in a run
TAP_SESSION_S = 120.0
#: 32 intervals of ~30 ms per pass: interleaved runs spread ``pkt_per_s`` by 19 %
#: with 8 chunks, 15 % with 16 and 10 % with 32 — a floor needs one clean
#: observation of every interval, and short intervals get one sooner
CORPUS_CHUNKS = 32
IDLE_TIMEOUT_S = 30.0
SNAPSHOT_EVERY_TICKS = 16
SESSION_PLATFORM = "GeForce NOW"


def shard_workers() -> int:
    """Worker processes of ``live_sharded``: never more than the cores we may use."""
    return min(2, default_worker_count())


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Inputs:
    """Everything one workload replays, generated from the seed alone."""

    name: str
    seed: int
    #: the sessions as the program sees them (shifted / read back from the
    #: capture) — offline ``process_many`` over these is the ground truth
    sessions: list
    #: the same sessions in the generator's own time, for its title and stage labels
    labels: list
    n_packets: List[int]
    feed_seconds: float
    digest: str
    keys: List[FlowKey] = dataclasses.field(default_factory=list)
    contexts: Dict[FlowKey, FlowContext] = dataclasses.field(default_factory=dict)
    batches: Optional[list] = None  # live_*: materialised SessionFeed ticks
    capture: Optional[Path] = None  # tap_small_ticks
    chunks: Optional[List[list]] = None  # corpus_batch
    parse_stats: Optional[ParseStats] = None
    #: one verdict per generator self-check: ``None`` passed, a string failed
    checks: List[Optional[str]] = dataclasses.field(default_factory=list)

    def source(self) -> Iterable:
        """A fresh iterable of this workload's batches, for one pass."""
        if self.capture is not None:
            # the only workload whose feed is program code: records decode
            # lazily, chunk by chunk, inside the timed region
            return pcap_feed(
                self.capture,
                batch_seconds=TAP_BATCH_S,
                client_ip=self.labels[0].client_ip,
            )
        return self.chunks if self.chunks is not None else self.batches


def prepare(name: str, seed: int, out_dir: Path) -> Inputs:
    """Generate and self-check the inputs of workload ``name``."""
    import loadgen

    from repro.simulation.catalog import GAME_TITLES

    corpus = loadgen.replay_corpus()
    rng = np.random.default_rng(seed)
    # the generator repeats itself: the first title's sessions, generated again
    again = loadgen.replay_corpus(titles=GAME_TITLES[:1])
    same = loadgen.inputs_digest(again) == loadgen.inputs_digest(corpus[: len(again)])
    checks: List[Optional[str]] = [None if same else "the generator did not repeat its sessions"]

    if name == "corpus_batch":
        # session j belongs to chunk j % 32 whatever the seed, so every seed
        # times the same 32 pieces of work; the seed orders them
        chunks = [
            [corpus[j] for j in rng.permutation(np.arange(c, len(corpus), CORPUS_CHUNKS))]
            for c in rng.permutation(CORPUS_CHUNKS)
        ]
        sessions = [session for chunk in chunks for session in chunk]
        return Inputs(
            name=name, seed=seed, sessions=sessions, labels=sessions,
            n_packets=[len(s.packets) for s in sessions],
            feed_seconds=sum(s.duration for s in sessions),
            digest=loadgen.inputs_digest(sessions), chunks=chunks,
            checks=checks,
        )

    live = name != "tap_small_ticks"
    if live:
        labels = loadgen.stratified_pick(corpus, LIVE_SESSIONS)
        offsets = loadgen.start_offsets(LIVE_SESSIONS, LIVE_SPAN_S, rng)
    else:
        labels = [
            loadgen.clip_session(session, TAP_SESSION_S)
            for session in loadgen.stratified_pick(corpus, TAP_SESSIONS)
        ]
        offsets = loadgen.start_offsets(TAP_SESSIONS, TAP_SPAN_S, rng)
    shifted = [loadgen.shift_session(s, float(o)) for s, o in zip(labels, offsets)]
    if live:
        feed = SessionFeed(
            shifted, batch_seconds=LIVE_BATCH_S, client_port_base=loadgen.CLIENT_PORT_BASE
        )
        first = min(float(s.packets.columns().timestamps[0]) for s in shifted)
        last = max(float(s.packets.columns().timestamps[-1]) for s in shifted)
        return Inputs(
            name=name, seed=seed, sessions=shifted, labels=labels,
            n_packets=[len(s.packets) for s in shifted], feed_seconds=last - first,
            digest=loadgen.inputs_digest(shifted), keys=list(feed.flow_contexts),
            contexts=dict(feed.flow_contexts), batches=list(feed),
            checks=checks,
        )

    capture = out_dir / f"capture-{seed}.pcap"
    data = loadgen.write_capture(capture, shifted)
    stats = ParseStats()
    client_ip = labels[0].client_ip
    columns = read_pcap_columns(capture, client_ip=client_ip, stats=stats)
    ports = np.fromiter(
        (a[2] if d == UPSTREAM_CODE else a[3] for a, d in zip(columns.addresses, columns.directions)),
        dtype=np.int64,
        count=len(columns),
    )
    read_back, keys = [], []
    for index, session in enumerate(shifted):
        rows = np.flatnonzero(ports == loadgen.CLIENT_PORT_BASE + index)
        flow = columns.take(rows)
        sent = session.packets.columns()
        seconds, micros = loadgen.quantise_us(sent.timestamps[:1])
        intact = (
            len(flow) == len(sent)
            and float(flow.payload_sizes.sum()) == float(sent.payload_sizes.sum())
            and float(flow.timestamps[0]) == float(seconds[0] + micros[0] / 1_000_000)
        )
        checks.append(None if intact else f"capture: flow {index} did not round-trip")
        read_back.append(
            dataclasses.replace(session, packets=PacketStream.from_columns(flow))
        )
        keys.append(
            FlowKey(client_ip, loadgen.CLIENT_PORT_BASE + index, session.server_ip,
                    loadgen.DEFAULT_SERVER_PORT)
        )
    decoded = not (stats.n_skipped or stats.truncated_records) and stats.n_decoded == len(columns)
    checks.append(None if decoded else f"capture: reader skipped records ({stats})")
    contexts = {
        key: FlowContext(platform=SESSION_PLATFORM, rate_scale=session.rate_scale)
        for key, session in zip(keys, shifted)
    }
    return Inputs(
        name=name, seed=seed, sessions=read_back, labels=labels,
        n_packets=[len(s.packets) for s in shifted],
        feed_seconds=float(columns.timestamps[-1] - columns.timestamps[0]),
        digest=loadgen.inputs_digest(shifted, extra=data), keys=keys, contexts=contexts,
        capture=capture, parse_stats=stats, checks=checks,
    )


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------
class TimedFeed:
    """A feed that reads the clocks between pulls, and nothing else.

    ``marks`` gets one ``(wall, cpu)`` reading before every pull, the last
    one before the pull that ends the feed; with the pass's own start and
    end readings they cut the pass into start, one interval per tick, and
    close.  ``pull_span`` names the pull for the tracer where pulling is
    program work (the pcap decode).
    """

    def __init__(
        self,
        source: Callable[[], Iterable],
        flow_contexts: Dict[FlowKey, FlowContext],
        tracer=None,
        pull_span: Optional[str] = None,
    ) -> None:
        self._source = source
        self.flow_contexts = flow_contexts
        self._tracer = tracer
        self._pull_span = pull_span if tracer is not None else None
        self.marks: List[tuple] = []

    def __iter__(self):
        source = iter(self._source())
        tracer, marks = self._tracer, self.marks
        pull = next if self._pull_span is None else tracer.wrap(self._pull_span, next)
        while True:
            marks.append((time.perf_counter(), time.process_time()))
            if tracer is not None:
                tracer.tick = len(marks) - 1
            try:
                batch = pull(source)
            except StopIteration:
                return
            yield batch


@dataclasses.dataclass
class PassResult:
    """What one pass produced and how long each of its intervals took."""

    wall: np.ndarray  # start, one per tick, close
    cpu: np.ndarray
    events: list  # corpus_batch: the reports, in session order
    analytics: object
    children_cpu_s: float
    feed_stats: Optional[dict]


def _drive_single(pipeline, feed: TimedFeed, _plan):
    engine = StreamingEngine(pipeline, idle_timeout_s=IDLE_TIMEOUT_S, analytics=True)
    return list(engine.run(feed)), engine.analytics, None


def _drive_sharded(pipeline, feed: TimedFeed, plan):
    engine = ShardedEngine(
        pipeline,
        n_workers=shard_workers(),
        backend="fork",
        idle_timeout_s=IDLE_TIMEOUT_S,
        snapshot_every_ticks=SNAPSHOT_EVERY_TICKS,
        analytics=True,
    )
    try:
        events = list(engine.run_feed(feed, fault_plan=plan))
    finally:
        engine.close()
    return events, engine.analytics, engine.last_feed_stats


def _drive_corpus(pipeline, feed: TimedFeed, _plan):
    aggregator = fleet_module.FleetAggregator()
    reports: list = []
    for chunk in feed:
        chunk_reports = pipeline.process_many(chunk)
        fleet_module.fold_corpus(
            pipeline, chunk, reports=chunk_reports, aggregator=aggregator
        )
        reports.extend(chunk_reports)
    return reports, aggregator, None


_DRIVERS = {
    "live_single": _drive_single,
    "live_sharded": _drive_sharded,
    "tap_small_ticks": _drive_single,
    "corpus_batch": _drive_corpus,
}


def run_pass(inputs: Inputs, pipeline, tracer=None, fault_plan=None) -> PassResult:
    """One pass of the workload, driven exactly as deployed.

    A fresh engine per pass; the garbage collector runs between passes and
    stays enabled inside them.
    """
    gc.collect()
    feed = TimedFeed(
        inputs.source,
        inputs.contexts,
        tracer=tracer,
        pull_span="net.pcap.decode" if inputs.capture is not None else None,
    )
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    begin = (time.perf_counter(), time.process_time())
    events, analytics, feed_stats = _DRIVERS[inputs.name](pipeline, feed, fault_plan)
    end = (time.perf_counter(), time.process_time())
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    marks = np.array([begin] + feed.marks + [end])
    intervals = np.diff(marks, axis=0)
    return PassResult(
        wall=intervals[:, 0],
        cpu=intervals[:, 1],
        events=events,
        analytics=analytics,
        children_cpu_s=(reaped.ru_utime + reaped.ru_stime)
        - (children.ru_utime + children.ru_stime),
        feed_stats=feed_stats,
    )


# ---------------------------------------------------------------------------
# the reference pass (slow, sampled, never timed)
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Reference:
    """The expected output of a pass, plus what only a sampled pass can see."""

    events: list  # corpus_batch: the reports, in session order
    digest: str
    state_bytes_peak: int
    live_flows_peak: int
    title_delays_feed_s: List[float]
    analytics_nbytes: int
    #: events of "first batch, then close" on one engine (the cold-start check)
    first_batch_events: int
    snapshot_s: float = 0.0
    snapshot_bytes: int = 0


def reference_pass(inputs: Inputs, pipeline, snapshots: bool = False) -> Reference:
    """Drive the workload tick by tick on one engine, sampling its state.

    State is sampled once per feed second.  ``live_sharded`` is sampled on
    the same single-engine replica as ``live_single``: summed session state
    does not depend on how flows are partitioned, and worker memory is not
    visible from the parent.  With ``snapshots`` the replica also times a
    checkpoint (``engine.snapshot()`` pickled and deflated, the supervisor's
    documented encoding) every ``SNAPSHOT_EVERY_TICKS`` ticks.
    """
    if inputs.chunks is not None:
        return _reference_corpus(inputs, pipeline)
    engine = StreamingEngine(pipeline, idle_timeout_s=IDLE_TIMEOUT_S, analytics=True)
    for key, context in inputs.contexts.items():
        engine.set_flow_context(key, context)
    sample_every = round(1.0 / (LIVE_BATCH_S if inputs.batches is not None else TAP_BATCH_S))
    events: list = []
    origins: Dict[FlowKey, float] = {}
    delays: List[float] = []
    state_peak = live_peak = snapshot_bytes = 0
    snapshot_s = 0.0
    for tick, batch in enumerate(inputs.source()):
        fired = engine.ingest(batch)
        events.extend(fired)
        for event in fired:
            if isinstance(event, SessionStarted):
                origins[event.flow] = event.time
            elif isinstance(event, TitleClassified):
                delays.append(engine.clock - origins[event.flow])
        if tick % sample_every == 0:
            state_peak = max(
                state_peak, sum(engine.state_nbytes().values()) + engine.analytics.nbytes()
            )
            live_peak = max(live_peak, len(engine.live_flows))
        if snapshots and (tick + 1) % SNAPSHOT_EVERY_TICKS == 0:
            started = time.perf_counter()
            blob = zlib.compress(
                pickle.dumps(engine.snapshot(), protocol=pickle.HIGHEST_PROTOCOL), 1
            )
            snapshot_s += time.perf_counter() - started
            snapshot_bytes = max(snapshot_bytes, len(blob))
    events.extend(engine.close_all())
    first = TimedFeed(lambda: itertools.islice(inputs.source(), 1), inputs.contexts)
    return Reference(
        events=events,
        digest=engine.analytics.digest(),
        state_bytes_peak=state_peak,
        live_flows_peak=live_peak,
        title_delays_feed_s=delays,
        analytics_nbytes=engine.analytics.nbytes(),
        first_batch_events=len(_drive_single(pipeline, first, None)[0]),
        snapshot_s=snapshot_s,
        snapshot_bytes=snapshot_bytes,
    )


def _reference_corpus(inputs: Inputs, pipeline) -> Reference:
    """Offline reference: the whole corpus in one ``process_many`` call.

    The chunked passes must reproduce these reports exactly; the fleet
    digest is the chunked fold's own (its zero-traffic windows seal against
    each chunk's clock, so it differs from a one-shot ``fold_corpus``).
    """
    reports = pipeline.process_many(inputs.sessions)
    aggregator = fleet_module.FleetAggregator()
    cursor = 0
    for chunk in inputs.chunks:
        fleet_module.fold_corpus(
            pipeline, chunk, reports=reports[cursor : cursor + len(chunk)],
            aggregator=aggregator,
        )
        cursor += len(chunk)
    window = pipeline.title_classifier.window_seconds
    delays = []
    for session in inputs.sessions:
        times = session.packets.columns().timestamps
        # the first instant an observer can know the title window is over
        after = int(np.searchsorted(times, times[0] + window, side="left"))
        delays.append(float(times[min(after, times.size - 1)] - times[0]))
    return Reference(
        events=reports,
        digest=aggregator.digest(),
        state_bytes_peak=aggregator.nbytes(),
        live_flows_peak=0,
        title_delays_feed_s=delays,
        analytics_nbytes=aggregator.nbytes(),
        first_batch_events=len(inputs.chunks[0]),
    )


# ---------------------------------------------------------------------------
# cold start (setup_s)
# ---------------------------------------------------------------------------
def write_cold_start(inputs: Inputs, model_dir: Path, path: Path) -> None:
    """Save what a cold-start child needs: the model path and the first batch."""
    with path.open("wb") as handle:
        pickle.dump(
            {
                "model": str(model_dir),
                "capture": None if inputs.capture is None else str(inputs.capture),
                "client_ip": inputs.labels[0].client_ip,
                "contexts": inputs.contexts,
                "first": None if inputs.capture is not None else next(iter(inputs.source())),
            },
            handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def cold_start(name: str, path: Path) -> dict:
    """From this file's first line to the first batch's reports, once.

    Imports, ``load_pipeline``, building the engine (forking workers,
    allocating rings), the first batch through it and a clean close — what
    an operator waits for between launching the program and its first
    output.  Reading the pre-generated first batch back from disk is
    generator work and is taken off the clock.
    """
    paused = time.perf_counter()
    with path.open("rb") as handle:
        spec = pickle.load(handle)
    off_clock = time.perf_counter() - paused
    load_started = time.perf_counter()
    pipeline = load_pipeline(spec["model"])
    load_s = time.perf_counter() - load_started
    if spec["capture"] is not None:
        def source():
            return itertools.islice(
                pcap_feed(spec["capture"], batch_seconds=TAP_BATCH_S, client_ip=spec["client_ip"]),
                1,
            )
    else:
        def source():
            return [spec["first"]]
    events = _DRIVERS[name](pipeline, TimedFeed(source, spec["contexts"]), None)[0]
    done = time.perf_counter()
    return {
        # the launch cut into its stages, in order; they add up to the cold start
        "stages_s": {
            "import_numpy": T_NUMPY - T0,
            "import_repro": T_IMPORTED - T_NUMPY,
            "load_pipeline": load_s,
            "first_batch": (done - T_IMPORTED) - off_clock - load_s,
        },
        "first_batch_events": len(events),
    }


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit("usage: workloads.py <workload> <cold-start file>")
    print(json.dumps(cold_start(sys.argv[1], Path(sys.argv[2]))))
