"""Traced runs: the per-layer metrics of each workload.

"Traced" means the benchmark's own timers (:class:`Spans`), placed
around each call the benchmark makes into a layer's public functions;
no timer sits inside the package.  A traced pass therefore drives the
work one layer call at a time -- ``record_run``'s steps, the serial
``synthesize_from_store`` loop, the service's request handlers --
where the untraced runs of :mod:`perfbench.workloads` call the entry
points.  Each traced pass is paired with an untraced pass of the same
work: the pair gives ``bench.overhead_frac``, and the traced pass must
produce the same bytes and digests as the untraced one.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.analysis.chains import enumerate_chains
from repro.analysis.jitter import activation_models
from repro.analysis.latency import chain_latencies, topic_latencies
from repro.analysis.load import callback_loads, node_loads
from repro.analysis.store import latency_index_from_store
from repro.core.extraction import EventIndex, _extract_pid_walk
from repro.core.synthesis import synthesize_dag
from repro.experiments.batch import BatchConfig
from repro.experiments.runner import RunConfig
from repro.scenarios.registry import build_scenario_spec
from repro.service.ingest import IngestSpool
from repro.service.live import LiveSynthesizer
from repro.service.state import ServiceState
from repro.store.database import TraceStore
from repro.store.index import StoreTraceIndex
from repro.store.record import DEFAULT_SPOOL_NS, record_batch, run_id_for
from repro.store.writer import SegmentSpool, segment_path, spool_session_segment
from repro.tracing.session import TracingSession
from repro.world import World

from .workloads import (
    ROOT,
    Analyzed,
    Corpus,
    Ops,
    Result,
    _until,
    check_analyzed,
    file_digests,
    fresh_dir,
    live_check,
    live_setup,
    reference_for,
    serve_session,
    service_stats,
    step_report,
    synthesize_and_analyze,
)

PER_LAYER = (
    ("sim.busy_s", "s"),
    ("sim.calls_per_event", "calls/event"),
    ("sim.sched_switches", "count"),
    ("sim.kernel_cancelled", "count"),
    ("sim.kernel_compactions", "count"),
    ("tracing.busy_s", "s"),
    ("tracing.ros_events", "count"),
    ("tracing.sched_events", "count"),
    ("store.spool_s", "s"),
    ("store.finish_s", "s"),
    ("store.bytes_per_event", "B/event"),
    ("store.open_s", "s"),
    ("store.index_s", "s"),
    ("store.inflate_ratio", "ratio"),
    ("core.extract_s", "s"),
    ("core.dag_s", "s"),
    ("core.callbacks", "count"),
    ("core.vertices", "count"),
    ("core.edges", "count"),
    ("analysis.model_s", "s"),
    ("analysis.index_s", "s"),
    ("analysis.query_s", "s"),
    ("analysis.latency_instances", "count"),
    ("service.commit_s", "s"),
    ("service.extend_s", "s"),
    ("service.model_s", "s"),
    ("service.latency_s", "s"),
    ("service.protocol_ms", "ms"),
    ("service.extend_ratio", "ratio"),
    ("service.rebuilds", "count"),
    ("service.put_ms_p50", "ms"),
    ("service.fresh_ms_p50", "ms"),
    ("service.fresh_ms_p90", "ms"),
    ("service.latency_ms_p50", "ms"),
    ("service.latency_ms_p90", "ms"),
    ("service.steps_s", "steps/s"),
    ("bench.overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
)

#: Count-type per-layer metrics that must repeat exactly for a seed.
DETERMINISTIC = (
    "sim.calls_per_event",
    "sim.sched_switches",
    "sim.kernel_cancelled",
    "sim.kernel_compactions",
    "tracing.ros_events",
    "tracing.sched_events",
    "store.bytes_per_event",
    "store.inflate_ratio",
    "core.callbacks",
    "core.vertices",
    "core.edges",
    "analysis.latency_instances",
    "service.extend_ratio",
    "service.rebuilds",
)

#: The deterministic counters that describe what the program produced,
#: not how much work it took: any correct version reproduces them, so
#: they are checked against ``reference.json`` too.  The others (calls
#: per event, bytes per event, inflated bytes, cancelled timers, extends)
#: may change with the code and are only checked from run to run.
OUTPUT_COUNTS = (
    "sim.sched_switches",
    "tracing.ros_events",
    "tracing.sched_events",
    "core.callbacks",
    "core.vertices",
    "core.edges",
    "analysis.latency_instances",
)

#: Layer busy-time metrics; their sum is the attributed share of a
#: traced pass.
BUSY = tuple(name for name, unit in PER_LAYER if unit == "s")

#: Where each seed's deterministic counters are kept between runs, so a
#: later run of the same seed can flag drift.
COUNTERS_DIR = os.path.join(ROOT, ".perfbench_work", "counters")


class _Span:
    __slots__ = ("_totals", "_name", "_start")

    def __init__(self, totals: Dict[str, float], name: str):
        self._totals = totals
        self._name = name

    def __enter__(self) -> None:
        self._start = perf_counter()

    def __exit__(self, *exc) -> None:
        self._totals[self._name] = (
            self._totals.get(self._name, 0.0) + perf_counter() - self._start
        )


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class Spans:
    """Busy seconds per layer, summed over the calls timed into it.

    A disabled instance times nothing, so the timed and untimed twins
    of a loop run the same code."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.seconds: Dict[str, float] = {}

    def __call__(self, name: str):
        return _Span(self.seconds, name) if self.enabled else _NO_SPAN


# -- layer calls -------------------------------------------------------------


def make_world(
    corpus: Corpus, config: BatchConfig, run_index: int
) -> Tuple[World, RunConfig]:
    """The world ``record_run`` builds for one run, not yet launched."""
    spec = build_scenario_spec(
        corpus.scenario, run_index=run_index, runs=corpus.runs,
        duration_ns=config.duration_ns, **config.scenario_params,
    )
    run_config = config.run_config(config.duration_ns, spec.num_cpus)
    world = World(
        num_cpus=run_config.num_cpus,
        seed=run_config.seed_for(run_index),
        timeslice=run_config.timeslice_ns,
        dds_latency_ns=run_config.dds_latency_ns,
        start_time_ns=run_config.time_base_for(run_index),
        first_pid=run_config.pid_base_for(run_index),
    )
    spec.build(world)
    return world, run_config


def record_run_traced(
    spans: Spans,
    counts: Dict[str, int],
    corpus: Corpus,
    config: BatchConfig,
    run_index: int,
    directory: str,
) -> None:
    """``record_run`` one layer call at a time.  The same run is first
    simulated without a ``TracingSession`` (``sim.busy_s``); the traced
    ``World.run`` time beyond it is ``tracing.busy_s``."""
    steps = []
    remaining = config.duration_ns
    while remaining > 0:
        steps.append(min(DEFAULT_SPOOL_NS, remaining))
        remaining -= steps[-1]

    bare, run_config = make_world(corpus, config, run_index)
    with spans("sim.busy_s"):
        bare.launch()
        bare.run(for_ns=run_config.warmup_ns)
        for step in steps:
            bare.run(for_ns=step)

    world, _ = make_world(corpus, config, run_index)
    session = TracingSession(world, kernel_filter=run_config.kernel_filter)
    with spans("sim+tracing"):
        session.start_init()
        world.launch()
        world.run(for_ns=run_config.warmup_ns)
        session.stop_init()
    spool = SegmentSpool()
    with spans("store.spool_s"):
        for event in session.init_events():
            spool.append_ros(event)
    session.start_runtime()
    start_ts = world.now
    for step in steps:
        with spans("sim+tracing"):
            world.run(for_ns=step)
        with spans("store.spool_s"):
            spool_session_segment(spool, session)
    session.stop_runtime()
    with spans("store.spool_s"):
        for segment in session.segments:
            spool.add_segment(segment)
    session.segments.clear()
    with spans("store.finish_s"):
        written = spool.finish_path(
            segment_path(directory, run_id_for(run_index)),
            session.pid_map(), start_ts, world.now,
        )
    counts["sim.sched_switches"] += world.scheduler.context_switches
    counts["sim.kernel_cancelled"] += world.kernel.cancelled
    counts["sim.kernel_compactions"] += world.kernel.compactions
    counts["tracing.ros_events"] += spool.num_ros
    counts["tracing.sched_events"] += spool.num_sched
    counts["store.bytes"] += written


def count_calls_per_event(corpus: Corpus, config: BatchConfig) -> float:
    """Python calls per trace event of run 0's traced ``World.run``,
    counted with ``sys.setprofile`` (deterministic for a seed)."""
    world, run_config = make_world(corpus, config, 0)
    session = TracingSession(world, kernel_filter=run_config.kernel_filter)
    session.start_init()
    world.launch()
    world.run(for_ns=run_config.warmup_ns)
    session.stop_init()
    session.start_runtime()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        world.run(for_ns=config.duration_ns)
    finally:
        sys.setprofile(None)
    session.stop_runtime()
    trace = session.trace()
    return calls / max(1, len(trace.ros_events) + len(trace.sched_events))


def extract_cblists(index) -> List[Any]:
    """Alg. 1 (with Alg. 2 folded in) for every PID of ``index`` -- the
    loop ``synthesize_from_store`` and ``LiveSynthesizer.model`` run."""
    event_index = EventIndex(trace_index=index)
    pid_map = index.pid_map
    cblists = []
    for pid in sorted(pid_map):
        timestamps, codes, aux = index.walk_for_pid(pid)
        cblists.append(
            _extract_pid_walk(
                pid, timestamps, codes, aux, index.sched, event_index,
                pid_map.get(pid, ""),
            )
        )
    return cblists


def _count_model(counts: Dict[str, int], cblists, dag) -> None:
    counts["core.callbacks"] = sum(len(cblist) for cblist in cblists)
    counts["core.vertices"] = dag.num_vertices
    counts["core.edges"] = dag.num_edges


def synthesize_and_analyze_traced(
    spans: Spans, counts: Dict[str, int], directory: str, corpus: Corpus
) -> Analyzed:
    """``synthesize_and_analyze`` one layer call at a time."""
    with spans("store.open_s"):
        store = TraceStore(directory)
        readers = store.readers()
    with spans("store.index_s"):
        index = StoreTraceIndex(readers, wanted_pids=None)
    with spans("core.extract_s"):
        cblists = extract_cblists(index)
    with spans("core.dag_s"):
        dag = synthesize_dag(cblists)
    with spans("analysis.model_s"):
        chains = enumerate_chains(dag)
        models = activation_models(dag)
        loads = callback_loads(dag)
        nodes = node_loads(dag)
    with spans("analysis.index_s"):
        latency_index = latency_index_from_store(store)
    with spans("analysis.query_s"):
        latencies = [
            chain_latencies(latency_index, list(chain)) for chain in corpus.chains
        ]
        comm = {
            topic: topic_latencies(latency_index, topic)
            for topic in corpus.topics
        }
    counts["store.inflated"] += sum(reader.bytes_inflated for reader in readers)
    counts["store.body"] += sum(reader.body_bytes for reader in readers)
    _count_model(counts, cblists, dag)
    counts["analysis.latency_instances"] = sum(map(len, latencies))
    return Analyzed.of(dag, chains, models, loads, nodes, latencies, comm)


def serve_in_process(
    spans: Spans, counts: Dict[str, int], directory: str, segments,
    corpus: Corpus,
) -> Tuple[float, str]:
    """The ``live`` closed loop without the socket: each request's work
    called in-process, as the server's handlers call it.  Returns the
    loop's wall time and the last DOT."""
    store = TraceStore.create(fresh_dir(directory))
    spool = IngestSpool(store)
    live = LiveSynthesizer(store)
    dot = ""
    started = perf_counter()
    for run_id, data, _events in segments:
        with spans("service.commit_s"):
            spool.commit_bytes(run_id, data)
        with spans("service.extend_s"):
            live.ingest(run_id)
        with spans("core.extract_s"):
            cblists = extract_cblists(live.index)
        with spans("core.dag_s"):
            dag = synthesize_dag(cblists)
        with spans("service.model_s"):
            state = ServiceState(
                directory, live.run_ids, dag, live.counters.as_dict(), None
            )
            dot = state.model_text("dot")
        with spans("service.latency_s"):
            state.latency_summary(list(corpus.chains[0]))
        with spans("analysis.model_s"):
            state.chains_text()
    elapsed = perf_counter() - started
    _count_model(counts, cblists, dag)
    return elapsed, dot


# -- counters and metrics ----------------------------------------------------


def check_counters(
    ops: Ops, workload: str, seed: int, corpus: Corpus,
    counters: Dict[str, float], reference: Dict[str, Any],
) -> None:
    """The deterministic counters must equal those of any earlier run of
    the seed in this checkout; the output counts must also equal the
    committed ones."""
    committed = reference.get("counters")
    if committed is not None:
        expected = {
            name: committed[name] for name in OUTPUT_COUNTS if name in committed
        }
        actual = {name: counters[name] for name in expected}
        ops.check(
            "counters", expected == actual,
            f"drift from committed counters: {_diff(expected, actual)}",
        )
    os.makedirs(COUNTERS_DIR, exist_ok=True)
    corpus_key = hashlib.sha256(repr(corpus).encode()).hexdigest()[:12]
    path = os.path.join(COUNTERS_DIR, f"{workload}-{seed}-{corpus_key}.json")
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        ops.check(
            "counters", earlier == counters,
            f"drift from an earlier run: {_diff(earlier, counters)}",
        )
    else:
        with open(path, "w") as handle:
            json.dump(counters, handle, sort_keys=True)


def _diff(expected: Dict[str, float], actual: Dict[str, float]) -> str:
    return ", ".join(
        f"{key} {expected.get(key)} -> {actual.get(key)}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    )


def _result(
    ops: Ops,
    busy: List[Dict[str, float]],
    stage: List[float],
    untraced: List[float],
    values: Dict[str, float],
    report: List[str],
) -> Result:
    """The per-layer metric table: busy times as medians over the traced
    passes, the benchmark's own overhead, zero for layers the workload
    leaves idle."""
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    for name in BUSY:
        metrics[name] = median([pass_busy.get(name, 0.0) for pass_busy in busy])
    metrics.update(values)
    metrics["bench.overhead_frac"] = median(stage) / median(untraced) - 1.0
    metrics["bench.unattributed_frac"] = 1.0 - median(
        [sum(pass_busy.get(name, 0.0) for name in BUSY) / seconds
         for pass_busy, seconds in zip(busy, stage)]
    )
    return Result(
        ops,
        {name: (metrics[name], unit) for name, unit in PER_LAYER},
        report,
        {name: values[name] for name in DETERMINISTIC if name in values},
    )


def _same_counts(ops: Ops, passes_counts: List[Dict[str, int]]) -> None:
    ops.check(
        "counters", all(c == passes_counts[0] for c in passes_counts),
        "counts differ between passes",
    )


# -- workload runs -----------------------------------------------------------


def trace_record(seed: int, seconds: float, work: str, corpus: Corpus) -> Result:
    ops = Ops()
    config = corpus.config(seed)
    plain_dir = os.path.join(work, "store")
    traced_dir = os.path.join(work, "traced")
    busy, stage, untraced, passes_counts = [], [], [], []
    started = perf_counter()
    while _until(seconds, started, len(busy)):
        pass_started = perf_counter()
        record_batch(
            corpus.scenario, runs=corpus.runs, directory=fresh_dir(plain_dir),
            config=config,
        )
        plain = synthesize_and_analyze(plain_dir, corpus)
        untraced.append(perf_counter() - pass_started)

        spans = Spans()
        counts: Dict[str, int] = defaultdict(int)
        pass_started = perf_counter()
        fresh_dir(traced_dir)
        for run_index in range(corpus.runs):
            record_run_traced(spans, counts, corpus, config, run_index, traced_dir)
        traced = synthesize_and_analyze_traced(spans, counts, traced_dir, corpus)
        elapsed = perf_counter() - pass_started
        layers = dict(spans.seconds)
        sim = layers["sim.busy_s"]
        layers["tracing.busy_s"] = layers.pop("sim+tracing") - sim
        # The untraced twin of each run is extra work, not stage time.
        stage.append(elapsed - sim)
        busy.append(layers)
        passes_counts.append(counts)
        ops.check(
            "record", file_digests(traced_dir) == file_digests(plain_dir),
            "layer-by-layer recording wrote other bytes than record_batch",
        )
        ops.check(
            "synthesize", (traced.model, traced.analysis)
            == (plain.model, plain.analysis),
            "layer-by-layer synthesis differs from synthesize_from_store",
        )
    reference = reference_for("record", corpus, seed, plain_dir)
    check_analyzed(ops, traced, reference)
    _same_counts(ops, passes_counts)
    counts = passes_counts[-1]
    values = {
        "sim.calls_per_event": count_calls_per_event(corpus, config),
        "sim.sched_switches": counts["sim.sched_switches"],
        "sim.kernel_cancelled": counts["sim.kernel_cancelled"],
        "sim.kernel_compactions": counts["sim.kernel_compactions"],
        "tracing.ros_events": counts["tracing.ros_events"],
        "tracing.sched_events": counts["tracing.sched_events"],
        "store.bytes_per_event": counts["store.bytes"]
        / (counts["tracing.ros_events"] + counts["tracing.sched_events"]),
        "store.inflate_ratio": counts["store.inflated"] / counts["store.body"],
        "core.callbacks": counts["core.callbacks"],
        "core.vertices": counts["core.vertices"],
        "core.edges": counts["core.edges"],
        "analysis.latency_instances": counts["analysis.latency_instances"],
    }
    result = _result(
        ops, busy, stage, untraced, values,
        [f"record (traced): {len(busy)} pass pair(s)"],
    )
    check_counters(ops, "record", seed, corpus, result.counters, reference)
    return result


def trace_resynth(seed: int, seconds: float, work: str, corpus: Corpus) -> Result:
    ops = Ops()
    store_dir = os.path.join(work, "corpus")
    record_batch(
        corpus.scenario, runs=corpus.runs, directory=fresh_dir(store_dir),
        config=corpus.config(seed),
    )
    reference = reference_for("resynth", corpus, seed, store_dir)
    busy, stage, untraced, passes_counts = [], [], [], []
    started = perf_counter()
    while _until(seconds, started, len(busy)):
        pass_started = perf_counter()
        plain = synthesize_and_analyze(store_dir, corpus)
        untraced.append(perf_counter() - pass_started)
        spans = Spans()
        counts: Dict[str, int] = defaultdict(int)
        pass_started = perf_counter()
        traced = synthesize_and_analyze_traced(spans, counts, store_dir, corpus)
        stage.append(perf_counter() - pass_started)
        busy.append(dict(spans.seconds))
        passes_counts.append(counts)
        check_analyzed(ops, traced, reference)
        ops.check(
            "synthesize", (traced.model, traced.analysis)
            == (plain.model, plain.analysis),
            "layer-by-layer synthesis differs from synthesize_from_store",
        )
    _same_counts(ops, passes_counts)
    counts = passes_counts[-1]
    values = {
        "store.inflate_ratio": counts["store.inflated"] / counts["store.body"],
        "core.callbacks": counts["core.callbacks"],
        "core.vertices": counts["core.vertices"],
        "core.edges": counts["core.edges"],
        "analysis.latency_instances": counts["analysis.latency_instances"],
    }
    result = _result(
        ops, busy, stage, untraced, values,
        [f"resynth (traced): {len(busy)} pass pair(s)"],
    )
    check_counters(ops, "resynth", seed, corpus, result.counters, reference)
    return result


def trace_live(seed: int, seconds: float, work: str, corpus: Corpus) -> Result:
    """One socket session (client-side service latencies, the protocol
    baseline), then the same loop in-process, untimed and timed."""
    ops = Ops()
    server, segments, _events, _records, _setup_s = live_setup(
        seed, work, corpus, 0
    )
    try:
        loop_started = perf_counter()
        steps, dot, latency, counters = serve_session(ops, server, segments, corpus)
        socket_s = perf_counter() - loop_started
    finally:
        server.stop()
    live_check(ops, work, 0, corpus, seed, dot, latency)

    untimed_s, untimed_dot = serve_in_process(
        Spans(enabled=False), defaultdict(int),
        os.path.join(work, "inproc-untimed"), segments, corpus,
    )
    spans = Spans()
    counts: Dict[str, int] = defaultdict(int)
    timed_s, timed_dot = serve_in_process(
        spans, counts, os.path.join(work, "inproc-timed"), segments, corpus
    )
    ops.check(
        "served-model", untimed_dot == dot and timed_dot == dot,
        "in-process service model differs from the served one",
    )
    values = {
        "core.callbacks": counts["core.callbacks"],
        "core.vertices": counts["core.vertices"],
        "core.edges": counts["core.edges"],
        "analysis.latency_instances": latency["count"],
        "service.extend_ratio": counters["extends"]
        / (counters["extends"] + counters["rebuilds"]),
        "service.rebuilds": counters["rebuilds"],
        "service.protocol_ms": (socket_s - untimed_s) / len(steps) * 1e3,
    }
    values.update(service_stats(steps))
    result = _result(
        ops, [dict(spans.seconds)], [timed_s], [untimed_s], values,
        ["live (traced): socket session + in-process untimed/timed"]
        + step_report(steps),
    )
    reference = reference_for("live", corpus, seed, os.path.join(work, "segments"))
    check_counters(ops, "live", seed, corpus, result.counters, reference)
    return result
