"""The three workloads of the end-to-end benchmark, untraced.

* ``record``: ``record_batch("avp-interference")`` into a fresh store,
  then ``synthesize_from_store`` and the ``repro analyze`` reports.
* ``resynth``: a ``syn`` corpus recorded at set-up, then repeated
  synthesize + analyze passes over it.
* ``live``: ``repro serve`` in a subprocess, fed one pre-recorded
  ``avp`` segment per closed-loop step and queried after each push.

These runs go through the entry points users call and yield the
end-to-end metrics; :mod:`perfbench.traced` yields the per-layer ones.
Every output is checked against a reference (see README.md).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.chains import enumerate_chains
from repro.analysis.latency import LatencyIndex, chain_latencies, topic_latencies
from repro.analysis.store import StoreAnalysis
from repro.core.export import dag_to_json, format_exec_table, to_dot
from repro.core.pipeline import synthesize_from_trace
from repro.experiments.batch import BatchConfig
from repro.service.client import ServiceClient, ServiceError
from repro.sim.kernel import SEC
from repro.store.database import TraceStore
from repro.store.record import record_batch
from repro.tracing.session import Trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

AVP_CHAIN = (
    "lidar_front/points_raw",
    "lidar_front/points_filtered",
    "lidars/points_fused",
    "lidars/points_fused_downsampled",
)
#: Chain latency follows topics published from inside the consuming
#: callback, so every ``syn`` chain is one topic long: its service calls
#: break multi-topic chains.
SYN_CHAINS = (("/t1",), ("/clp3",))
#: ``/f1`` and ``/f2`` feed the AND junction (SC2.1 + SC2.2 -> ``/f3``).
SYN_TOPICS = ("/t1", "/clp3", "/f1", "/f2")


@dataclass(frozen=True)
class Corpus:
    """The scenario runs one workload records, and what it asks of them."""

    scenario: str
    runs: int
    duration_s: float
    #: Topic chains for chain latency; the first is the one the live
    #: service is asked about.
    chains: Tuple[Tuple[str, ...], ...]
    #: Topics for per-topic communication latency.
    topics: Tuple[str, ...]
    #: ``syn`` draws nothing at random (its callback loads are
    #: constants), so the seed picks its load factor instead.
    seeded_load: bool = False

    def config(self, seed: int) -> BatchConfig:
        # Each run's seed is base_seed + run_index; seeds 1000 apart
        # never share a run.
        params = (
            {"load_factor": 0.75 + 0.5 * (seed * 0.6180339887 % 1.0)}
            if self.seeded_load
            else {}
        )
        return BatchConfig(
            duration_ns=int(self.duration_s * SEC),
            base_seed=1000 * (seed + 1),
            scenario_params=params,
        )


CORPORA: Dict[str, Corpus] = {
    "record": Corpus("avp-interference", 12, 10.0, (AVP_CHAIN,), AVP_CHAIN),
    "resynth": Corpus("syn", 16, 10.0, SYN_CHAINS, SYN_TOPICS, seeded_load=True),
    "live": Corpus("avp", 100, 1.0, (AVP_CHAIN,), AVP_CHAIN),
}

#: Set-ups per run of ``resynth`` (``live`` sets up once per session);
#: ``setup_s`` is their trimmed mean.
SETUPS = 3
#: The ``record`` set-up: short recordings that fill lazy imports and
#: caches before timing, ``WARMUPS`` of them.
WARMUP = Corpus("avp-interference", 4, 5.0, (AVP_CHAIN,), AVP_CHAIN)
WARMUPS = 5
#: Synthesize + analyze passes over each ``record`` pass's store: the two
#: stages are short, so a pass samples them more than once.
ANALYSES_PER_PASS = 3
#: Batch synthesize + analyze passes over the service's store after
#: each ``live`` session.
LIVE_CHECKS = 10
#: Recordings of the segments in each ``live`` set-up.
LIVE_RECORDINGS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("record_kev_s", "kev/s"),
    ("synthesize_kev_s", "kev/s"),
    ("analyze_kev_s", "kev/s"),
    ("peak_rss_mb", "MB"),
)

# -- bookkeeping -------------------------------------------------------------


class Ops:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {detail}" if detail else name)
        return ok


#: Iterations of the calibration loop, about 20 ms on a 2-CPU x86 VM.
CALIBRATION_LOOPS = 80_000
#: The nominal seconds of one calibration sample: stage times are
#: reported at the host speed at which a sample takes this long.
CALIBRATION_S = 0.02
#: Inside a stage, a calibrated stopwatch samples this often.
SAMPLE_EVERY_S = 0.5
#: The program's stages slow down by about this power of the
#: calibration loop's slowdown: over 55 runs whose mean sample ranged
#: from 16 to 32 ms, fully scaled timings still moved against it with a
#: log-log slope of about -0.2 (the loop is more sensitive to a busy
#: host than the program is).
HOST_SPEED_POWER = 0.8


def calibration_s() -> float:
    """Seconds one fixed pure-Python loop (dict updates, tuple and
    string building, a sort) takes right now: the host's current speed
    at the kind of work the program does."""
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the program's heap instead
    try:
        started = perf_counter()
        table: Dict[int, int] = {}
        rows: List[Tuple[int, str]] = []
        for i in range(CALIBRATION_LOOPS):
            key = i % 211
            table[key] = table.get(key, 0) + i
            if not i & 7:
                rows.append((key, str(i)))
        rows.sort()
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class Stopwatch:
    """Times consecutive stages in seconds at a nominal host speed.

    On a shared host the same work runs up to 1.5x slower for seconds to
    tens of seconds at a time.  A calibrated stopwatch therefore takes a
    calibration sample at each stage boundary and every
    ``SAMPLE_EVERY_S`` inside a stage, from a ``SIGALRM`` handler that
    pauses the stage.  A stage's seconds, less the pauses, are scaled by
    ``CALIBRATION_S`` over the mean of the samples from its start to its
    end, to the power ``HOST_SPEED_POWER``.  That cancels the host's
    drift and keeps what the program itself costs.  An uncalibrated
    stopwatch returns plain seconds.
    """

    def __init__(self, calibrated: bool = False) -> None:
        self.calibrated = calibrated
        #: Every calibration sample taken, in seconds.
        self.samples: List[float] = []
        if calibrated:
            signal.signal(signal.SIGALRM, self._pause)
        self.start()

    def _sample(self) -> None:
        if self.calibrated:
            self.samples.append(calibration_s())
            self._sampled = perf_counter()

    def _pause(self, *_signal: Any) -> None:
        paused = perf_counter()
        self._sample()
        self._paused += perf_counter() - paused

    def start(self, interrupt: bool = True) -> None:
        """Begin a stage.  With ``interrupt`` false no timer signal
        samples inside it; a stage that waits on another process calls
        ``tick`` between its steps instead, so that no sample overlaps
        the other process's work."""
        self.stop()
        self._sample()
        self._first = len(self.samples) - 1
        self._paused = 0.0
        self._mark = perf_counter()
        if self.calibrated and interrupt:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def tick(self) -> None:
        """Between two steps of a stage: sample if one is due."""
        if self.calibrated and perf_counter() - self._sampled >= SAMPLE_EVERY_S:
            self._pause()

    def lap(self, interrupt: bool = True) -> float:
        """End the current stage and begin the next (see ``start``);
        returns the ended stage's scaled seconds."""
        self.stop()
        elapsed = perf_counter() - self._mark - self._paused
        first = self._first
        self.start(interrupt)
        if not self.calibrated:
            return elapsed
        window = self.samples[first:]
        speed = CALIBRATION_S * len(window) / sum(window)
        return elapsed * speed**HOST_SPEED_POWER

    def stop(self) -> None:
        """Stop sampling inside the current stage."""
        if self.calibrated:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def report(self) -> str:
        return (
            f"host speed: {len(self.samples)} calibration samples, mean "
            f"{sum(self.samples) / len(self.samples) * 1e3:.2f} ms "
            f"(nominal {CALIBRATION_S * 1e3:g} ms)"
        )


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """The mean without the lowest and the highest ``share`` of values.

    A run's stage times are averaged this way: the host switches between
    a fast and a slow state, and a mean follows the share of time spent
    in each, where a median jumps between the two."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def p90(values: Sequence[float]) -> float:
    return quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def file_digests(directory: str) -> Dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def stored_events(directory: str) -> int:
    return sum(info.events for info in TraceStore(directory).run_infos())


# -- correctness -------------------------------------------------------------


def model_digests(dag) -> Dict[str, str]:
    """sha256 of the three model artifacts ``repro synthesize`` writes."""
    return {
        "dot": _sha(to_dot(dag)),
        "exec": _sha(format_exec_table(dag)),
        "json": _sha(dag_to_json(dag)),
    }


def analysis_digest(chains, latencies, comm: Dict[str, List[int]]) -> str:
    return _sha(
        json.dumps(
            {
                "chains": [list(chain.keys) for chain in chains],
                "chain_latency_ns": [
                    [lat.latency_ns for lat in chain] for chain in latencies
                ],
                "topic_latency_ns": comm,
            },
            sort_keys=True,
        )
    )


def latency_summary(latencies) -> Dict[str, Any]:
    """The fields of a service ``latency`` reply, from chain latencies."""
    values = [lat.latency_ns for lat in latencies]
    return {
        "count": len(values),
        "min_ns": min(values),
        "max_ns": max(values),
        "mean_ns": sum(values) / len(values),
    }


def reference_of_traces(corpus: Corpus, traces: Sequence[Trace]) -> Dict[str, Any]:
    """Digests of the in-memory pipeline (``synthesize_from_trace`` and
    the in-memory latency index) over ``traces``."""
    merged = Trace.merge(traces)
    dag = synthesize_from_trace(merged)
    index = LatencyIndex.from_trace(merged)
    return {
        "model": model_digests(dag),
        "analysis": analysis_digest(
            enumerate_chains(dag),
            [chain_latencies(index, list(chain)) for chain in corpus.chains],
            {topic: topic_latencies(index, topic) for topic in corpus.topics},
        ),
    }


def committed_reference(
    workload: str, corpus: Corpus, seed: int
) -> Optional[Dict[str, Any]]:
    """The ``reference.json`` entry for this seed, if it was made for
    exactly this corpus."""
    with open(REFERENCE_PATH) as handle:
        entry = json.load(handle).get(workload, {})
    if entry.get("corpus") != repr(corpus):
        return None
    return entry["seeds"].get(str(seed))


def reference_for(
    workload: str, corpus: Corpus, seed: int, store_dir: str
) -> Dict[str, Any]:
    """The committed reference for this seed, else one computed in
    memory from the runs in ``store_dir`` (decoded to traces, so the
    columnar store walk is not involved)."""
    committed = committed_reference(workload, corpus, seed)
    if committed is not None:
        return committed
    store = TraceStore(store_dir)
    return reference_of_traces(
        corpus, [store.load(run_id) for run_id in store.run_ids()]
    )


@dataclass
class Analyzed:
    """One synthesize + analyze pass, its outputs reduced to digests."""

    model: Dict[str, str]
    analysis: str
    nonempty: Dict[str, bool]
    summary: Optional[Dict[str, Any]]
    synth_s: float = 0.0
    analyze_s: float = 0.0

    @classmethod
    def of(cls, dag, chains, models, loads, nodes, latencies, comm, **times):
        """Reduce a pass's outputs: ``latencies`` holds one list per
        corpus chain, ``comm`` one list per topic."""
        return cls(
            model=model_digests(dag),
            analysis=analysis_digest(chains, latencies, comm),
            nonempty={
                "chains": bool(chains),
                "jitter": bool(models),
                "load": bool(loads) and bool(nodes),
                "latency": all(latencies) and all(comm.values()),
            },
            summary=latency_summary(latencies[0]) if latencies[0] else None,
            **times,
        )


def synthesize_and_analyze(
    directory: str, corpus: Corpus, watch: Optional[Stopwatch] = None
) -> Analyzed:
    """``repro analyze DIR --report chains,jitter,load,latency``, its
    two stages timed by ``watch``."""
    watch = watch or Stopwatch()
    analysis = StoreAnalysis(directory)
    watch.start()
    dag = analysis.dag
    synth_s = watch.lap()
    chains = analysis.chains()
    models = analysis.activation_models()
    loads = analysis.callback_loads()
    nodes = analysis.node_loads()
    latencies = [analysis.chain_latencies(list(chain)) for chain in corpus.chains]
    comm = {
        topic: analysis.communication_latencies(topic) for topic in corpus.topics
    }
    analyze_s = watch.lap()
    return Analyzed.of(
        dag, chains, models, loads, nodes, latencies, comm,
        synth_s=synth_s, analyze_s=analyze_s,
    )


def check_analyzed(ops: Ops, result: Analyzed, reference: Dict[str, Any]) -> None:
    ops.check(
        "synthesize", result.model == reference["model"],
        "model digests differ from the reference",
    )
    for report, nonempty in result.nonempty.items():
        ok = nonempty and (
            report != "latency" or result.analysis == reference["analysis"]
        )
        ops.check(report, ok, "empty result or digest differs from the reference")


# -- the live service --------------------------------------------------------


class Server:
    """``repro serve DIR --socket PATH`` in a subprocess, default flags."""

    def __init__(self, store_dir: str, socket_path: str, log_path: str):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "wb")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", store_dir,
                 "--socket", socket_path],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=self._log,
            )
        except OSError:
            self._log.close()
            raise
        self.client = ServiceClient(socket_path)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}"
                )
            try:
                if self.client.ping():
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.005)

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        try:
            if self.process.poll() is None:
                self.client.shutdown()
                self.process.wait(timeout=30)
        except Exception:  # a stuck server must not outlive the run
            self.process.kill()
            self.process.wait()
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self._log.close()


def record_segments(corpus: Corpus, seed: int, directory: str):
    """Record the live corpus; returns ``[(run_id, bytes, events)]`` and
    the recorded trace events."""
    result = record_batch(
        corpus.scenario, runs=corpus.runs, directory=fresh_dir(directory),
        config=corpus.config(seed),
    )
    segments = []
    for run in result.runs:
        with open(run.path, "rb") as handle:
            segments.append(
                (run.run_id, handle.read(), run.ros_events + run.sched_events)
            )
    return segments, result.total_events


@dataclass
class Step:
    put_ms: float
    fresh_ms: float
    latency_ms: float
    step_ms: float


def _reply(request: Callable[..., Any], *args: Any) -> Any:
    """One service request; an error reply or a broken connection is
    returned, not raised, so the loop goes on and counts it."""
    try:
        return request(*args)
    except (ServiceError, OSError, ValueError) as error:
        return error


def _ok(reply: Any) -> bool:
    return not isinstance(reply, Exception)


def serve_session(
    ops: Ops, server: Server, segments, corpus: Corpus,
    watch: Optional[Stopwatch] = None,
) -> Tuple[List[Step], str, Dict[str, Any], Dict[str, Any]]:
    """The closed loop: push, ``model dot``, ``latency``, ``chains``,
    with a ``watch`` tick between steps.  Returns the steps, the last
    served DOT, the last latency reply and the final ``status``
    counters."""
    watch = watch or Stopwatch()
    client = server.client
    steps: List[Step] = []
    dot = ""
    latency: Dict[str, Any] = {}
    for run_id, data, events in segments:
        watch.tick()
        started = perf_counter()
        ack = _reply(client.push_segment, run_id, data)
        acked = perf_counter()
        served_dot = _reply(client.model, "dot")
        modelled = perf_counter()
        served_latency = _reply(client.latency, list(corpus.chains[0]))
        answered = perf_counter()
        chains = _reply(client.chains)
        finished = perf_counter()
        ops.check(
            "put", _ok(ack) and ack.get("events") == events, f"{run_id}: {ack}"
        )
        if ops.check(
            "model", _ok(served_dot) and served_dot.startswith("digraph"),
            f"{run_id}: {served_dot!r:.200}",
        ):
            dot = served_dot
        if ops.check(
            "latency", _ok(served_latency) and served_latency.get("count", 0) > 0,
            f"{run_id}: {served_latency}",
        ):
            latency = served_latency
        ops.check("chains", _ok(chains) and bool(chains), f"{run_id}: {chains}")
        steps.append(
            Step(
                put_ms=(acked - started) * 1e3,
                fresh_ms=(modelled - started) * 1e3,
                latency_ms=(answered - modelled) * 1e3,
                step_ms=(finished - started) * 1e3,
            )
        )
    counters = client.status()["counters"]
    return steps, dot, latency, counters


# -- workload runs -----------------------------------------------------------


@dataclass
class Result:
    """What one run prints: report lines, then the JSON summary."""

    ops: Ops
    metrics: Dict[str, Tuple[float, str]]
    report: List[str]
    #: The deterministic counters of a traced run.
    counters: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        return {
            "correct": self.ops.failed == 0,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _until(seconds: float, started: float, done: int, at_least: int = 1) -> bool:
    return done < at_least or perf_counter() - started < seconds


def _end_to_end(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {name: (values[name], unit) for name, unit in END_TO_END}


def run_record(seed: int, seconds: float, work: str, corpus: Corpus) -> Result:
    ops = Ops()
    watch = Stopwatch(calibrated=True)
    setups = []
    for k in range(WARMUPS):
        directory = os.path.join(work, f"warmup{k}")
        fresh_dir(directory)
        watch.start()
        record_batch(
            WARMUP.scenario, runs=WARMUP.runs, directory=directory,
            config=WARMUP.config(seed),
        )
        record_s = watch.lap()
        warmup = synthesize_and_analyze(directory, WARMUP, watch)
        setups.append(record_s + warmup.synth_s + warmup.analyze_s)
    store_dir = os.path.join(work, "store")
    records: List[float] = []
    analyses: List[Analyzed] = []
    segments = []
    started = perf_counter()
    while _until(seconds, started, len(records)):
        fresh_dir(store_dir)
        watch.start()
        result = record_batch(
            corpus.scenario, runs=corpus.runs, directory=store_dir,
            config=corpus.config(seed),
        )
        records.append(watch.lap())
        analyses.extend(
            synthesize_and_analyze(store_dir, corpus, watch)
            for _ in range(ANALYSES_PER_PASS)
        )
        segments.append(file_digests(store_dir))
    watch.stop()
    rss = peak_rss_mb()
    events = stored_events(store_dir)
    reference = reference_for("record", corpus, seed, store_dir)
    for stored in segments:
        ops.check(
            "record", stored == segments[0] and len(stored) == corpus.runs,
            "recorded segments differ between passes",
        )
    for analyzed in analyses:
        check_analyzed(ops, analyzed, reference)
    record_s = trimmed_mean(records)
    synth_s = trimmed_mean([a.synth_s for a in analyses])
    analyze_s = trimmed_mean([a.analyze_s for a in analyses])
    values = {
        "setup_s": trimmed_mean(setups),
        "pipeline_s": record_s + synth_s + analyze_s,
        "record_kev_s": result.total_events / record_s / 1e3,
        "synthesize_kev_s": events / synth_s / 1e3,
        "analyze_kev_s": events / analyze_s / 1e3,
        "peak_rss_mb": rss,
    }
    report = [
        f"record: {len(records)} pass(es) of {corpus.runs} x "
        f"{corpus.duration_s:g} s {corpus.scenario}, each synthesized and "
        f"analyzed {ANALYSES_PER_PASS} times "
        f"({result.total_events} trace events, {events} stored events)",
        watch.report(),
    ]
    return Result(ops, _end_to_end(values), report)


def run_resynth(seed: int, seconds: float, work: str, corpus: Corpus) -> Result:
    ops = Ops()
    watch = Stopwatch(calibrated=True)
    setups = []
    store_dir = os.path.join(work, "corpus")
    for _ in range(SETUPS):
        fresh_dir(store_dir)
        watch.start()
        result = record_batch(
            corpus.scenario, runs=corpus.runs, directory=store_dir,
            config=corpus.config(seed),
        )
        setups.append(watch.lap())
    events = stored_events(store_dir)
    passes = []
    started = perf_counter()
    while _until(seconds, started, len(passes)):
        passes.append(synthesize_and_analyze(store_dir, corpus, watch))
    watch.stop()
    rss = peak_rss_mb()
    reference = reference_for("resynth", corpus, seed, store_dir)
    for analyzed in passes:
        check_analyzed(ops, analyzed, reference)
    values = {
        "setup_s": trimmed_mean(setups),
        "pipeline_s": trimmed_mean([p.synth_s + p.analyze_s for p in passes]),
        "record_kev_s": result.total_events / trimmed_mean(setups) / 1e3,
        "synthesize_kev_s": events / trimmed_mean([p.synth_s for p in passes]) / 1e3,
        "analyze_kev_s": events / trimmed_mean([p.analyze_s for p in passes]) / 1e3,
        "peak_rss_mb": rss,
    }
    report = [
        f"resynth: {len(passes)} synthesize+analyze pass(es) over "
        f"{corpus.runs} x {corpus.duration_s:g} s {corpus.scenario} "
        f"({events} stored events)",
        watch.report(),
    ]
    return Result(ops, _end_to_end(values), report)


def live_setup(
    seed: int, work: str, corpus: Corpus, session: int,
    watch: Optional[Stopwatch] = None, recordings: int = 1,
) -> Tuple[Server, list, int, List[float], float]:
    """Record the segments ``recordings`` times, start the server;
    returns the server, the segments, the recorded trace events, the
    seconds of each recording and the set-up seconds, timed by
    ``watch``."""
    watch = watch or Stopwatch()
    watch.start()
    records = []
    for left in range(recordings - 1, -1, -1):
        segments, trace_events = record_segments(
            corpus, seed, os.path.join(work, "segments")
        )
        # The server's start-up runs in another process, so no sample
        # may pause this one inside it.
        records.append(watch.lap(interrupt=left > 0))
    server = Server(
        fresh_dir(os.path.join(work, f"served{session}")),
        os.path.relpath(os.path.join(work, f"s{session}.sock"), ROOT),
        os.path.join(work, f"serve{session}.log"),
    )
    try:
        server.wait_ready()
    except Exception:
        server.stop()
        raise
    setup_s = sum(records) + watch.lap()
    watch.stop()
    return server, segments, trace_events, records, setup_s


def live_check(
    ops: Ops, work: str, session: int, corpus: Corpus, seed: int,
    dot: str, latency: Dict[str, Any], watch: Optional[Stopwatch] = None,
) -> List[Analyzed]:
    """Batch synthesis + analysis over the service's store must agree
    with what the service served last, and with the reference for the
    segments the client pushed.  Runs ``LIVE_CHECKS`` passes, so the
    stage rates measured here have more than one sample."""
    served_dir = os.path.join(work, f"served{session}")
    passes = [
        synthesize_and_analyze(served_dir, corpus, watch)
        for _ in range(LIVE_CHECKS)
    ]
    reference = reference_for(
        "live", corpus, seed, os.path.join(work, "segments")
    )
    served = {key: latency.get(key) for key in ("count", "min_ns", "max_ns", "mean_ns")}
    for analyzed in passes:
        check_analyzed(ops, analyzed, reference)
        ops.check(
            "served-model", _sha(dot) == analyzed.model["dot"],
            "served DOT differs from synthesize_from_store over the service store",
        )
        ops.check(
            "served-latency", served == analyzed.summary,
            f"served {served} != batch {analyzed.summary}",
        )
    return passes


def run_live(seed: int, seconds: float, work: str, corpus: Corpus) -> Result:
    ops = Ops()
    watch = Stopwatch(calibrated=True)
    setups, records, loops, rss, synth, analyze = [], [], [], [], [], []
    steps: List[Step] = []
    started = perf_counter()
    session = 0
    while _until(seconds, started, session, at_least=2):
        server, segments, trace_events, recorded, setup_s = live_setup(
            seed, work, corpus, session, watch, LIVE_RECORDINGS
        )
        setups.append(setup_s)
        records.extend(recorded)
        try:
            watch.start(interrupt=False)
            session_steps, dot, latency, _counters = serve_session(
                ops, server, segments, corpus, watch
            )
            loops.append(watch.lap(interrupt=False))
            rss.append(peak_rss_mb(server.process.pid))
        finally:
            server.stop()
        steps.extend(session_steps)
        for analyzed in live_check(
            ops, work, session, corpus, seed, dot, latency, watch
        ):
            synth.append(analyzed.synth_s)
            analyze.append(analyzed.analyze_s)
        watch.stop()
        session += 1
    events = sum(segment[2] for segment in segments)
    values = {
        "setup_s": trimmed_mean(setups),
        "pipeline_s": trimmed_mean(loops),
        "record_kev_s": trace_events / trimmed_mean(records) / 1e3,
        "synthesize_kev_s": events / trimmed_mean(synth) / 1e3,
        "analyze_kev_s": events / trimmed_mean(analyze) / 1e3,
        "peak_rss_mb": median(rss),
    }
    report = [
        f"live: {session} session(s) x {corpus.runs} steps of "
        f"{corpus.duration_s:g} s {corpus.scenario} segments",
        watch.report(),
    ] + step_report(steps)
    return Result(ops, _end_to_end(values), report)


def step_report(steps: List[Step]) -> List[str]:
    """Client-side service latencies, with their sample count."""
    stats = service_stats(steps)
    return [
        f"  {len(steps)} steps: put p50 {stats['service.put_ms_p50']:.2f} ms, "
        f"fresh p50/p90 {stats['service.fresh_ms_p50']:.2f}/"
        f"{stats['service.fresh_ms_p90']:.2f} ms, "
        f"latency p50/p90 {stats['service.latency_ms_p50']:.2f}/"
        f"{stats['service.latency_ms_p90']:.2f} ms, "
        f"{stats['service.steps_s']:.2f} steps/s",
    ]


def service_stats(steps: List[Step]) -> Dict[str, float]:
    return {
        "service.put_ms_p50": median([s.put_ms for s in steps]),
        "service.fresh_ms_p50": median([s.fresh_ms for s in steps]),
        "service.fresh_ms_p90": p90([s.fresh_ms for s in steps]),
        "service.latency_ms_p50": median([s.latency_ms for s in steps]),
        "service.latency_ms_p90": p90([s.latency_ms for s in steps]),
        "service.steps_s": len(steps) / (sum(s.step_ms for s in steps) / 1e3),
    }
