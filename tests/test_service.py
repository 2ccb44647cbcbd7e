"""Live synthesis service: incremental maintenance + ingestion pins.

The service's core contract: a :class:`LiveSynthesizer` fed stored
segments one at a time -- in run order or in shuffled arrival orders --
is byte-identical (DAG JSON, exec tables, golden DOT) to a from-scratch
``synthesize_from_store`` over the same committed runs at *every*
commit point, for every registry scenario; with a retention window, it
matches the batch synthesis of the truncated store.  The chain-latency
index it keeps up to date on ingest equals the one streamed from the
retained runs at every commit point too, and so do the served latency
summaries.  The model's per-PID Alg. 1 walks resume over each
arrival's rows and equal a from-scratch extraction at every commit,
including when a later run forces a PID to re-walk.  Plus the ingestion
edge: validation, atomic commits, drop-dir hold-then-reject, store
refresh against a second writer process, and the spool's atomic
``finish_path``.
"""

import os
import random
import shutil
import subprocess
import sys
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st
from test_store_v3 import time_ordered_runs

from repro.analysis.latency import LatencyIndex, chain_latencies
from repro.analysis.store import latency_index_from_store
from repro.core import (
    dag_to_json,
    format_exec_table,
    npcompat,
    synthesize_dag,
    to_dot,
)
from repro.experiments.batch import BatchConfig
from repro.scenarios import scenario_names
from repro.sim.kernel import SEC
from repro.sim.scheduler import SchedSwitch
from repro.store import (
    StoreTraceIndex,
    TraceStore,
    record_batch,
    synthesize_from_store,
)
from repro.store.format import (
    HEADER,
    SECTION_COMP_ZLIB,
    SECTION_PAYLOAD,
    SECTION_SCHED,
    SEGMENT_SUFFIX,
    unpack_section_dir,
)
from repro.store.synthesis import _cblists_from_index
from repro.store.writer import SegmentSpool, write_segment
from repro.service import (
    DropDirWatcher,
    IngestError,
    IngestSpool,
    LiveSynthesizer,
    ServiceCounters,
)
from repro.service.state import chain_latency_summary
from repro.tracing.events import (
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P6_TAKE,
    P9_SERVICE_START,
    P10_TAKE_REQUEST,
    P11_SERVICE_END,
    P12_CLIENT_START,
    P13_TAKE_RESPONSE,
    P14_TAKE_TYPE_ERASED,
    P15_CLIENT_END,
    P16_DDS_WRITE,
    TraceEvent,
)
from repro.tracing.session import Trace

DURATION_NS = int(1.0 * SEC)
RUNS = 3


def _signature(dag):
    """The three byte-level renderings the equivalence contract pins."""
    return dag_to_json(dag), format_exec_table(dag), to_dot(dag)


def _arrival_orders(name, run_ids):
    """The arrival orders exercised per scenario: run order plus a
    deterministic per-scenario shuffle forced to differ from it
    (crc32-seeded -- ``hash()`` is salted across interpreters)."""
    in_order = sorted(run_ids)
    rng = random.Random(zlib.crc32(name.encode()))
    shuffled = list(in_order)
    while shuffled == in_order:
        rng.shuffle(shuffled)
    return [in_order, shuffled]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """One recorded source store per registry scenario; tests copy its
    segment files into fresh target stores to simulate arrivals."""
    root = tmp_path_factory.mktemp("service_sources")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        result[name] = directory
    return result


@pytest.fixture(scope="module")
def latency_chains(sources):
    """Per scenario, every topic chain of one to three hops that has
    instances over the whole source store."""
    result = {}
    for name, directory in sources.items():
        index = latency_index_from_store(TraceStore(directory))
        topics = sorted(topic for topic in index._writes_by_topic if topic)
        chains = [[topic] for topic in topics]
        for hops in (2, 3):
            chains += [
                chain + [topic]
                for chain in chains
                if len(chain) == hops - 1
                for topic in topics
                if topic not in chain and chain_latencies(index, chain + [topic])
            ]
        result[name] = chains
    return result


def _latency_contents(index):
    """Every lookup structure of a latency index, for equality."""
    return {name: getattr(index, name) for name in LatencyIndex.__slots__}


def _batch_latency_summary(index, topics):
    """A ``latency`` reply computed straight from batch latencies."""
    values = [latency.latency_ns for latency in chain_latencies(index, topics)]
    summary = {"topics": topics, "count": len(values)}
    if values:
        summary.update(
            min_ns=min(values),
            max_ns=max(values),
            mean_ns=sum(values) / len(values),
        )
    return summary


def _assert_latency_matches_batch(live, directory, chains, context):
    """The maintained index equals the one streamed from the retained
    runs, and the summaries the service serves from it equal batch
    summaries over those runs."""
    batch = latency_index_from_store(
        TraceStore(directory), run_ids=live.run_ids
    )
    maintained = live.latency_index()
    assert _latency_contents(maintained) == _latency_contents(batch), context
    for topics in chains:
        expected = _batch_latency_summary(batch, topics)
        assert chain_latency_summary(maintained, topics) == expected, context


def _deliver(source_dir, target_dir, run_id):
    """One segment 'arrives': its file appears in the target store."""
    name = run_id + SEGMENT_SUFFIX
    shutil.copy(os.path.join(source_dir, name), os.path.join(target_dir, name))


class TestIncrementalEquivalence:
    """Incremental == batch, byte for byte, at every commit point."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_commit_point_matches_batch(
        self, sources, latency_chains, name, tmp_path
    ):
        run_ids = sorted(TraceStore(sources[name]).run_ids())
        for case, order in enumerate(_arrival_orders(name, run_ids)):
            target = str(tmp_path / f"order{case}")
            live = LiveSynthesizer(TraceStore.create(target))
            for run_id in order:
                _deliver(sources[name], target, run_id)
                assert live.refresh() == [run_id]
                batch = synthesize_from_store(TraceStore(target), jobs=1)
                assert _signature(live.model()) == _signature(batch), (
                    name, order, run_id,
                )
                _assert_latency_matches_batch(
                    live, target, latency_chains[name], (name, order, run_id)
                )

    def test_in_order_arrivals_never_rebuild(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "inorder")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in sorted(TraceStore(source).run_ids()):
            _deliver(source, target, run_id)
            live.refresh()
        assert counters.extends == RUNS
        assert counters.rebuilds == 0
        assert counters.segments_ingested == RUNS
        assert counters.events_indexed > 0
        # Never asked for latency: no latency index was built or fed.
        assert counters.latency_index_builds == 0
        assert counters.latency_index_extends == 0

    def test_latency_index_builds_once_then_extends(self, sources, tmp_path):
        """In-order arrivals with a latency query after each: one build
        (the first query), then one extend per later arrival; the
        queries themselves never build again."""
        source = sources["syn"]
        target = str(tmp_path / "latency")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in sorted(TraceStore(source).run_ids()):
            _deliver(source, target, run_id)
            live.refresh()
            live.latency_index()
            live.latency_index()
        assert counters.latency_index_builds == 1
        assert counters.latency_index_extends == RUNS - 1
        assert counters.as_dict()["latency_index_builds"] == 1
        assert counters.as_dict()["latency_index_extends"] == RUNS - 1

    def test_out_of_order_arrival_rebuilds(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "ooo")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in ["run001", "run000", "run002"]:
            _deliver(source, target, run_id)
            live.refresh()
        assert counters.rebuilds >= 1
        batch = synthesize_from_store(TraceStore(target), jobs=1)
        assert _signature(live.model()) == _signature(batch)

    def test_ingest_rejects_duplicates_and_unknown_runs(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "dup")
        live = LiveSynthesizer(TraceStore.create(target))
        _deliver(source, target, "run000")
        live.refresh()
        with pytest.raises(ValueError, match="already ingested"):
            live.ingest("run000")
        with pytest.raises(ValueError, match="not in store"):
            live.ingest("run999")

    def test_retain_window_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retain_window"):
            LiveSynthesizer(
                TraceStore.create(str(tmp_path / "s")), retain_window=0
            )


def _walk_rows(index):
    """Walk rows of the PIDs a model extracts (those in ``pid_map``)."""
    return sum(len(index.walk_for_pid(pid)[1]) for pid in index.pid_map)


def _batch_extraction(store, run_ids):
    """The model of ``run_ids`` from a fresh index and fresh walks."""
    index = StoreTraceIndex([store.open(run_id) for run_id in run_ids])
    return synthesize_dag(_cblists_from_index(index, sorted(index.pid_map)))


def _live_commits(runs, directory, versions=None):
    """Commit ``runs`` in order to a fresh live store, yielding the
    synthesizer after each ingest."""
    live = LiveSynthesizer(TraceStore.create(directory))
    for number, trace in enumerate(runs):
        run_id = f"run{number:03d}"
        write_segment(
            trace,
            os.path.join(directory, run_id + SEGMENT_SUFFIX),
            format_version=versions[number] if versions else 3,
        )
        assert live.refresh() == [run_id]
        yield live


#: Probes whose payload carries a (topic, src_ts) correlation key.
_KEYED_PROBES = (P6_TAKE, P10_TAKE_REQUEST, P13_TAKE_RESPONSE, P16_DDS_WRITE)


def _as_alg1_runs(runs, data):
    """Redraw the runs' ROS rows as callbacks Alg. 1 folds: per PID, a
    CB start, an ID row, then writes / P14s until a CB end -- the PID's
    phase carries across runs, so callbacks straddle them.  Writes get
    a request/response kind, P14s a dispatch flag, and the (topic,
    src_ts) keys of writes and takes come from a small set, so
    FindCaller / FindClient find matches later runs can extend or
    resolve."""
    phase = {}
    for trace in runs:
        rows = []
        for event in trace.ros_events:
            step = phase.get(event.pid, 0)
            if step == 0:
                probe = P2_TIMER_START
            elif step == 1:
                probe = data.draw(st.sampled_from(
                    [P3_TIMER_CALL, P6_TAKE, P10_TAKE_REQUEST, P13_TAKE_RESPONSE]
                ))
            else:
                probe = data.draw(st.sampled_from(
                    [P16_DDS_WRITE, P16_DDS_WRITE, P14_TAKE_TYPE_ERASED, P4_TIMER_END]
                ))
            phase[event.pid] = 0 if probe == P4_TIMER_END else step + 1
            payload = {}
            if step == 1:
                payload["cb_id"] = data.draw(st.sampled_from(["x", "y"]))
            if probe in _KEYED_PROBES:
                payload["topic"] = data.draw(st.sampled_from(["/a", "/b"]))
                payload["src_ts"] = data.draw(st.sampled_from([0, 1]))
            if probe == P16_DDS_WRITE:
                payload["kind"] = data.draw(
                    st.sampled_from([None, "request", "response"])
                )
            if probe == P14_TAKE_TYPE_ERASED:
                payload["will_dispatch"] = data.draw(st.booleans())
            rows.append(event._replace(probe=probe, data=payload))
        trace.ros_events = rows


def _ev(ts, pid, probe, **data):
    return TraceEvent(ts, pid, probe, data)


def _timer_cb(pid, start, end, cb_id="T"):
    return [
        _ev(start, pid, P2_TIMER_START),
        _ev(start + 1, pid, P3_TIMER_CALL, cb_id=cb_id),
        _ev(end, pid, P4_TIMER_END),
    ]


def _run(ros, pid_map, start_ts, stop_ts, sched=()):
    return Trace(
        ros_events=sorted(ros, key=lambda e: e.ts),
        sched_events=list(sched),
        pid_map=pid_map,
        start_ts=start_ts,
        stop_ts=stop_ts,
    )


class TestResumableExtraction:
    """The live model resumes per-PID Alg. 1 walks; at every commit it
    equals extraction from scratch over the same runs, and a PID
    re-walks from row 0 exactly when a later run can change what its
    walk folded."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_in_order_models_walk_each_row_once(self, sources, name, tmp_path):
        target = str(tmp_path / "inorder")
        live = LiveSynthesizer(TraceStore.create(target))
        for run_id in sorted(TraceStore(sources[name]).run_ids()):
            _deliver(sources[name], target, run_id)
            live.refresh()
            live.model()
        counters = live.counters
        assert counters.model_builds == RUNS
        assert counters.model_pid_rewalks == 0
        assert counters.model_rows_walked == _walk_rows(live.index) > 0
        assert counters.as_dict()["model_rows_walked"] == _walk_rows(live.index)
        live.model()  # cached until the next ingest: nothing walked
        assert counters.model_builds == RUNS

    @given(
        runs=time_ordered_runs(),
        versions=st.lists(st.sampled_from([1, 2, 3]), min_size=4, max_size=4),
        names=st.lists(st.sampled_from([None, "b"]), min_size=4, max_size=4),
        floor=st.sampled_from([1, 10 ** 9]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_commit_matches_fresh_extraction(
        self, runs, versions, names, floor, data
    ):
        """Runs share PIDs, CBs straddle runs and sched rows overlap
        earlier runs; PID 2's name may change from run to run, and
        writes / take_requests feed FindCaller and FindClient matches
        that later runs may resolve."""
        for trace, name in zip(runs, names):
            trace.pid_map[2] = name
        _as_alg1_runs(runs, data)
        saved = npcompat.MIN_VECTOR_ROWS
        npcompat.MIN_VECTOR_ROWS = floor
        try:
            with tempfile.TemporaryDirectory() as directory:
                for live in _live_commits(runs, directory, versions):
                    expected = _batch_extraction(live.store, live.run_ids)
                    assert _signature(live.model()) == _signature(expected)
                counters = live.counters
                assert counters.rebuilds == 0
                assert counters.model_rows_walked >= _walk_rows(live.index)
                if counters.model_pid_rewalks == 0:
                    assert counters.model_rows_walked == _walk_rows(live.index)
        finally:
            npcompat.MIN_VECTOR_ROWS = saved

    def _models(self, runs, directory):
        """The served model and the re-walks so far, per commit, each
        model checked against a fresh extraction; plus the counters."""
        result = []
        for live in _live_commits(runs, directory):
            dag = live.model()
            expected = _batch_extraction(live.store, live.run_ids)
            assert _signature(dag) == _signature(expected)
            result.append((dag, live.counters.model_pid_rewalks))
        return result, live.counters

    def test_sched_row_inside_a_folded_window_rewalks(self, tmp_path):
        # Run 1 reveals that PID 5 was preempted during 150-170, inside
        # the timer CB run 0 already folded with 100 ns of exec time.
        runs = [
            _run(_timer_cb(5, 100, 200), {5: "n"}, 0, 300),
            _run(
                _timer_cb(5, 1000, 1100), {5: "n"}, 300, 1200,
                sched=[
                    SchedSwitch(150, 0, 5, "n", 120, "S", 0, "idle", 120),
                    SchedSwitch(170, 0, 0, "idle", 120, "R", 5, "n", 120),
                ],
            ),
        ]
        [(first, rewalks0), (second, rewalks1)], _ = self._models(
            runs, str(tmp_path / "s")
        )
        assert first.vertex("n/T").exec_times == [100]
        assert second.vertex("n/T").exec_times == [80, 100]
        assert (rewalks0, rewalks1) == (0, 1)

    def test_undecided_find_client_rewalks_once_resolved(self, tmp_path):
        # PID 2's service writes a response PID 1 takes in run 0; the
        # P14 saying PID 1 dispatches it only arrives in run 1.
        caller = _timer_cb(3, 1, 8) + [
            _ev(5, 3, P16_DDS_WRITE, topic="/req", src_ts=5, kind="request"),
        ]
        service = [
            _ev(10, 2, P9_SERVICE_START),
            _ev(20, 2, P10_TAKE_REQUEST, cb_id="S", topic="/req", src_ts=5),
            _ev(50, 2, P16_DDS_WRITE, topic="/res", src_ts=50, kind="response"),
            _ev(60, 2, P11_SERVICE_END),
        ]
        client = [
            _ev(100, 1, P12_CLIENT_START),
            _ev(120, 1, P13_TAKE_RESPONSE, cb_id="C", topic="/res", src_ts=50),
        ]
        pid_map = {1: "cl", 2: "sv", 3: "tm"}
        runs = [
            _run(caller + service + client, pid_map, 0, 200),
            _run(
                [
                    _ev(1000, 1, P14_TAKE_TYPE_ERASED, will_dispatch=True),
                    _ev(1010, 1, P15_CLIENT_END),
                ],
                pid_map, 200, 1100,
            ),
        ]
        [(first, rewalks0), (second, rewalks1)], _ = self._models(
            runs, str(tmp_path / "s")
        )
        service_key = "sv/S@/req#T"
        assert first.vertex(service_key).outtopics == ["/res#?"]
        assert second.vertex(service_key).outtopics == ["/res#C"]
        assert second.has_vertex("cl/C")
        assert (rewalks0, rewalks1) == (0, 1)

    @pytest.mark.parametrize(
        "dispatches, client, rewalks", [(True, "C1", 1), (False, "C2", 0)]
    )
    def test_earlier_undecided_take_can_win_find_client(
        self, tmp_path, dispatches, client, rewalks
    ):
        # Two clients take PID 2's response; PID 5's take dispatches
        # within run 0, PID 1's earlier take only learns in run 1.  If
        # it dispatches, it wins and PID 2 re-walks; if not, the match
        # stands and becomes final.
        service = [
            _ev(10, 2, P9_SERVICE_START),
            _ev(20, 2, P10_TAKE_REQUEST, cb_id="S", topic="/req", src_ts=5),
            _ev(50, 2, P16_DDS_WRITE, topic="/res", src_ts=50, kind="response"),
            _ev(60, 2, P11_SERVICE_END),
        ]
        clients = [
            _ev(100, 1, P12_CLIENT_START),
            _ev(110, 1, P13_TAKE_RESPONSE, cb_id="C1", topic="/res", src_ts=50),
            _ev(120, 5, P12_CLIENT_START),
            _ev(130, 5, P13_TAKE_RESPONSE, cb_id="C2", topic="/res", src_ts=50),
            _ev(140, 5, P14_TAKE_TYPE_ERASED, will_dispatch=True),
            _ev(150, 5, P15_CLIENT_END),
        ]
        pid_map = {1: "cl", 2: "sv", 5: "cl"}
        runs = [
            _run(service + clients, pid_map, 0, 200),
            _run(
                [
                    _ev(1000, 1, P14_TAKE_TYPE_ERASED, will_dispatch=dispatches),
                    _ev(1010, 1, P15_CLIENT_END),
                ],
                pid_map, 200, 1100,
            ),
        ]
        [(first, _), (second, rewalks1)], _ = self._models(
            runs, str(tmp_path / "s")
        )
        service_key = "sv/S@/req#?"
        assert first.vertex(service_key).outtopics == ["/res#C2"]
        assert second.vertex(service_key).outtopics == [f"/res#{client}"]
        assert rewalks1 == rewalks

    def test_clamped_find_caller_rewalks_when_the_write_arrives(self, tmp_path):
        # PID 2 serves two requests of one (topic, src_ts) key; run 0
        # holds only PID 3's write of it, so the second take clamps to
        # that write until run 1 brings PID 4's.
        run0 = _timer_cb(3, 1, 8, cb_id="A") + [
            _ev(5, 3, P16_DDS_WRITE, topic="/req", src_ts=5, kind="request"),
        ]
        for start in (10, 40):
            run0 += [
                _ev(start, 2, P9_SERVICE_START),
                _ev(start + 10, 2, P10_TAKE_REQUEST, cb_id="S", topic="/req",
                    src_ts=5),
                _ev(start + 20, 2, P11_SERVICE_END),
            ]
        run1 = _timer_cb(4, 100, 108, cb_id="B") + [
            _ev(105, 4, P16_DDS_WRITE, topic="/req", src_ts=5, kind="request"),
        ]
        pid_map = {2: "sv", 3: "a", 4: "b"}
        runs = [_run(run0, pid_map, 0, 90), _run(run1, pid_map, 90, 200)]
        [(first, _), (second, rewalks1)], _ = self._models(
            runs, str(tmp_path / "s")
        )
        assert first.vertex("sv/S@/req#A").start_times == [10, 40]
        assert second.vertex("sv/S@/req#A").start_times == [10]
        assert second.vertex("sv/S@/req#B").start_times == [40]
        assert rewalks1 == 1

    def test_pid_named_in_a_later_run_rewalks(self, tmp_path):
        # PID 4 is unnamed in run 0 and named in run 1; PID 6 is first
        # listed in run 1, so it is walked from row 0 then, not re-walked.
        runs = [
            _run(_timer_cb(4, 10, 20) + _timer_cb(6, 30, 40), {4: None}, 0, 100),
            _run(
                _timer_cb(4, 110, 120) + _timer_cb(6, 130, 140),
                {4: "late", 6: "six"}, 100, 200,
            ),
        ]
        [(first, rewalks0), (second, rewalks1)], counters = self._models(
            runs, str(tmp_path / "s")
        )
        assert first.has_vertex("pid4/T") and not first.has_vertex("six/T")
        assert second.vertex("late/T").start_times == [10, 110]
        assert second.vertex("six/T").start_times == [30, 130]
        assert not second.has_vertex("pid4/T")
        assert (rewalks0, rewalks1) == (0, 1)
        # 3 rows of PID 4, then PID 4 re-walked (6) and PID 6 walked (6).
        assert counters.model_rows_walked == 3 + 6 + 6


class TestMixedFormatLive:
    """Incremental == batch over a store mixing v1, v2 and v3 segments:
    each arrival takes whichever index consumer its format and size
    select, extending the same resumable index."""

    def test_every_commit_point_matches_batch(self, sources, tmp_path):
        source = TraceStore(sources["syn"])
        run_ids = sorted(source.run_ids())
        mixed = str(tmp_path / "mixed")
        os.makedirs(mixed)
        for version, run_id in zip((1, 2, 3), run_ids):
            write_segment(
                source.open(run_id).to_trace(),
                os.path.join(mixed, run_id + SEGMENT_SUFFIX),
                format_version=version,
            )
        versions = TraceStore(mixed)
        assert [versions.format_version(r) for r in run_ids] == [1, 2, 3]
        for case, order in enumerate(_arrival_orders("syn-mixed", run_ids)):
            target = str(tmp_path / f"order{case}")
            live = LiveSynthesizer(TraceStore.create(target))
            for run_id in order:
                _deliver(mixed, target, run_id)
                assert live.refresh() == [run_id]
                batch = synthesize_from_store(TraceStore(target), jobs=1)
                assert _signature(live.model()) == _signature(batch), (
                    order, run_id,
                )


class TestEvictionWindow:
    """retain_window=N == batch synthesis of the N newest runs."""

    def test_eviction_matches_truncated_batch_store(self, sources, tmp_path):
        source = sources["syn"]
        run_ids = sorted(TraceStore(source).run_ids())
        target = str(tmp_path / "window")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=2, counters=counters
        )
        for arrived, run_id in enumerate(run_ids, start=1):
            _deliver(source, target, run_id)
            live.refresh()
            retained = run_ids[max(0, arrived - 2):arrived]
            assert live.run_ids == retained
            # The reference store holds exactly the retained runs.
            truncated = str(tmp_path / f"window_ref{arrived}")
            os.makedirs(truncated)
            for keep in retained:
                _deliver(source, truncated, keep)
            batch = synthesize_from_store(TraceStore(truncated), jobs=1)
            assert _signature(live.model()) == _signature(batch), run_id
        assert counters.runs_evicted == 1
        assert counters.rows_evicted > 0
        # The evicted run's file stays on disk and is never re-ingested.
        assert "run000" in TraceStore(target)
        assert live.refresh() == []
        assert live.run_ids == run_ids[-2:]

    @pytest.mark.parametrize("name", scenario_names())
    def test_eviction_keeps_latency_equal_to_retained_runs(
        self, sources, latency_chains, name, tmp_path
    ):
        run_ids = sorted(TraceStore(sources[name]).run_ids())
        for case, order in enumerate(_arrival_orders(name, run_ids)):
            target = str(tmp_path / f"order{case}")
            live = LiveSynthesizer(TraceStore.create(target), retain_window=2)
            for run_id in order:
                _deliver(sources[name], target, run_id)
                live.refresh()
                _assert_latency_matches_batch(
                    live, target, latency_chains[name], (name, order, run_id)
                )
            assert live.run_ids == run_ids[-2:]

    def test_eviction_costs_exactly_one_latency_build(self, sources, tmp_path):
        source = sources["syn"]
        run_ids = sorted(TraceStore(source).run_ids())
        target = str(tmp_path / "window")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=RUNS - 1, counters=counters
        )
        for run_id in run_ids[:-1]:
            _deliver(source, target, run_id)
            live.refresh()
            live.latency_index()
        assert (counters.latency_index_builds, counters.latency_index_extends) == (
            1, RUNS - 2,
        )
        _deliver(source, target, run_ids[-1])
        live.refresh()
        assert counters.runs_evicted == 1
        live.latency_index()
        live.latency_index()
        assert (counters.latency_index_builds, counters.latency_index_extends) == (
            2, RUNS - 2,
        )


class TestIngestSpool:
    """Validation and atomic commits of externally produced segments."""

    @pytest.fixture()
    def blob(self, sources):
        path = TraceStore(sources["syn"]).path_of("run000")
        with open(path, "rb") as handle:
            return handle.read()

    def test_commit_lands_and_is_readable(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        result = spool.commit_bytes("pushed", blob)
        assert result.run_id == "pushed"
        assert result.events > 0
        assert result.bytes_written == len(blob)
        assert "pushed" in store
        assert store.open("pushed").ros_ts_range() is not None
        assert spool.committed == 1

    def test_rejects_garbage_truncation_and_bad_magic(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        with pytest.raises(IngestError, match="truncated"):
            spool.validate_bytes("r", b"not a segment")
        with pytest.raises(IngestError):
            spool.validate_bytes("r", b"XXXX" + blob[4:])
        with pytest.raises(IngestError):
            spool.validate_bytes("r", blob[: len(blob) // 2])
        # Corrupt sections a lazy read would only meet later, halfway
        # through a live index extend: the first deflated sched column
        # and payload column, 8 bytes flipped mid-stream.
        entries, body_start = unpack_section_dir(blob, HEADER.size)
        for kind in (SECTION_SCHED, SECTION_PAYLOAD):
            entry = next(
                e for e in entries
                if e.kind == kind and e.comp == SECTION_COMP_ZLIB
            )
            at = body_start + entry.offset + entry.comp_len // 2
            flipped = bytes(b ^ 0xFF for b in blob[at:at + 8])
            corrupt = blob[:at] + flipped + blob[at + 8:]
            with pytest.raises(IngestError, match=entry.name):
                spool.commit_bytes("r", corrupt)
        assert "r" not in store

    def test_rejects_duplicates_and_path_escaping_run_ids(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        spool.commit_bytes("run000", blob)
        with pytest.raises(IngestError, match="already stored"):
            spool.commit_bytes("run000", blob)
        for bad in ("../evil", "a/b", "", ".hidden"):
            with pytest.raises(IngestError, match="invalid run id"):
                spool.validate_bytes(bad, blob)

    def test_failed_commits_leave_no_staging_files(self, blob, tmp_path):
        directory = str(tmp_path / "s")
        store = TraceStore.create(directory)
        spool = IngestSpool(store)
        with pytest.raises(IngestError):
            spool.commit_bytes("bad", blob[:100])
        spool.commit_bytes("good", blob)
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []
        assert sorted(store.run_ids()) == ["good"]


class TestDropDirWatcher:
    """Drop-dir files are held one stable poll before rejection."""

    def test_partial_file_held_then_rejected(self, sources, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        drop = str(tmp_path / "drop")
        rejections = []
        watcher = DropDirWatcher(
            IngestSpool(store), drop,
            on_reject=lambda run_id, error: rejections.append(run_id),
        )
        with open(TraceStore(sources["syn"]).path_of("run000"), "rb") as handle:
            blob = handle.read()
        partial = os.path.join(drop, "part" + SEGMENT_SUFFIX)
        with open(partial, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        # First poll: invalid but possibly still being written -- held.
        assert watcher.poll() == []
        assert watcher.rejected == 0 and os.path.exists(partial)
        # Second poll, bytes unchanged: rejected and renamed aside.
        assert watcher.poll() == []
        assert watcher.rejected == 1
        assert rejections == ["part"]
        assert not os.path.exists(partial)
        assert os.path.exists(partial + ".rejected")
        # A valid drop commits and its source is removed.
        whole = os.path.join(drop, "whole" + SEGMENT_SUFFIX)
        with open(whole, "wb") as handle:
            handle.write(blob)
        results = watcher.poll()
        assert [r.run_id for r in results] == ["whole"]
        assert not os.path.exists(whole)
        assert "whole" in store

    def test_growing_file_is_not_rejected(self, sources, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        drop = str(tmp_path / "drop")
        watcher = DropDirWatcher(IngestSpool(store), drop)
        with open(TraceStore(sources["syn"]).path_of("run000"), "rb") as handle:
            blob = handle.read()
        path = os.path.join(drop, "slow" + SEGMENT_SUFFIX)
        with open(path, "wb") as handle:
            handle.write(blob[:100])
        assert watcher.poll() == []
        with open(path, "ab") as handle:  # the producer keeps writing
            handle.write(blob[100 : len(blob) // 2])
        assert watcher.poll() == []
        assert watcher.rejected == 0
        with open(path, "wb") as handle:
            handle.write(blob)
        assert [r.run_id for r in watcher.poll()] == ["slow"]
        assert watcher.rejected == 0


class TestStoreRefresh:
    """TraceStore.refresh picks up runs a second process committed."""

    def test_refresh_sees_second_writer_process(self, tmp_path):
        directory = str(tmp_path / "shared")
        store = TraceStore.create(directory)
        assert store.run_ids() == []
        subprocess.run(
            [sys.executable, "-m", "repro", "record", "syn",
             "--runs", "2", "--duration", "1", "--out", directory],
            check=True, capture_output=True,
        )
        # The handle predates the writes; refresh reconciles it.
        assert store.run_ids() == []
        assert store.refresh() == ["run000", "run001"]
        assert store.refresh() == []
        assert store.run_ids() == ["run000", "run001"]
        assert store.open("run001").ros_ts_range() is not None

    def test_refresh_is_incremental(self, sources, tmp_path):
        directory = str(tmp_path / "inc")
        store = TraceStore.create(directory)
        _deliver(sources["syn"], directory, "run000")
        assert store.refresh() == ["run000"]
        _deliver(sources["syn"], directory, "run001")
        _deliver(sources["syn"], directory, "run002")
        assert store.refresh() == ["run001", "run002"]


class TestFinishPathAtomicity:
    """The recorder's spool commit is tmp-file + rename."""

    def test_failed_finish_leaves_nothing(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, "run000" + SEGMENT_SUFFIX)
        spool = SegmentSpool()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(SegmentSpool, "finish", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            spool.finish_path(path, {}, 0, 1)
        assert os.listdir(directory) == []

    def test_successful_finish_leaves_only_the_segment(self, tmp_path):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, "run000" + SEGMENT_SUFFIX)
        written = SegmentSpool().finish_path(path, {}, 0, 1)
        assert written > 0
        assert os.listdir(directory) == ["run000" + SEGMENT_SUFFIX]
