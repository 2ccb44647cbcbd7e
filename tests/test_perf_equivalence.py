"""Golden pins for the optimized simulation and synthesis stack.

``tests/data/golden_digests.json`` holds sha256 digests of fixed-input
outputs.  When they were generated they equalled, byte for byte, the
outputs of the pre-optimization kernel/scheduler/tracer/Alg. 1/Alg. 2
stack and of the handle-per-event reference kernel; the digests now
stand in for both:

1. **scenarios** -- for every registry scenario (run 0, 1.5 s): the
   traced run's ``Trace.to_dict()`` as canonical JSON, and the
   synthesized DAG JSON, exec-time table and DOT export;
2. **merged** -- the 2-run ``avp-interference`` DAG synthesized from the
   merged trace (Fig. 2's "merge traces" strategy);
3. **policies** -- traces of two scenarios under every scheduling
   policy.

A failing pin names the scenario, the artefact kind and the new digest.
Alg. 2 properties compare the columnar ``SchedIndex`` against the
literal ``get_exec_time`` on arbitrary event soups, and the batch check
asserts ``--jobs`` does not change results.
"""

import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SchedIndex,
    dag_to_json,
    format_exec_table,
    get_exec_time,
    synthesize_from_trace,
    to_dot,
)
from repro.core.merge import dag_from_merged_traces, merge_dags
from repro.experiments import BatchConfig, RunConfig, run_batch
from repro.scenarios import build_scenario_spec, scenario_names
from repro.sim import SEC, SchedSwitch
from repro.sim.policies import POLICY_NAMES
from repro.tracing.session import Trace, TracingSession
from repro.world import World

DURATION_NS = int(1.5 * SEC)
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_digests.json"
POLICY_SCENARIOS = ("avp-interference", "service-mesh")
MERGED_SCENARIO = "avp-interference"


def _traced_run(name, run_index=0, **world_kwargs):
    spec = build_scenario_spec(name, run_index=run_index, runs=3)
    config = RunConfig(duration_ns=DURATION_NS, num_cpus=spec.num_cpus)
    world = World(
        num_cpus=config.num_cpus,
        seed=config.seed_for(run_index),
        timeslice=config.timeslice_ns,
        dds_latency_ns=config.dds_latency_ns,
        start_time_ns=config.time_base_for(run_index),
        first_pid=config.pid_base_for(run_index),
        **world_kwargs,
    )
    spec.build(world)
    session = TracingSession(world, kernel_filter=config.kernel_filter)
    session.start_init()
    world.launch()
    world.run(for_ns=config.warmup_ns)
    session.stop_init()
    session.start_runtime()
    world.run(for_ns=DURATION_NS)
    session.stop_runtime()
    return session.trace()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace):
    return digest(json.dumps(trace.to_dict(), sort_keys=True))


def scenario_digests(trace):
    """Digests of one traced run and of the DAG synthesized from it."""
    dag = synthesize_from_trace(trace)
    return {
        "trace": trace_digest(trace),
        "dag_json": digest(dag_to_json(dag)),
        "exec_table": digest(format_exec_table(dag)),
        "dot": digest(to_dot(dag)),
    }


def assert_pinned(pinned, new, what):
    assert new == pinned, f"{what}: output changed; new digest {new}"


def _check_scenario(name, kind, golden, scenario_outputs):
    assert_pinned(
        golden["scenarios"][name][kind],
        scenario_outputs[name][kind],
        f"scenario {name} {kind}",
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def scenario_outputs():
    return {name: scenario_digests(_traced_run(name)) for name in scenario_names()}


class TestGoldenSynthesisEquivalence:
    """Synthesized DAGs of every registry scenario, byte for byte."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_dag_json_identical(self, name, golden, scenario_outputs):
        _check_scenario(name, "dag_json", golden, scenario_outputs)

    @pytest.mark.parametrize("name", scenario_names())
    def test_exec_table_identical(self, name, golden, scenario_outputs):
        _check_scenario(name, "exec_table", golden, scenario_outputs)

    @pytest.mark.parametrize("name", scenario_names())
    def test_dot_identical(self, name, golden, scenario_outputs):
        _check_scenario(name, "dot", golden, scenario_outputs)


class TestFullStackSimEquivalence:
    """Kernel/scheduler/tracing stack: traces bit for bit."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_traces_identical(self, name, golden, scenario_outputs):
        _check_scenario(name, "trace", golden, scenario_outputs)


class TestMergedTraceEquivalence:
    """Strategy 1 (merge traces, then synthesize): the O(P*N) path."""

    def test_merged_synthesis_identical(self, golden):
        traces = [_traced_run(MERGED_SCENARIO, run_index=i) for i in range(2)]
        assert_pinned(
            golden["merged"][MERGED_SCENARIO],
            digest(dag_to_json(dag_from_merged_traces(traces))),
            f"merged {MERGED_SCENARIO} dag_json",
        )

    def test_trace_merge_round_trips_serialization(self):
        traces = [_traced_run("syn", run_index=i) for i in range(2)]
        merged = Trace.merge(traces)
        restored = Trace.from_dict(
            json.loads(json.dumps(merged.to_dict()))
        )
        assert restored.to_dict() == merged.to_dict()


class TestPolicyMatrixEquivalence:
    """Every scheduling policy on two scenarios.  These runs drive every
    lazy-arming and token-cancel path of the scheduler; the pinned
    digests are the traces the handle-per-event reference kernel
    produced for the same runs."""

    @pytest.mark.parametrize("name", POLICY_SCENARIOS)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_slab_kernel_matches_heap_reference(self, name, policy, golden):
        assert_pinned(
            golden["policies"][name][policy],
            trace_digest(_traced_run(name, sched_policy=policy)),
            f"scenario {name} policy {policy} trace",
        )

    def test_default_policy_is_the_legacy_pinned_one(self, golden):
        """The explicit ``priority`` pin names the same trace as the
        default-policy scenario pin, which the pre-optimization stack
        produced: priority is pinned to that stack, and every policy to
        the reference kernel."""
        for name in POLICY_SCENARIOS:
            assert (
                golden["policies"][name]["priority"]
                == golden["scenarios"][name]["trace"]
            ), name


class TestBatchDeterminismThroughTraceIndex:
    def test_jobs_do_not_change_results(self):
        config = BatchConfig(duration_ns=DURATION_NS, base_seed=321)
        serial = run_batch("sensor-fusion", runs=2, jobs=1, config=config)
        parallel = run_batch("sensor-fusion", runs=2, jobs=2, config=config)
        assert dag_to_json(serial.merged_dag) == dag_to_json(parallel.merged_dag)
        assert serial.table() == parallel.table()


def switch(ts, prev_pid, next_pid, cpu=0):
    return SchedSwitch(ts, cpu, prev_pid, f"p{prev_pid}", 0, "R",
                       next_pid, f"p{next_pid}", 0)


@st.composite
def event_soup(draw):
    """Arbitrary-but-causally-plausible switch sequences on one CPU."""
    pids = [1, 2, 3]
    t = 0
    current = draw(st.sampled_from(pids))
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t += draw(st.integers(min_value=1, max_value=500))
        nxt = draw(st.sampled_from([p for p in pids if p != current]))
        events.append(switch(t, current, nxt))
        current = nxt
    return events


class TestColumnarSchedIndexProperties:
    @given(
        soup=event_soup(),
        start=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=0, max_value=5000),
        pid=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200)
    def test_columnar_equals_literal(self, soup, start, width, pid):
        end = start + width
        assert SchedIndex(soup).exec_time(start, end, pid) == get_exec_time(
            start, end, pid, soup
        )

    @given(soup=event_soup(), pid=st.sampled_from([1, 2, 3]))
    @settings(max_examples=100)
    def test_events_for_matches_literal_filter(self, soup, pid):
        literal = sorted(
            (e for e in soup if pid in (e.prev_pid, e.next_pid)),
            key=lambda e: e.ts,
        )
        assert SchedIndex(soup).events_for(pid) == literal


class TestMergeSemantics:
    def test_heap_merge_matches_sort(self):
        """K-way merge output == the old extend-then-sort, ties included."""
        a = _traced_run("syn", run_index=0)
        b = _traced_run("syn", run_index=1)
        merged = Trace.merge([a, b])
        flat = sorted(a.ros_events + b.ros_events, key=lambda e: e.ts)
        assert merged.ros_events == flat

    def test_merged_dag_strategies_consistent(self):
        traces = [_traced_run("deep-pipeline", run_index=i) for i in range(2)]
        per_run = [synthesize_from_trace(t) for t in traces]
        merged = merge_dags(per_run)
        assert merged.num_vertices == per_run[0].num_vertices
