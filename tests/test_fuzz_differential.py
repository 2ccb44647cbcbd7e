"""Differential check over fuzzed scenarios: in-memory == store path.

The store equivalence suites pin the in-memory and store pipelines
against each other on the 7 registry scenarios only.  Here a pinned
fuzz stream supplies the scenarios: every sample -- the four scheduling
policies rotate by index -- is traced once and then synthesized

* in memory, by ``synthesize_from_trace``;
* from a one-run format-v3 store, by ``synthesize_from_store(jobs=1)``,
  once through each store row consumer: the vectorized column consumer
  (``MIN_VECTOR_ROWS = 1``) and the scalar row consumer
  (``MIN_VECTOR_ROWS = 10**9``; without numpy both legs take it).

DAG JSON, exec table and DOT must be byte-identical across all three,
and the in-memory and streamed latency indexes must give equal chain
and topic latencies on every written topic.
"""

import pytest

from repro.analysis.latency import LatencyIndex, chain_latencies, topic_latencies
from repro.analysis.store import latency_index_from_store
from repro.core import (
    dag_to_json,
    format_exec_table,
    npcompat,
    synthesize_from_trace,
    to_dot,
)
from repro.experiments.runner import RunConfig, run_once
from repro.scenarios.fuzz import sample_spec, world_seed_for
from repro.sim.policies import POLICY_NAMES
from repro.store import TraceStore, synthesize_from_store, write_segment
from repro.tracing.events import P16_DDS_WRITE

FUZZ_SEED = 16
#: Four samples per policy; about half of them host a service.
SAMPLES = 16


def _artifacts(dag):
    return dag_to_json(dag), format_exec_table(dag), to_dot(dag)


def _write_topics(trace):
    topics = []
    for event in trace.ros_events:
        if event.probe == P16_DDS_WRITE:
            topic = event.get("topic")
            if topic not in topics:
                topics.append(topic)
    return topics


def _chains(dag, topics):
    """Every written topic alone, plus each two-hop chain the DAG
    holds: an edge's topic followed by an output of its consumer."""
    chains = [[topic] for topic in topics]
    for edge in dag.edges():
        if edge.topic == "&":
            continue
        for out in dag.vertex(edge.dst).outtopics:
            chains.append([edge.topic, out])
    return chains


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """(spec, trace, store) per sampled scenario."""
    root = tmp_path_factory.mktemp("fuzz-differential")
    result = []
    for index in range(SAMPLES):
        spec = sample_spec(FUZZ_SEED, index)
        config = RunConfig(
            duration_ns=spec.duration_ns,
            num_cpus=spec.num_cpus,
            base_seed=world_seed_for(FUZZ_SEED, index),
            sched_policy=spec.policy,
        )
        trace = run_once(lambda world, i, spec=spec: spec.build(world), config).trace
        directory = root / f"sample{index:02d}"
        directory.mkdir()
        write_segment(trace, str(directory / "run000.trace.bin"), format_version=3)
        result.append((spec, trace, TraceStore(str(directory))))
    return result


def test_samples_cover_every_policy(samples):
    assert {spec.policy for spec, _trace, _store in samples} == set(POLICY_NAMES)


@pytest.mark.parametrize("index", range(SAMPLES))
def test_store_consumers_match_in_memory(samples, index, monkeypatch):
    spec, trace, store = samples[index]
    dag = synthesize_from_trace(trace)
    assert dag.num_vertices, spec.name
    expected = _artifacts(dag)
    for floor in (1, 10**9):
        monkeypatch.setattr(npcompat, "MIN_VECTOR_ROWS", floor)
        actual = _artifacts(synthesize_from_store(store, jobs=1))
        assert actual == expected, (spec.name, spec.policy, floor)


@pytest.mark.parametrize("index", range(SAMPLES))
def test_latency_indexes_match_in_memory(samples, index):
    spec, trace, store = samples[index]
    in_memory = LatencyIndex.from_trace(trace)
    streamed = latency_index_from_store(store)
    topics = _write_topics(trace)
    assert topics, spec.name
    for topic in topics:
        assert topic_latencies(streamed, topic) == topic_latencies(in_memory, topic)
    for chain in _chains(synthesize_from_trace(trace), topics):
        assert chain_latencies(streamed, chain) == chain_latencies(in_memory, chain), (
            spec.name, chain,
        )
