"""DAG synthesis: turn per-node CBlists into the application timing model.

Rules (Sec. IV, "DAG synthesis"):

1. every CBlist entry becomes a vertex -- a service invoked by *n*
   callers has *n* entries (matched on ID + subscribed topic) and hence
   *n* vertices, keeping per-caller chains disjoint;
2. an edge connects ``cb'`` to ``cb`` when a published topic of ``cb'``
   matches the subscribed topic of ``cb`` -- except that publications of
   data-synchronization members are routed through an ``AND`` junction;
3. a vertex whose subscribed topic has more than one publisher is marked
   as an ``OR`` junction (any publisher triggers it);
4. the sync members of a node feed a zero-execution-time ``AND``
   junction vertex whose outgoing edges lead to the subscribers of the
   group's fused output topics.

The ``split_services`` / ``model_sync`` switches disable rules 1 and 4
respectively.  They exist for the ablation benchmarks that reproduce
the paper's motivating counterexamples: a shared service vertex creates
n x n spurious chains, and plain sync edges misrepresent an AND join as
OR triggering.  Production use keeps both switches on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .dag import DagVertex, TimingDag
from .records import CallbackRecord, CBList


def vertex_key(record: CallbackRecord, split_services: bool = True) -> str:
    """Stable vertex key; services embed the (caller-qualified) intopic."""
    if record.cb_type == "service" and split_services:
        return f"{record.node}/{record.cb_id}@{record.intopic}"
    return f"{record.node}/{record.cb_id}"


def junction_key(node: str) -> str:
    return f"{node}/&"


def synthesize_dag(
    cblists: Iterable[CBList],
    split_services: bool = True,
    model_sync: bool = True,
) -> TimingDag:
    """Build the timing DAG from the CBlists of all traced nodes."""
    dag = TimingDag()
    records: List[Tuple[str, CallbackRecord]] = []
    for cblist in cblists:
        for record in cblist:
            key = vertex_key(record, split_services)
            records.append((key, record))
            vertex = DagVertex(
                key=key,
                node=record.node,
                cb_id=record.cb_id,
                cb_type=record.cb_type,
                intopic=record.intopic,
                outtopics=list(record.outtopics),
                is_sync_member=record.is_sync_subscriber,
                exec_times=list(record.exec_times),
                start_times=list(record.start_times),
                response_times=list(record.response_times),
            )
            if dag.has_vertex(key):
                # Records sharing a vertex key fold into one vertex:
                # the records of different PIDs that run the same node
                # (every multi-run store -- each run hosts the node
                # under its own PID) and, with split_services=False,
                # the per-caller records of one service.
                existing = dag.vertex(key)
                existing.exec_times.extend(vertex.exec_times)
                existing.start_times.extend(vertex.start_times)
                existing.response_times.extend(vertex.response_times)
                for topic in vertex.outtopics:
                    if topic not in existing.outtopics:
                        existing.outtopics.append(topic)
            else:
                dag.add_vertex(vertex)

    # -- AND junctions for data-synchronization groups -------------------
    sync_members: Dict[str, List[str]] = {}
    if model_sync:
        for key, record in records:
            if record.is_sync_subscriber:
                members = sync_members.setdefault(record.node, [])
                if key not in members:
                    members.append(key)
    junction_out: Dict[str, List[str]] = {}
    for node, members in sync_members.items():
        if len(members) < 2:
            continue  # a lone marked subscriber is not a join
        jkey = junction_key(node)
        outtopics: List[str] = []
        for member_key in members:
            for topic in dag.vertex(member_key).outtopics:
                if topic not in outtopics:
                    outtopics.append(topic)
        dag.add_vertex(
            DagVertex(
                key=jkey,
                node=node,
                cb_id=jkey,
                cb_type="and_junction",
                outtopics=outtopics,
            )
        )
        for member_key in members:
            dag.add_edge(member_key, jkey, topic="&")
        junction_out[jkey] = outtopics

    rerouted = {
        m for members in sync_members.values() if len(members) >= 2 for m in members
    }

    # -- publisher map (effective outputs, per record) ---------------------
    publishers: Dict[str, List[str]] = {}
    for key, record in records:
        if key in rerouted:
            continue  # outputs flow through the AND junction instead
        for topic in record.outtopics:
            sources = publishers.setdefault(topic, [])
            if key not in sources:
                sources.append(key)
    for jkey, outtopics in junction_out.items():
        for topic in outtopics:
            sources = publishers.setdefault(topic, [])
            if jkey not in sources:
                sources.append(jkey)

    # -- precedence edges + OR marking ------------------------------------
    for key, record in records:
        intopic = record.intopic
        if intopic is None:
            continue
        sources = publishers.get(intopic, [])
        for src in sources:
            if src != key:
                dag.add_edge(src, key, topic=intopic)
        if len(set(sources) - {key}) > 1:
            dag.vertex(key).is_or_junction = True

    return dag


def synthesize_from_cblists(cblists: Iterable[CBList], **kwargs) -> TimingDag:
    """Alias kept for symmetry with :mod:`repro.core.pipeline`."""
    return synthesize_dag(cblists, **kwargs)
