"""Alg. 1: extract callback attributes for each ROS2 node from traces.

The algorithm exploits the single-threaded executor model: within one
PID, every event between a CB-start and the next CB-end describes one
execution of one callback.  It walks the node's ROS2 events in
chronological order, assembling callback instances and folding them
into a :class:`CBList`.

All lookup structures come from the columnar
:class:`~repro.core.index.TraceIndex`: per-PID chronological walk
columns, the columnar :class:`~repro.core.exec_time.SchedIndex`, and the
cross-node association tables, which key by a row's *position* in the
chronological stream.

Cross-node lookups follow the paper:

* **FindCaller** (service requests) -- the ``dds_write`` event with the
  same topic and source timestamp as the ``take_request`` identifies the
  caller's PID; the ``timer_call``/``take`` event preceding that write
  (and following the caller's last CB start) provides the caller CB's ID.
* **FindClient** (service responses) -- the ``take_response`` events
  with the same topic and source timestamp as the ``dds_write`` locate
  the candidate clients; the chronologically next
  ``take_type_erased_response`` per candidate PID tells which client
  actually dispatched.

Topic names on service request/response paths are qualified with the
caller/client CB ID (the paper's concatenation), which is what later
splits a shared service into per-caller vertices.

One walk implements the state machine: :class:`PidWalk`, over a PID's
walk columns.  It is resumable -- its whole state persists between
calls -- so in-memory synthesis and the store's batch synthesis (one
resume of an empty walk per PID) and the live service (one resume per
model over the rows appended since) share it through
:func:`resume_walks`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..tracing.events import TraceEvent
from ..tracing.session import Trace
from .exec_time import SchedIndex
from .index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_SYNC_OP,
    CODE_TAKE,
    CODE_TAKE_REQUEST,
    CODE_TAKE_RESPONSE,
    CODE_TAKE_TYPE_ERASED,
    CODE_TIMER_CALL,
    TopicKey,
    TraceIndex,
)
from .records import CBList

#: Separator used when qualifying a service topic with a CB id.
TOPIC_ID_SEPARATOR = "#"


def cat(topic: str, cb_id: Optional[str]) -> str:
    """The paper's topic-name concatenation (unknown ids stay visible)."""
    return f"{topic}{TOPIC_ID_SEPARATOR}{cb_id if cb_id is not None else '?'}"


class EventIndex:
    """FindCaller / FindClient over a :class:`TraceIndex`'s association
    tables.

    The tables only grow as the index consumes more rows; the FIFO
    caller cursors belong to whoever walks (a :class:`PidWalk` keeps its
    own).  ``_caller_cursor`` is a cursor dict that
    :func:`_extract_pid_walk` shares across the PIDs it extracts.

    The ``*_match`` lookups also report *finality*: whether rows
    appended to the stream later could change the match.  An index
    grows only by appending (writes and take_responses of a key append,
    a take's dispatch flag is set once), so a final match stays the
    match a from-scratch walk would find.
    """

    def __init__(self, trace_index: TraceIndex):
        self._index = trace_index
        #: Cursor per (topic, src_ts) key: two periodic callers can write
        #: the same request topic at the same nanosecond, so the k-th
        #: take of a key is matched with the k-th write (FIFO delivery).
        self._caller_cursor: dict = {}

    def caller_match(
        self, key: TopicKey, cursor: int
    ) -> Tuple[Optional[int], Optional[str], bool]:
        """FindCaller for the ``cursor``-th take of ``key``: the stream
        position of the matched request write (``None`` while the key
        has none, which leaves the cursor where it is), the caller CB's
        ID, and whether the match is final -- the cursor's write exists
        rather than being clamped to the last one."""
        writes = [
            index
            for index, payload in self._index.writes.get(key, ())
            if payload.get("kind") == "request"
        ]
        if not writes:
            return None, None, False
        at = writes[min(cursor, len(writes) - 1)]
        return at, self._index.writer_cb.get(at), cursor < len(writes)

    def client_match(
        self, key: TopicKey
    ) -> Tuple[Optional[int], Optional[str], bool]:
        """FindClient for a response write of ``key``: the stream
        position of the first take_response whose next P14 dispatches,
        its client CB's ID, and whether the match is final -- one was
        found and no take_response before it still awaits its P14."""
        dispatch_after = self._index.dispatch_after
        final = True
        for take_index, take in self._index.take_responses.get(key, ()):
            dispatches = dispatch_after.get(take_index)
            if dispatches:
                return take_index, take.get("cb_id"), final
            if dispatches is None:
                final = False
        return None, None, False


class PidWalk:
    """One PID's resumable Alg. 1 walk over its walk columns.

    Alg. 1's state machine, consuming a :class:`TraceIndex`'s three
    parallel per-PID walk columns: timestamps, probe codes, and an
    ``aux`` slot per row -- the callback-type label for CB-start rows
    and the payload mapping for the ID-carrying rows Alg. 1
    dereferences (see :data:`~repro.core.index.PAYLOAD_CODES`); other
    rows' aux is never read.  Rows never materialize a
    :class:`TraceEvent`.  The index drops ``CODE_OTHER`` rows when
    building these columns -- such rows are no-ops to this state
    machine.

    Every piece of walk state persists between :meth:`resume` calls:
    the :class:`CBList`, the next row position, the in-flight instance,
    the FIFO caller cursors, the end timestamp of the last folded CB
    (the *horizon*) and the cross-node matches that were not final when
    walked.  A batch extraction is one ``resume`` of an empty walk; the
    live service resumes each PID over the rows appended since its last
    model, after :meth:`is_current` has checked that a walk from row 0
    over the grown index would reproduce the folded state.
    """

    __slots__ = (
        "cblist", "node_name", "pos", "active", "cb_type", "cb_id",
        "intopic", "outtopics", "is_sync", "start", "horizon",
        "sched_rows", "cursors", "pending",
    )

    def __init__(self, pid: int, node_name: Optional[str]):
        self.cblist = CBList(pid, node_name)
        #: the pid_map name the CBList was built with.
        self.node_name = node_name
        #: position of the next row to walk.
        self.pos = 0
        # The in-flight instance: ``active`` mirrors "instance is not None".
        self.active = False
        self.cb_type = ""
        self.cb_id: Optional[str] = None
        self.intopic: Optional[str] = None
        self.outtopics: Optional[List[str]] = None
        self.is_sync = False
        self.start = 0
        #: end timestamp of the last folded CB, and how many of the
        #: PID's sched bucket rows lay at or before it when walked.
        self.horizon: Optional[int] = None
        self.sched_rows = 0
        #: FIFO caller cursor per (topic, src_ts) key.
        self.cursors: dict = {}
        #: (key, cursor, matched position) of every cross-node match
        #: that was not final when walked; ``cursor`` is None for
        #: FindClient matches.
        self.pending: List[tuple] = []

    def is_current(
        self, node_name: Optional[str], sched_index: SchedIndex, index: EventIndex
    ) -> bool:
        """True when a walk from row 0 over the grown index would
        reproduce this walk's state: the PID's name is unchanged, no
        sched row arrived at or before the horizon (Alg. 2 reads only
        bucket rows inside a folded CB's ``[start, end]``), and every
        pending cross-node match still resolves to the same row.
        Matches that became final leave the pending list."""
        if node_name != self.node_name:
            return False
        if (
            self.horizon is not None
            and sched_index.rows_through(self.cblist.pid, self.horizon)
            != self.sched_rows
        ):
            return False
        pending = []
        for key, cursor, at in self.pending:
            if cursor is None:
                now, _client, final = index.client_match(key)
            else:
                now, _caller, final = index.caller_match(key, cursor)
            if now != at:
                return False
            if not final:
                pending.append((key, cursor, at))
        self.pending = pending
        return True

    def resume(
        self,
        timestamps: Sequence[int],
        codes: Sequence[int],
        aux: Sequence[object],
        sched_index: SchedIndex,
        index: EventIndex,
    ) -> int:
        """Walk the rows from :attr:`pos` to the end of the columns;
        returns how many rows were walked."""
        pos = self.pos
        if pos:
            if pos == len(codes):
                return 0
            timestamps = timestamps[pos:]
            codes = codes[pos:]
            aux = aux[pos:]
        pid = self.cblist.pid
        add_values = self.cblist.add_values
        exec_time = sched_index.exec_time
        caller_match = index.caller_match
        client_match = index.client_match
        cursors = self.cursors
        pending = self.pending
        active = self.active
        cb_type = self.cb_type
        cb_id = self.cb_id
        intopic = self.intopic
        outtopics = self.outtopics
        is_sync = self.is_sync
        start = self.start
        horizon = self.horizon
        for ts, code, data in zip(timestamps, codes, aux):
            if code == CODE_CB_START:
                active = True
                cb_type = data
                start = ts
                cb_id = None
                intopic = None
                outtopics = None
                is_sync = False
            elif not active:
                # Only the P14 no-dispatch probe acts outside an
                # instance, and it is a no-op when there is nothing to
                # drop.
                continue
            elif code == CODE_TIMER_CALL:
                cb_id = data.get("cb_id")
            elif code == CODE_TAKE:
                cb_id = data.get("cb_id")
                intopic = data.get("topic")
            elif code == CODE_TAKE_RESPONSE:
                cb_id = data.get("cb_id")
                intopic = cat(data.get("topic"), cb_id)
            elif code == CODE_TAKE_REQUEST:
                cb_id = data.get("cb_id")
                topic = data.get("topic")
                key = (topic, data.get("src_ts"))
                cursor = cursors.get(key, 0)
                at, caller, final = caller_match(key, cursor)
                if at is not None:
                    cursors[key] = cursor + 1
                if not final:
                    pending.append((key, cursor, at))
                intopic = cat(topic, caller)
            elif code == CODE_DDS_WRITE:
                kind = data.get("kind")
                if kind == "request":
                    top_out = cat(data.get("topic"), cb_id)
                elif kind == "response":
                    topic = data.get("topic")
                    key = (topic, data.get("src_ts"))
                    at, client, final = client_match(key)
                    if not final:
                        pending.append((key, None, at))
                    top_out = cat(topic, client)
                else:
                    top_out = data.get("topic")
                if outtopics is None:
                    outtopics = [top_out]
                else:
                    outtopics.append(top_out)
            elif code == CODE_TAKE_TYPE_ERASED:
                if not data.get("will_dispatch"):
                    # Client CB will not dispatch here: drop the instance.
                    active = False
            elif code == CODE_SYNC_OP:
                is_sync = True
            elif code == CODE_CB_END:
                if cb_id is not None:
                    add_values(
                        cb_type,
                        cb_id,
                        intopic,
                        outtopics,
                        is_sync,
                        start,
                        ts,
                        exec_time(start, ts, pid),
                    )
                    horizon = ts
                active = False
        self.active = active
        self.cb_type = cb_type
        self.cb_id = cb_id
        self.intopic = intopic
        self.outtopics = outtopics
        self.is_sync = is_sync
        self.start = start
        if horizon != self.horizon:
            self.horizon = horizon
            self.sched_rows = sched_index.rows_through(pid, horizon)
        walked = len(codes)
        self.pos = pos + walked
        return walked


def _extract_pid_walk(
    pid: int,
    timestamps: Sequence[int],
    codes: Sequence[int],
    aux: Sequence[object],
    sched_index: SchedIndex,
    index: EventIndex,
    node_name: str,
) -> CBList:
    """Alg. 1 for one PID's walk columns in one go: an empty
    :class:`PidWalk` resumed from row 0, sharing ``index``'s caller
    cursors with every other PID extracted through the same
    ``index``."""
    walk = PidWalk(pid, node_name)
    walk.cursors = index._caller_cursor
    walk.resume(timestamps, codes, aux, sched_index, index)
    return walk.cblist


def resume_walks(
    index: TraceIndex, wanted: Sequence[int], walks: Dict[int, PidWalk]
) -> Tuple[int, int]:
    """Bring the per-PID Alg. 1 walks in ``walks`` up to date with
    ``index``: a PID without a walk, or whose walk is no longer
    :meth:`PidWalk.is_current`, walks from row 0; every other PID
    resumes over its walk rows appended since.  Returns ``(rows walked,
    re-walked PIDs)``.

    Every piece of mutable extraction state lives in the PID's own walk,
    the FIFO caller cursors included, so walks of disjoint PID shards
    are exactly the walks of one serial pass.
    """
    lookups = EventIndex(index)
    pid_map = index.pid_map
    sched = index.sched
    rows = rewalks = 0
    for pid in wanted:
        node_name = pid_map.get(pid, "")
        walk = walks.get(pid)
        if walk is not None and not walk.is_current(node_name, sched, lookups):
            walk = None
            rewalks += 1
        if walk is None:
            walk = walks[pid] = PidWalk(pid, node_name)
        timestamps, codes, aux = index.walk_for_pid(pid)
        rows += walk.resume(timestamps, codes, aux, sched, lookups)
    return rows, rewalks


def _cblists_from_index(index: TraceIndex, wanted: Sequence[int]) -> List[CBList]:
    """Alg. 1 per ``wanted`` PID over a built index's walk columns:
    every walk resumed once from an empty state."""
    walks: Dict[int, PidWalk] = {}
    resume_walks(index, wanted, walks)
    return [walks[pid].cblist for pid in wanted]


def extract_callbacks(
    pid: int,
    ros_events: Sequence[TraceEvent],
    sched_index: SchedIndex,
    node_name: str = "",
) -> CBList:
    """Alg. 1 for one ROS2 node.

    Parameters
    ----------
    pid:
        PID of the node's executor thread.
    ros_events:
        All ROS2 events of the trace (the algorithm walks the PID's
        rows, but FindCaller / FindClient need the full stream).
    sched_index:
        Indexed ``sched_switch`` events for Alg. 2.
    node_name:
        Name from the ROS2-INIT trace (cosmetic; PIDs are the identity).
    """
    index = TraceIndex(ros_events, wanted_pids=(pid,))
    timestamps, codes, aux = index.walk_for_pid(pid)
    walk = PidWalk(pid, node_name)
    walk.resume(timestamps, codes, aux, sched_index, EventIndex(index))
    return walk.cblist


def extract_all(trace: Trace, pids: Optional[Iterable[int]] = None) -> List[CBList]:
    """Run Alg. 1 for every (or the given) node PIDs of a trace: one
    :class:`TraceIndex` pass, then one :class:`PidWalk` per PID."""
    wanted = sorted(pids) if pids is not None else trace.pids()
    index = TraceIndex.from_trace(trace, wanted_pids=wanted)
    return _cblists_from_index(index, wanted)
