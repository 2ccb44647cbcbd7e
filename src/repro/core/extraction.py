"""Alg. 1: extract callback attributes for each ROS2 node from traces.

The algorithm exploits the single-threaded executor model: within one
PID, every event between a CB-start and the next CB-end describes one
execution of one callback.  It walks the node's ROS2 events in
chronological order, assembling :class:`CallbackInstance` objects and
folding them into a :class:`CBList`.

All lookup structures come from the single-pass
:class:`~repro.core.index.TraceIndex`: per-PID chronological event
views (no per-PID re-sort of the full stream), the columnar
:class:`~repro.core.exec_time.SchedIndex`, and the cross-node
association tables, which key by an event's *position* in the sorted
stream rather than by ``id(event)``.

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

Two walks implement the state machine: :func:`_extract_pid_events`
over event objects (the in-memory pipeline) and :class:`PidWalk` over
store walk columns.  ``PidWalk`` is resumable -- its whole state
persists between calls -- so the store's batch synthesis (one resume of
an empty walk) and the live service (one resume per model over the
rows appended since) share it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..tracing.events import TraceEvent
from ..tracing.session import Trace
from .exec_time import SchedIndex
from .index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_OTHER,
    CODE_SYNC_OP,
    CODE_TAKE,
    CODE_TAKE_REQUEST,
    CODE_TAKE_RESPONSE,
    CODE_TAKE_TYPE_ERASED,
    CODE_TIMER_CALL,
    ID_EVENT_PROBES,
    PROBE_CODES,
    TopicKey,
    TraceIndex,
)
from .records import CBList

#: Separator used when qualifying a service topic with a CB id.
TOPIC_ID_SEPARATOR = "#"

#: Backwards-compatible alias (the set now lives in repro.core.index).
_ID_EVENT_PROBES = ID_EVENT_PROBES


def cat(topic: str, cb_id: Optional[str]) -> str:
    """The paper's topic-name concatenation (unknown ids stay visible)."""
    return f"{topic}{TOPIC_ID_SEPARATOR}{cb_id if cb_id is not None else '?'}"


class EventIndex:
    """Cross-node lookups over a :class:`TraceIndex`'s association tables.

    The tables are immutable for a given stream prefix; the FIFO caller
    cursors belong to whoever walks (a :class:`PidWalk` keeps its own).
    :meth:`find_caller` uses this object's cursor dict, so two
    ``EventIndex`` objects over the same ``TraceIndex`` never observe
    each other's state.

    The ``*_match`` lookups also report *finality*: whether rows
    appended to the stream later could change the match.  A store
    index grows only by appending (writes and take_responses of a key
    append, a take's dispatch flag is set once), so a final match stays
    the match a from-scratch walk would find.
    """

    def __init__(
        self,
        ros_events: Optional[Sequence[TraceEvent]] = None,
        trace_index: Optional[TraceIndex] = None,
    ):
        if trace_index is None:
            if ros_events is None:
                raise ValueError("need ros_events or a trace_index")
            trace_index = TraceIndex(ros_events)
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
            for index, event in self._index.writes.get(key, ())
            if event.get("kind") == "request"
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

    def find_caller(self, take_request_event: TraceEvent) -> Optional[str]:
        """ID of the caller CB that produced this service request.

        When several writes share (topic, src_ts) -- periodic callers
        phase-aligning on the simulator's discrete clock -- successive
        lookups consume successive writes, preserving FIFO order.
        """
        key = (take_request_event.get("topic"), take_request_event.get("src_ts"))
        cursor = self._caller_cursor.get(key, 0)
        at, caller, _final = self.caller_match(key, cursor)
        if at is not None:
            self._caller_cursor[key] = cursor + 1
        return caller

    def find_client(self, write_event: TraceEvent) -> Optional[str]:
        """ID of the client CB that will dispatch this service response."""
        key = (write_event.get("topic"), write_event.get("src_ts"))
        return self.client_match(key)[1]


def _extract_pid_events(
    pid: int,
    events: Sequence[TraceEvent],
    codes: Sequence[int],
    sched_index: SchedIndex,
    index: EventIndex,
    node_name: str,
) -> CBList:
    """Alg. 1's per-node walk over the PID's chronological events.

    ``codes`` holds the pre-computed probe code per event (parallel to
    ``events``, from :meth:`TraceIndex.walk_for_pid`): the walk branches
    on one small int per event instead of repeated probe-name tests.
    """
    cblist = CBList(pid, node_name)
    add_values = cblist.add_values
    exec_time = sched_index.exec_time
    # Instance state in locals (no CallbackInstance allocation per
    # execution): ``active`` mirrors "instance is not None".
    active = False
    cb_type = ""
    cb_id: Optional[str] = None
    intopic: Optional[str] = None
    outtopics: Optional[List[str]] = None
    is_sync = False
    start = 0
    for event, code in zip(events, codes):
        if code == CODE_CB_START:
            active = True
            cb_type = event.cb_type()
            start = event[0]  # NamedTuple: ts
            cb_id = None
            intopic = None
            outtopics = None
            is_sync = False
        elif not active:
            # Only the P14 no-dispatch probe acts outside an instance,
            # and it is a no-op when there is nothing to drop.
            continue
        elif code == CODE_TIMER_CALL:
            cb_id = event[3].get("cb_id")
        elif code == CODE_TAKE:
            data = event[3]
            cb_id = data.get("cb_id")
            intopic = data.get("topic")
        elif code == CODE_TAKE_RESPONSE:
            data = event[3]
            cb_id = data.get("cb_id")
            intopic = cat(data.get("topic"), cb_id)
        elif code == CODE_TAKE_REQUEST:
            data = event[3]
            cb_id = data.get("cb_id")
            intopic = cat(data.get("topic"), index.find_caller(event))
        elif code == CODE_DDS_WRITE:
            data = event[3]
            kind = data.get("kind")
            if kind == "request":
                top_out = cat(data.get("topic"), cb_id)
            elif kind == "response":
                top_out = cat(data.get("topic"), index.find_client(event))
            else:
                top_out = data.get("topic")
            if outtopics is None:
                outtopics = [top_out]
            else:
                outtopics.append(top_out)
        elif code == CODE_TAKE_TYPE_ERASED:
            if not event[3].get("will_dispatch"):
                # Client CB will not dispatch here: drop the instance.
                active = False
        elif code == CODE_SYNC_OP:
            is_sync = True
        elif code == CODE_CB_END:
            if cb_id is not None:
                end = event[0]
                add_values(
                    cb_type,
                    cb_id,
                    intopic,
                    outtopics,
                    is_sync,
                    start,
                    end,
                    exec_time(start, end, pid),
                )
            active = False
    return cblist


class PidWalk:
    """One PID's resumable Alg. 1 walk over its walk columns.

    The state machine of :func:`_extract_pid_events`, consuming three
    parallel per-PID columns: timestamps, probe codes, and an ``aux``
    slot per row -- the callback-type label for CB-start rows, the
    decoded payload mapping for the ID-carrying rows Alg. 1
    dereferences (see :data:`~repro.core.index.PAYLOAD_CODES`), ``None``
    for everything else.  This is the store-backed path: rows never
    materialize a :class:`TraceEvent`.  The store consumers pre-drop
    ``CODE_OTHER`` rows when building these columns -- such rows are
    no-ops to this state machine.

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
    cursors (like :func:`_extract_pid_events`)."""
    walk = PidWalk(pid, node_name)
    walk.cursors = index._caller_cursor
    walk.resume(timestamps, codes, aux, sched_index, index)
    return walk.cblist


def extract_callbacks(
    pid: int,
    ros_events: Sequence[TraceEvent],
    sched_index: SchedIndex,
    node_name: str = "",
    event_index: Optional[EventIndex] = None,
    pid_events: Optional[Sequence[TraceEvent]] = None,
) -> CBList:
    """Alg. 1 for one ROS2 node.

    Parameters
    ----------
    pid:
        PID of the node's executor thread.
    ros_events:
        All ROS2 events of the trace (the algorithm filters by PID, but
        FindCaller / FindClient need the full stream).
    sched_index:
        Indexed ``sched_switch`` events for Alg. 2.
    node_name:
        Name from the ROS2-INIT trace (cosmetic; PIDs are the identity).
    event_index:
        Pre-built :class:`EventIndex`; built on demand when omitted.
    pid_events:
        The PID's chronological events, when the caller already holds a
        :class:`TraceIndex` view; derived from ``ros_events`` otherwise.
    """
    index = event_index if event_index is not None else EventIndex(ros_events)
    if pid_events is None:
        pid_events = sorted(
            (e for e in ros_events if e.pid == pid), key=lambda e: e.ts
        )
    code_of = PROBE_CODES.get
    codes = bytearray(code_of(e.probe, CODE_OTHER) for e in pid_events)
    return _extract_pid_events(pid, pid_events, codes, sched_index, index, node_name)


def extract_all(
    trace: Trace,
    pids: Optional[Iterable[int]] = None,
    trace_index: Optional[TraceIndex] = None,
) -> List[CBList]:
    """Run Alg. 1 for every (or the given) node PIDs of a trace.

    One :class:`TraceIndex` finalization pass replaces the per-PID
    filter-and-sort of the full stream; pass ``trace_index`` to reuse an
    index built elsewhere.
    """
    index = trace_index if trace_index is not None else TraceIndex.from_trace(trace)
    event_index = EventIndex(trace_index=index)
    wanted = sorted(pids) if pids is not None else trace.pids()
    cblists = []
    for pid in wanted:
        events, codes = index.walk_for_pid(pid)
        cblists.append(
            _extract_pid_events(
                pid,
                events,
                codes,
                index.sched,
                event_index,
                trace.pid_map.get(pid, ""),
            )
        )
    return cblists
