"""Columnar trace indexing: the ``TraceIndex`` layer.

Everything downstream of a trace -- Alg. 1 extraction, the cross-node
:class:`~repro.core.extraction.EventIndex` lookups, Alg. 2 exec-time
queries -- needs the same things: each PID's ROS rows in chronological
order, the cross-node association tables, and ``sched_switch`` events
bucketed per PID.  The paper's tracer emits fixed-layout records that
user space decodes, so the index consumes *rows*, not event objects:
``(ts, order, row, pid, code, aux)``, where ``code`` is the integer
probe code below and ``aux`` is the CB-type label of a CB-start row and
the payload mapping of the ID-carrying rows.

:class:`TraceIndex` is **one resumable row consumer**.  A single pass
over the chronological stream builds

* per-PID *walk columns* -- parallel timestamp / code / aux columns
  that :class:`~repro.core.extraction.PidWalk` walks (code-0 rows are
  no-ops to Alg. 1 and never enter them);
* the cross-node tables (dds_write -> active writer CB, take_response
  -> dispatch flag), keyed by a row's *position* in the stream.
  Positions count every row, code-0 rows included.

The consumer's state persists between calls, so the in-memory pipeline
(:meth:`TraceIndex.from_trace`: one call over the rows
:func:`event_columns` maps out of the event objects) and the store path
(:class:`~repro.store.index.StoreTraceIndex`: one call per stored run)
build the same structures by construction.  An unsorted in-memory
stream is stable-sorted once by ``ts`` first; ``sched_switch`` events
go into the columnar :class:`~repro.core.exec_time.SchedIndex`, shared
by every per-PID extraction.  The golden digests in
``tests/test_perf_equivalence.py`` pin the DAG JSON, exec tables and
DOT exports built on this index.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import itemgetter, le
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tracing.events import (
    CB_END_PROBES,
    CB_START_PROBES,
    CB_TYPE_BY_START,
    P3_TIMER_CALL,
    P6_TAKE,
    P7_SYNC_OP,
    P10_TAKE_REQUEST,
    P13_TAKE_RESPONSE,
    P14_TAKE_TYPE_ERASED,
    P16_DDS_WRITE,
    TraceEvent,
)
from .exec_time import SchedIndex

#: (topic, source timestamp) -- the paper's cross-node correlation key.
TopicKey = Tuple[Optional[str], Optional[int]]

# Integer probe codes: computed once per event during the indexing pass
# and stored alongside each per-PID view, so the Alg. 1 walk dispatches
# on a small int instead of re-testing probe-name membership per event.
CODE_OTHER = 0
CODE_CB_START = 1
CODE_TIMER_CALL = 2
CODE_TAKE = 3
CODE_TAKE_REQUEST = 4
CODE_TAKE_RESPONSE = 5
CODE_DDS_WRITE = 6
CODE_TAKE_TYPE_ERASED = 7
CODE_SYNC_OP = 8
CODE_CB_END = 9

PROBE_CODES: Dict[str, int] = {p: CODE_CB_START for p in CB_START_PROBES}
PROBE_CODES.update({p: CODE_CB_END for p in CB_END_PROBES})
PROBE_CODES[P3_TIMER_CALL] = CODE_TIMER_CALL
PROBE_CODES[P6_TAKE] = CODE_TAKE
PROBE_CODES[P10_TAKE_REQUEST] = CODE_TAKE_REQUEST
PROBE_CODES[P13_TAKE_RESPONSE] = CODE_TAKE_RESPONSE
PROBE_CODES[P16_DDS_WRITE] = CODE_DDS_WRITE
PROBE_CODES[P14_TAKE_TYPE_ERASED] = CODE_TAKE_TYPE_ERASED
PROBE_CODES[P7_SYNC_OP] = CODE_SYNC_OP

#: Codes whose payload Alg. 1 (or the cross-node table build)
#: dereferences.  They are contiguous -- ``CODE_TIMER_CALL <= code <=
#: CODE_TAKE_TYPE_ERASED`` is the hot-path test -- so a columnar walk
#: can skip payload JSON decode for every other row.
PAYLOAD_CODES = frozenset(
    {
        CODE_TIMER_CALL,
        CODE_TAKE,
        CODE_TAKE_REQUEST,
        CODE_TAKE_RESPONSE,
        CODE_DDS_WRITE,
        CODE_TAKE_TYPE_ERASED,
    }
)


def probe_code_table(strings: Sequence[str]) -> bytearray:
    """Probe code per string-table id (``CODE_OTHER`` for non-probes).

    A stored segment references probe names by string id, so resolving
    the code once per *table entry* replaces a per-event dict lookup on
    the probe string with a bytearray index on the stored id.
    """
    code_of = PROBE_CODES.get
    return bytearray(code_of(text, CODE_OTHER) for text in strings)


def probe_code_lut(code_table: Sequence[int]):
    """The per-string-id code table as a numpy ``uint8`` lookup array
    (``None`` without numpy): one fancy-index turns a segment's whole
    probe-id column into per-row codes, replacing the per-row
    ``codes[string_id]`` byte index of the scalar walk with a single
    vectorized gather (see ``store.index.StoreTraceIndex``)."""
    from . import npcompat

    if npcompat.np is None:
        return None
    return npcompat.np.frombuffer(bytes(code_table), dtype=npcompat.np.uint8)


def cb_start_type_table(strings: Sequence[str]) -> List[Optional[str]]:
    """Callback-type label per string-table id (None for non-start
    probes) -- the columnar counterpart of :meth:`TraceEvent.cb_type`."""
    return [CB_TYPE_BY_START.get(text) for text in strings]


# TraceEvent is a NamedTuple: ts=0, pid=1, probe=2, data=3.
_TS = itemgetter(0)
_PID = itemgetter(1)
_PROBE = itemgetter(2)
_DATA = itemgetter(3)


def is_sorted_by_ts(events: Sequence[Any]) -> bool:
    """O(N) monotonicity check backing the single-sort invariant."""
    stamps = list(map(_TS, events))
    return all(map(le, stamps, islice(stamps, 1, None)))


def event_columns(events: Sequence[TraceEvent]) -> Tuple[Iterator, ...]:
    """An in-memory ROS stream as ``(ts, pid, code, aux)`` column
    iterators, in the given order.

    Per-field maps at C level -- no per-event Python frame.  ``aux`` is
    the CB-type label of a CB-start row and the event's payload mapping
    otherwise (``dict.get`` with the payload as its default picks
    between them).
    """
    probes = list(map(_PROBE, events))
    return (
        map(_TS, events),
        map(_PID, events),
        map(PROBE_CODES.get, probes, repeat(CODE_OTHER)),
        map(CB_TYPE_BY_START.get, probes, map(_DATA, events)),
    )


#: One PID's walk columns: timestamps, probe codes, and the per-row aux
#: slot -- parallel sequences consumed by
#: :class:`~repro.core.extraction.PidWalk`.
WalkColumns = Tuple[List[int], bytearray, List[Any]]

_EMPTY_WALK: WalkColumns = ([], bytearray(), [])


class TraceIndex:
    """Alg. 1 lookup structures over a chronological row stream.

    Parameters
    ----------
    ros_events:
        An in-memory ROS event stream, in any order (stable-sorted by
        ``ts`` at most once).
    sched_events:
        The trace's ``sched_switch`` stream; indexed columnar per PID.
    pid_map:
        TR-IN's PID -> node-name discovery, carried through for
        extraction.
    wanted_pids:
        PIDs whose walk columns to build; the cross-node tables always
        cover the full stream -- FindCaller/FindClient reach across
        PIDs by design.  ``None`` builds every PID.

    Attributes
    ----------
    writes:
        (topic, src_ts) -> [(position, dds_write payload)], FIFO order.
    writer_cb:
        dds_write position -> CB id active in the writer at write time.
    take_responses:
        (topic, src_ts) -> [(position, take_response payload)].
    dispatch_after:
        take_response position -> will_dispatch of the next P14 in the
        same PID (absent while no P14 has followed).
    """

    __slots__ = (
        "pid_map",
        "sched",
        "_by_pid",
        "writes",
        "writer_cb",
        "take_responses",
        "dispatch_after",
        "_wanted",
        "_current_cb",
        "_pending_p13",
        "_appenders",
        "_next_index",
    )

    def __init__(
        self,
        ros_events: Sequence[TraceEvent] = (),
        sched_events: Iterable[Any] = (),
        pid_map: Optional[Dict[int, Optional[str]]] = None,
        wanted_pids: Optional[Iterable[int]] = None,
    ):
        self.pid_map: Dict[int, Optional[str]] = dict(pid_map) if pid_map else {}
        self.sched = SchedIndex(sched_events)
        self._by_pid: Dict[int, WalkColumns] = {}
        self.writes: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        self.writer_cb: Dict[int, Optional[str]] = {}
        self.take_responses: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        self.dispatch_after: Dict[int, bool] = {}
        self._wanted = None if wanted_pids is None else frozenset(wanted_pids)
        # The association state machine's mutable state, persisted
        # between consumed parts of the stream.
        self._current_cb: Dict[int, Optional[str]] = {}
        self._pending_p13: Dict[int, List[int]] = {}
        #: pid -> bound (ts, code, aux) append methods of the pid's walk
        #: columns, so the per-row hot loop skips attribute lookups.
        self._appenders: Dict[int, tuple] = {}
        #: position of the next row in the stream.
        self._next_index = 0
        if ros_events:
            if not is_sorted_by_ts(ros_events):
                ros_events = sorted(ros_events, key=_TS)
            timestamps, pids, codes, aux = event_columns(ros_events)
            self._consume_rows(
                zip(timestamps, repeat(0), range(len(ros_events)), pids, codes, aux)
            )

    @classmethod
    def from_trace(
        cls, trace: Any, wanted_pids: Optional[Iterable[int]] = None
    ) -> "TraceIndex":
        """Index a :class:`~repro.tracing.session.Trace`."""
        return cls(
            trace.ros_events,
            trace.sched_events,
            pid_map=trace.pid_map,
            wanted_pids=wanted_pids,
        )

    def _consume_rows(self, rows: Iterable[tuple]) -> None:
        """The association state machine over ``(ts, order, row, pid,
        code, aux)`` walk rows, continuing the stream consumed so far."""
        index = self._next_index
        current_cb = self._current_cb
        pending_p13 = self._pending_p13
        appenders = self._appenders
        by_pid = self._by_pid
        wanted = self._wanted
        writes = self.writes
        writer_cb = self.writer_cb
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        all_wanted = wanted is None
        for ts, _order, _row, pid, code, aux in rows:
            if code and (all_wanted or pid in wanted):
                # code-0 rows are no-ops to the Alg. 1 walk and never
                # enter walk columns.
                try:
                    append_ts, append_code, append_aux = appenders[pid]
                except KeyError:
                    # First row of the PID in this consumer: reuse
                    # columns another consumer may already have created.
                    walk = by_pid.get(pid)
                    if walk is None:
                        walk = by_pid[pid] = ([], bytearray(), [])
                    append_ts, append_code, append_aux = appenders[pid] = (
                        walk[0].append, walk[1].append, walk[2].append,
                    )
                append_ts(ts)
                append_code(code)
                append_aux(aux)
            if code >= CODE_TIMER_CALL:
                if code <= CODE_TAKE_RESPONSE:
                    current_cb[pid] = aux.get("cb_id")
                    if code == CODE_TAKE_RESPONSE:
                        pending_p13.setdefault(pid, []).append(index)
                        key = (aux.get("topic"), aux.get("src_ts"))
                        take_responses.setdefault(key, []).append((index, aux))
                elif code == CODE_DDS_WRITE:
                    writer_cb[index] = current_cb.get(pid)
                    key = (aux.get("topic"), aux.get("src_ts"))
                    writes.setdefault(key, []).append((index, aux))
                elif code == CODE_TAKE_TYPE_ERASED:
                    will_dispatch = bool(aux.get("will_dispatch"))
                    for p13_index in pending_p13.pop(pid, ()):
                        dispatch_after[p13_index] = will_dispatch
            elif code == CODE_CB_START:
                current_cb[pid] = None
            index += 1
        self._next_index = index

    # -- views -------------------------------------------------------------

    def pids(self) -> List[int]:
        """PIDs with walk columns (the wanted subset), ascending."""
        return sorted(self._by_pid)

    def walk_for_pid(self, pid: int) -> WalkColumns:
        """The PID's parallel (timestamps, codes, aux) walk columns, in
        chronological order (shared view -- callers must not mutate)."""
        return self._by_pid.get(pid, _EMPTY_WALK)

    def __len__(self) -> int:
        """Rows consumed so far, code-0 rows included."""
        return self._next_index
