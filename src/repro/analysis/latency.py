"""End-to-end latency and waiting-time measurement from traces.

Implements the extensions sketched in the paper's Sec. VII:

* **Data-flow latency** -- the framework logs source timestamps on both
  the publisher (P16) and subscriber (P6) side, so a datum can be
  followed through a computation chain: each hop matches a ``dds_write``
  to the ``take`` with the same (topic, srcTS), then follows the
  consuming callback instance to its next write.  The end-to-end latency
  of a chain instance is the time from the initial write to the end of
  the final callback.
* **Waiting time** -- with ``sched_wakeup`` recording enabled
  (``TracingSession(record_wakeups=True)``), the time between a node
  thread's wakeup and the start of the dispatched callback.

All three analyses run off one :class:`LatencyIndex`, built in a single
pass over a chronological row stream ``(ts, pid, code, payload)`` --
the fields Alg. 1's :class:`~repro.core.index.TraceIndex` consumes --
either zipped from an in-memory :class:`~repro.tracing.session.Trace`'s
columns (:func:`~repro.core.index.event_columns`,
:meth:`LatencyIndex.from_trace`) or streamed straight from stored
segments without materializing a trace
(:func:`repro.analysis.store.latency_index_from_store`).  The row codes
are the integer probe codes of :mod:`repro.core.index`; ``payload`` is
only dereferenced for take (P6) and ``dds_write`` (P16) rows.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from heapq import merge as _heap_merge
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE,
    TopicKey,
    event_columns,
)
from ..tracing.session import Trace

_first = itemgetter(0)
#: (ts, pid) of a SchedWakeup.
_WAKEUP_FIELDS = itemgetter(0, 2)

#: One hop record: (ts, topic, src_ts) of a dds_write, or (ts, src_ts)
#: in the per-topic views.
_WriteRow = Tuple[int, Optional[str], Optional[int]]


@dataclass(frozen=True)
class ChainLatency:
    """One traced journey of a datum through a topic chain."""

    start_ts: int  # initial dds_write
    end_ts: int  # end of the final consuming callback
    hops: int

    @property
    def latency_ns(self) -> int:
        return self.end_ts - self.start_ts


class LatencyIndex:
    """Single-pass lookup structures behind the latency analyses.

    Consumes any chronological ``(ts, pid, code, payload)`` row stream
    plus an optional ``(ts, pid)`` wakeup stream, and indexes:

    * per-PID callback-instance windows (CB start/end pairs), defensively
      sorted by start so an unsorted input cannot silently break the
      bisect lookup;
    * per-PID and per-topic ``dds_write`` rows (a PID's writes are
      bisected by timestamp unless they arrived out of order);
    * ``take`` rows keyed by the paper's (topic, srcTS) correlation key
      and grouped per topic -- all in stream order, so results are
      byte-identical to scanning the merged in-memory trace.

    The index grows: :meth:`extend` consumes the next part of the same
    stream (a CB start left open at the end of one part pairs with its
    end in the next), so building from a stream in parts equals building
    from it at once.  The constructor is an empty index plus one
    ``extend``.
    """

    __slots__ = (
        "_windows",
        "_starts",
        "_writes",
        "_unsorted_writes",
        "_writes_by_topic",
        "_takes_by_key",
        "_takes_by_topic",
        "_cb_starts",
        "_wakeups",
        "_open_start",
    )

    def __init__(
        self,
        rows: Iterable[Tuple[int, int, int, Optional[dict]]],
        wakeups: Iterable[Tuple[int, int]] = (),
    ):
        self._windows: Dict[int, List[Tuple[int, int]]] = {}
        #: per-PID window start arrays, kept in step with the windows --
        #: lookups are a plain int bisect, never a per-call list rebuild.
        self._starts: Dict[int, List[int]] = {}
        self._writes: Dict[int, List[_WriteRow]] = {}
        #: PIDs whose writes are not in timestamp order (scanned, not
        #: bisected, by :meth:`writes_in`).
        self._unsorted_writes: set = set()
        self._writes_by_topic: Dict[Optional[str], List[Tuple[int, Optional[int]]]] = {}
        self._takes_by_key: Dict[TopicKey, List[Tuple[int, int]]] = {}
        self._takes_by_topic: Dict[Optional[str], List[Tuple[int, Optional[int]]]] = {}
        self._cb_starts: Dict[int, List[int]] = {}
        self._wakeups: Dict[int, List[int]] = {}
        #: CB starts still waiting for their end, across extends.
        self._open_start: Dict[int, int] = {}
        self.extend(rows, wakeups)

    def extend(
        self,
        rows: Iterable[Tuple[int, int, int, Optional[dict]]],
        wakeups: Iterable[Tuple[int, int]] = (),
    ) -> None:
        """Consume the next part of the row stream, plus its wakeups.

        ``rows`` must continue the stream consumed so far.  ``wakeups``
        need not: a part's wakeups that start before a PID's existing
        tail are merged in by timestamp.
        """
        open_start = self._open_start
        windows = self._windows
        starts = self._starts
        writes = self._writes
        unsorted_writes = self._unsorted_writes
        cb_starts = self._cb_starts
        writes_by_topic = self._writes_by_topic
        takes_by_key = self._takes_by_key
        takes_by_topic = self._takes_by_topic
        unsorted_windows = set()
        for ts, pid, code, payload in rows:
            if code == CODE_CB_START:
                open_start[pid] = ts
                cb_starts.setdefault(pid, []).append(ts)
            elif code == CODE_CB_END:
                start = open_start.pop(pid, None)
                if start is not None:
                    pid_starts = starts.get(pid)
                    if pid_starts is None:
                        windows[pid] = [(start, ts)]
                        starts[pid] = [start]
                    else:
                        if start < pid_starts[-1]:
                            unsorted_windows.add(pid)
                        windows[pid].append((start, ts))
                        pid_starts.append(start)
            elif code == CODE_DDS_WRITE:
                topic = payload.get("topic")
                src_ts = payload.get("src_ts")
                pid_writes = writes.setdefault(pid, [])
                if pid_writes and ts < pid_writes[-1][0]:
                    unsorted_writes.add(pid)
                pid_writes.append((ts, topic, src_ts))
                writes_by_topic.setdefault(topic, []).append((ts, src_ts))
            elif code == CODE_TAKE:
                topic = payload.get("topic")
                src_ts = payload.get("src_ts")
                takes_by_key.setdefault((topic, src_ts), []).append((ts, pid))
                takes_by_topic.setdefault(topic, []).append((ts, src_ts))
        # Earlier parts left each PID's windows sorted, so a stable sort
        # of (sorted prefix + new tail) equals the stable sort of the
        # whole stream's windows.
        for pid in unsorted_windows:
            windows[pid].sort(key=_first)
            starts[pid] = [window[0] for window in windows[pid]]
        self._extend_wakeups(wakeups)

    def _extend_wakeups(self, wakeups: Iterable[Tuple[int, int]]) -> None:
        """Per-PID append, or a 2-way timestamp merge when the new part
        starts before the existing tail (the fold of which equals the
        batch merge of every part's wakeups)."""
        local: Dict[int, List[int]] = {}
        for ts, pid in wakeups:
            local.setdefault(pid, []).append(ts)
        for pid, stamps in local.items():
            existing = self._wakeups.get(pid)
            if existing is None:
                self._wakeups[pid] = stamps
            elif stamps[0] >= existing[-1]:
                existing.extend(stamps)
            else:
                self._wakeups[pid] = list(_heap_merge(existing, stamps))

    @classmethod
    def from_trace(cls, trace: Trace) -> "LatencyIndex":
        return cls(
            zip(*event_columns(trace.ros_events)),
            map(_WAKEUP_FIELDS, trace.wakeup_events),
        )

    # -- lookups -----------------------------------------------------------

    def window_containing(self, pid: int, ts: int) -> Optional[Tuple[int, int]]:
        """The latest-starting callback window of ``pid`` containing
        ``ts`` (None when ``ts`` falls outside it)."""
        starts = self._starts.get(pid)
        if not starts:
            return None
        i = bisect.bisect_right(starts, ts) - 1
        if i >= 0:
            window = self._windows[pid][i]
            if window[0] <= ts <= window[1]:
                return window
        return None

    def writes_in(
        self, pid: int, window: Tuple[int, int], topic: str
    ) -> List[Tuple[int, Optional[int]]]:
        """(ts, src_ts) of the PID's writes on ``topic`` inside
        ``window``, in stream order: a bisect over the PID's writes, or
        a scan when they are out of timestamp order."""
        start, end = window
        writes = self._writes.get(pid, ())
        if pid in self._unsorted_writes:
            return [
                (ts, src_ts)
                for ts, write_topic, src_ts in writes
                if start <= ts <= end and write_topic == topic
            ]
        return [
            (ts, src_ts)
            for ts, write_topic, src_ts in writes[
                bisect.bisect_left(writes, start, key=_first):
                bisect.bisect_right(writes, end, key=_first)
            ]
            if write_topic == topic
        ]

    def writes_on(self, topic: str) -> List[Tuple[int, Optional[int]]]:
        """(ts, src_ts) of every write on ``topic``, in stream order."""
        return self._writes_by_topic.get(topic, [])

    def takes_for(
        self, topic: str, src_ts: Optional[int]
    ) -> List[Tuple[int, int]]:
        """(ts, pid) of the takes matching one (topic, srcTS) key."""
        return self._takes_by_key.get((topic, src_ts), [])

    def takes_on(self, topic: str) -> List[Tuple[int, Optional[int]]]:
        """(ts, src_ts) of every take on ``topic``, in stream order."""
        return self._takes_by_topic.get(topic, [])

    def cb_starts(self, pid: int) -> List[int]:
        """Start timestamps of the PID's callback instances."""
        return self._cb_starts.get(pid, [])

    def wakeups(self, pid: int) -> List[int]:
        """``sched_wakeup`` timestamps of the PID's thread."""
        return self._wakeups.get(pid, [])


def chain_latencies(
    index: LatencyIndex,
    topics: Sequence[str],
    max_instances: Optional[int] = None,
) -> List[ChainLatency]:
    """Follow data through ``topics`` (in order) over a built index.

    ``topics[0]`` is the chain's entry topic; each subsequent topic must
    be published from within the callback consuming the previous one.
    Incomplete journeys (data dropped by QoS, run boundary) are skipped.
    """
    if not topics:
        raise ValueError("need at least one topic")
    latencies: List[ChainLatency] = []
    for write_ts, src_ts in index.writes_on(topics[0]):
        if max_instances is not None and len(latencies) >= max_instances:
            break
        journey_end = _follow(src_ts, topics, 0, index)
        if journey_end is not None:
            latencies.append(
                ChainLatency(start_ts=write_ts, end_ts=journey_end, hops=len(topics))
            )
    return latencies


def measure_chain_latencies(
    trace: Trace, topics: Sequence[str], max_instances: Optional[int] = None
) -> List[ChainLatency]:
    """In-memory front end of :func:`chain_latencies`."""
    return chain_latencies(LatencyIndex.from_trace(trace), topics, max_instances)


def _follow(
    src_ts: Optional[int],
    topics: Sequence[str],
    hop: int,
    index: LatencyIndex,
) -> Optional[int]:
    """Recursive hop: find the take for this write, then the next write
    inside the consuming instance.  Returns the final instance end ts."""
    for take_ts, take_pid in index.takes_for(topics[hop], src_ts):
        window = index.window_containing(take_pid, take_ts)
        if window is None:
            continue
        if hop == len(topics) - 1:
            return window[1]
        for _, next_src_ts in index.writes_in(take_pid, window, topics[hop + 1]):
            result = _follow(next_src_ts, topics, hop + 1, index)
            if result is not None:
                return result
    return None


@dataclass(frozen=True)
class WaitingTime:
    """Wakeup-to-dispatch interval for one callback instance."""

    pid: int
    wakeup_ts: int
    start_ts: int

    @property
    def waiting_ns(self) -> int:
        return self.start_ts - self.wakeup_ts


def waiting_times(index: LatencyIndex, pid: int) -> List[WaitingTime]:
    """Waiting time of each callback instance of a node (Sec. VII).

    Pairs each CB-start event with the most recent preceding
    ``sched_wakeup`` of the node's thread.  Requires the trace to have
    been collected with ``record_wakeups=True``.
    """
    wakeups = index.wakeups(pid)
    if not wakeups:
        return []
    result: List[WaitingTime] = []
    for start_ts in index.cb_starts(pid):
        i = bisect.bisect_right(wakeups, start_ts) - 1
        if i >= 0:
            result.append(
                WaitingTime(pid=pid, wakeup_ts=wakeups[i], start_ts=start_ts)
            )
    return result


def measure_waiting_times(trace: Trace, pid: int) -> List[WaitingTime]:
    """In-memory front end of :func:`waiting_times`."""
    return waiting_times(LatencyIndex.from_trace(trace), pid)


def topic_latencies(index: LatencyIndex, topic: str) -> List[int]:
    """Per-sample DDS latency on one topic: take.ts - write src_ts."""
    written = {src_ts for _, src_ts in index.writes_on(topic)}
    return [
        ts - src_ts
        for ts, src_ts in index.takes_on(topic)
        if src_ts in written
    ]


def communication_latencies(trace: Trace, topic: str) -> List[int]:
    """In-memory front end of :func:`topic_latencies`."""
    return topic_latencies(LatencyIndex.from_trace(trace), topic)
