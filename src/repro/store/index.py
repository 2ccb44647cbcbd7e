"""Columnar Alg. 1 indexing straight over stored segments.

:class:`StoreTraceIndex` is :class:`~repro.core.index.TraceIndex` fed
from :class:`~repro.store.reader.SegmentReader` columns: the same
resumable row consumer builds the same per-PID walk columns and
cross-node association tables, and this subclass adds only what is
specific to readers -- consuming one run per :meth:`extend`, deciding
whether a run may append (:meth:`can_append`), the vectorized column
consumer for large segments, and the per-run ``sched_switch`` bucket
fold.  The batch constructor is just ``extend`` per reader, and the
live service keeps one index and extends it per arriving segment --
both build the same structures by construction.

What makes it cheap:

* probe codes resolve through a per-segment table keyed by the stored
  probe-string id (one bytearray index per row, no string hashing);
* payloads are touched only for the ID-carrying rows Alg. 1
  dereferences (publish / take / response keys --
  :data:`~repro.core.index.PAYLOAD_CODES`); CB start/end and kernel
  probe rows -- the bulk of a trace -- never construct an event object;
* large format-v2/v3 segments take the vectorized column consumer
  (numpy), whose ID rows resolve from the segment's typed per-field
  payload columns, bulk-decoded once per payload shape.  Every other
  run -- v1 segments, small segments, gzip-JSON runs, numpy gated off
  -- goes through the one scalar consumer over ``walk_rows``;
* time-disjoint runs concatenate; overlapping runs k-way merge on
  ``(ts, run, row)`` int prefixes (:func:`merged_walk_rows`), so ties
  keep run order (exactly like ``Trace.merge``) without a heap key
  function;
* ``sched_switch`` rows feed shard-local
  :class:`~repro.core.exec_time.SchedIndex` buckets built from three
  int columns -- only the ``wanted_pids`` a worker will actually query
  get buckets, so a sharded worker no longer indexes the full merged
  sched stream.

Equivalence with the in-memory pipeline is byte-exact and pinned by
``tests/test_store_synthesis.py``: all orderings are the stable
chronological merges ``Trace.merge`` produces, the row consumer is
shared, and bucket contents match because a PID's bucket in the merged
stream equals the stable ts-merge of its per-run buckets.
"""

from __future__ import annotations

from array import array
from heapq import merge as _heap_merge
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core import npcompat
from ..core.exec_time import _CLOSES, _OPENS, SchedIndex
from ..core.index import (
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE_RESPONSE,
    CODE_TAKE_TYPE_ERASED,
    CODE_TIMER_CALL,
    TraceIndex,
    probe_code_lut,
)
from .format import SHAPE_JSON

#: One PID's sched bucket: timestamps and open/close flags.
SchedBucket = Tuple[array, bytearray]


def _runs_are_time_ordered(readers: Sequence[Any]) -> bool:
    """True when the runs' ROS streams are time-disjoint in reader
    order, i.e. chronological merge == concatenation.  A shared
    boundary timestamp stays ordered: merge ties keep run order, which
    is concatenation order."""
    last: Optional[int] = None
    for reader in readers:
        span = reader.ros_ts_range()
        if span is None:
            continue
        if last is not None and span[0] < last:
            return False
        last = span[1]
    return True


def merged_walk_rows(readers: Sequence[Any]) -> Iterator[tuple]:
    """Chronological ``walk_rows`` over runs in run-id order.

    Time-disjoint runs (the common case: seeded batch runs stagger
    their clock bases) concatenate; overlapping runs k-way merge.  The
    ``(ts, order, row)`` int prefixes are unique, so plain tuple
    comparison merges chronologically with ties in run order and the
    aux slot is never compared -- the ``Trace.merge`` order either way.
    """
    streams = [reader.walk_rows(order) for order, reader in enumerate(readers)]
    if _runs_are_time_ordered(readers):
        return chain.from_iterable(streams)
    return _heap_merge(*streams)


def run_sched_buckets(
    reader: Any, wanted: Optional[frozenset]
) -> Dict[int, SchedBucket]:
    """One reader's per-PID ``(timestamps, flags)`` sched buckets.

    ``prev_pid`` closes (a self-switch ``next == prev`` closes *and*
    opens in one entry), ``next_pid`` alone opens; rows keep stream
    order.  With numpy, three boolean masks per PID over the whole int
    columns replace the per-row branches and select the same rows in
    the same order.  Only PIDs with entries get a bucket.
    """
    np = npcompat.np
    columns = getattr(reader, "sched_pid_columns", None)
    local: Dict[int, SchedBucket] = {}
    if np is None or columns is None:
        for ts, prev_pid, next_pid in reader.sched_pid_rows():
            if prev_pid != 0 and (wanted is None or prev_pid in wanted):
                bucket = local.get(prev_pid)
                if bucket is None:
                    bucket = local[prev_pid] = (array("q"), bytearray())
                bucket[0].append(ts)
                bucket[1].append(
                    _CLOSES | _OPENS if next_pid == prev_pid else _CLOSES
                )
            if (
                next_pid != 0
                and next_pid != prev_pid
                and (wanted is None or next_pid in wanted)
            ):
                bucket = local.get(next_pid)
                if bucket is None:
                    bucket = local[next_pid] = (array("q"), bytearray())
                bucket[0].append(ts)
                bucket[1].append(_OPENS)
        return local
    ts_col, prev_col, next_col = columns()
    ts_np = np.frombuffer(ts_col, dtype=np.int64)
    prev_np = np.frombuffer(prev_col, dtype=np.int32)
    next_np = np.frombuffer(next_col, dtype=np.int32)
    if wanted is None:
        pids = np.unique(np.concatenate((prev_np, next_np))).tolist()
    else:
        pids = sorted(wanted)
    both = _CLOSES | _OPENS
    for pid in pids:
        if pid == 0:
            continue
        closes = prev_np == pid
        rows = np.nonzero(closes | (next_np == pid))[0]
        if not len(rows):
            continue
        flags = np.where(
            closes[rows],
            np.where(next_np[rows] == pid, both, _CLOSES),
            _OPENS,
        ).astype(np.uint8)
        times = array("q")
        times.frombytes(ts_np[rows].tobytes())
        local[pid] = (times, bytearray(flags.tobytes()))
    return local


class StoreTraceIndex(TraceIndex):
    """Alg. 1 lookup structures built from stored segment columns.

    Parameters
    ----------
    readers:
        Segment readers in run-id order (the merge order), from
        :meth:`~repro.store.database.TraceStore.readers`; ``[]`` starts
        an empty index to grow with :meth:`extend`.
    wanted_pids:
        PIDs whose walk columns and sched buckets to build (a worker's
        shard); the cross-node tables always cover the full stream.
        ``None`` builds every PID (the serial path).
    """

    __slots__ = ("_last_ros_end", "_ordered", "_sched_buckets")

    def __init__(
        self,
        readers: Sequence[Any],
        wanted_pids: Optional[Iterable[int]] = None,
    ):
        super().__init__(wanted_pids=wanted_pids)
        #: ROS ts upper bound of the last extended run with any ROS
        #: events -- the rolling bound _runs_are_time_ordered tracks.
        self._last_ros_end: Optional[int] = None
        #: False once built over time-overlapping runs (heap-merged
        #: positions are not resumable, so the index cannot extend).
        self._ordered = True
        self._sched_buckets: Dict[int, SchedBucket] = {}
        self.sched = SchedIndex.from_buckets(self._sched_buckets)
        if _runs_are_time_ordered(readers):
            for reader in readers:
                self.extend(reader)
            return
        self._ordered = False
        self._consume_rows(merged_walk_rows(readers))
        for reader in readers:
            self.pid_map.update(reader.pid_map)
            self._fold_sched(reader)
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    # -- appending ---------------------------------------------------------

    def can_append(self, reader: Any) -> bool:
        """True when ``reader``'s stream may extend this index in place
        (the caller has already established run-id order): the index
        was never heap-merged, and the reader's ROS span starts at or
        after the last consumed span's end -- the incremental form of
        :func:`_runs_are_time_ordered` (a shared boundary timestamp
        stays appendable, merge ties keep run order)."""
        if not self._ordered:
            return False
        span = reader.ros_ts_range()
        if span is None or self._last_ros_end is None:
            return True
        return span[0] >= self._last_ros_end

    def extend(self, reader: Any) -> None:
        """Consume one more run as the next run of the merge order.

        Caller contract: ``can_append(reader)`` holds and the reader's
        run id sorts after every previously consumed run.
        """
        self.pid_map.update(reader.pid_map)
        if (
            npcompat.np is not None
            and getattr(reader, "walk_fastpath", None) is not None
            and reader.version >= 2
            and reader.num_ros_events >= npcompat.MIN_VECTOR_ROWS
        ):
            self._consume_columns_np(reader.walk_fastpath())
        else:
            self._consume_rows(reader.walk_rows(0))
        span = reader.ros_ts_range()
        if span is not None:
            self._last_ros_end = span[1]
        # The fold may append to bucket columns in place, which numpy
        # views cached by the previous SchedIndex (wide Alg. 2 windows)
        # would pin, so that view goes first.  from_buckets copies only
        # the dict (the columns are shared): a new view is O(pids).
        self.sched = None
        self._fold_sched(reader)
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    def _fold_sched(self, reader: Any) -> None:
        """Fold one reader's sched buckets into the index's: plain
        append when the arriving bucket starts at or after the existing
        tail (ties append after, matching merge tie order), else a
        stable 2-way timestamp merge.  The left fold equals the n-way
        stable merge of all per-reader buckets, i.e. the PID's bucket
        in the merged sched stream."""
        buckets = self._sched_buckets
        for pid, bucket in run_sched_buckets(reader, self._wanted).items():
            existing = buckets.get(pid)
            if existing is None:
                buckets[pid] = bucket
            elif bucket[0][0] >= existing[0][-1]:
                existing[0].extend(bucket[0])
                existing[1].extend(bucket[1])
            else:
                times = array("q")
                flags = bytearray()
                for ts, flag in _heap_merge(
                    zip(*existing), zip(*bucket), key=itemgetter(0)
                ):
                    times.append(ts)
                    flags.append(flag)
                buckets[pid] = (times, flags)

    # -- ROS stream: walk columns + cross-node tables ----------------------

    # _consume_columns_np is the vectorized form of the inherited
    # TraceIndex._consume_rows, for large v2/v3 segments; every other
    # run goes through the row consumer.  The store equivalence suites
    # pin both against the in-memory pipeline, under numpy and
    # REPRO_NO_NUMPY.

    def _consume_columns_np(self, columns: Tuple) -> None:
        """The vectorized consumer: per-row dispatch hoisted into
        whole-column numpy operations.

        Three precomputed code classes replace the row loop's per-row
        branches: the per-string-id code table becomes a ``uint8``
        lookup array, one gather yields every row's code, and boolean
        masks split the stream into walk rows (``code != 0`` -- code-0
        rows are no-ops to the Alg. 1 walk and are dropped, exactly like
        the row loop) and *interesting* rows (CB starts + the
        ID-carrying payload codes) that the association state machine
        must still see in order.  Aux values resolve in bulk, one
        ``map`` per referenced payload shape, into a whole-column object
        array; walk columns then build per PID with bulk ``.tolist()``
        / ``.tobytes()`` extraction (Python ints, so downstream
        byte-identity is untouched); and the sequential state machine --
        reduced to the association-table bookkeeping only -- runs over
        just the interesting rows with every aux already in hand."""
        np = npcompat.np
        (
            ts_col, pid_col, probe_col, shape_col, vidx_col,
            codes, start_types, shapes, json_payload,
        ) = columns
        index = self._next_index
        current_cb = self._current_cb
        pending_p13 = self._pending_p13
        wanted = self._wanted
        probe_np = np.frombuffer(probe_col, dtype=np.uint32)
        lut = probe_code_lut(codes)
        row_codes = lut[probe_np]
        pid_np = np.frombuffer(pid_col, dtype=np.int32)
        ts_np = np.frombuffer(ts_col, dtype=np.int64)
        n = len(probe_np)
        by_pid = self._by_pid
        all_wanted = wanted is None
        n_shapes = len(shapes)

        #: per-row aux value (``None``-initialized): payload dicts for
        #: the ID-carrying codes, CB-type labels for CB starts.
        aux_row = np.empty(n, dtype=object)

        def assign(rows, values: List) -> None:
            # Elementwise object assignment: staging through an object
            # array keeps numpy from peering into dict/str values.
            staged = np.empty(len(values), dtype=object)
            staged[:] = values
            aux_row[rows] = staged

        id_rows = np.nonzero(
            (row_codes >= CODE_TIMER_CALL)
            & (row_codes <= CODE_TAKE_TYPE_ERASED)
        )[0]
        if len(id_rows):
            sid_np = np.frombuffer(shape_col, dtype=np.uint32)[id_rows]
            vidx_np = np.frombuffer(vidx_col, dtype=np.uint32)[id_rows]
            for sid in np.unique(sid_np).tolist():
                sel = id_rows[sid_np == sid]
                vidxs = vidx_np[sid_np == sid].tolist()
                if sid < n_shapes:
                    payload_rows = shapes[sid].rows()
                    assign(sel, list(map(payload_rows.__getitem__, vidxs)))
                elif sid == SHAPE_JSON:
                    assign(sel, list(map(json_payload, vidxs)))
                else:  # NONE_ID: ID-carrying probes without payload
                    assign(sel, [{} for _ in vidxs])
        cb_rows = np.nonzero(row_codes == CODE_CB_START)[0]
        if len(cb_rows):
            assign(
                cb_rows,
                list(map(start_types.__getitem__, probe_np[cb_rows].tolist())),
            )

        nonzero = row_codes != 0
        for pid in np.unique(pid_np[nonzero]).tolist():
            if not (all_wanted or pid in wanted):
                continue
            rows = np.nonzero(nonzero & (pid_np == pid))[0]
            walk = by_pid.get(pid)
            if walk is None:
                walk = by_pid[pid] = ([], bytearray(), [])
            walk[0].extend(ts_np[rows].tolist())
            walk[1].extend(row_codes[rows].tobytes())
            walk[2].extend(aux_row[rows].tolist())

        # The dds_write -> active-writer-CB association, vectorized.
        # The row loop threads ``current_cb`` through every CB-start and
        # ID-carrying row; but each write only reads the state of the
        # *last preceding setter in its PID*, which one searchsorted per
        # PID locates directly -- so the sequential loop below shrinks
        # to the three table-append codes.  A write with no setter
        # before it in this segment reads the state an earlier run's
        # consumer left in ``current_cb``.
        writer_cb = self.writer_cb
        setter_rows = np.nonzero(
            (row_codes >= CODE_CB_START) & (row_codes <= CODE_TAKE_RESPONSE)
        )[0]
        write_rows = np.nonzero(row_codes == CODE_DDS_WRITE)[0]
        if len(setter_rows) or len(write_rows):
            setter_pids = pid_np[setter_rows]
            write_pids = pid_np[write_rows]
            pids = np.unique(np.concatenate((setter_pids, write_pids)))
            for pid in pids.tolist():
                setters = setter_rows[setter_pids == pid]
                pid_writes = write_rows[write_pids == pid]
                if len(pid_writes):
                    pos = np.searchsorted(setters, pid_writes, "left") - 1
                    cb_at = {}
                    for p in np.unique(pos).tolist():
                        if p < 0:
                            cb_at[p] = current_cb.get(pid)
                        else:
                            row = int(setters[p])
                            cb_at[p] = (
                                None
                                if row_codes[row] == CODE_CB_START
                                else aux_row[row].get("cb_id")
                            )
                    for row, p in zip(pid_writes.tolist(), pos.tolist()):
                        writer_cb[index + row] = cb_at[p]
                if len(setters):
                    last = int(setters[-1])
                    current_cb[pid] = (
                        None
                        if row_codes[last] == CODE_CB_START
                        else aux_row[last].get("cb_id")
                    )

        table_rows = np.nonzero(
            (row_codes >= CODE_TAKE_RESPONSE)
            & (row_codes <= CODE_TAKE_TYPE_ERASED)
        )[0]
        writes = self.writes
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        for row, pid, code, aux in zip(
            table_rows.tolist(),
            pid_np[table_rows].tolist(),
            row_codes[table_rows].tolist(),
            aux_row[table_rows].tolist(),
        ):
            if code == CODE_DDS_WRITE:
                key = (aux.get("topic"), aux.get("src_ts"))
                writes.setdefault(key, []).append((index + row, aux))
            elif code == CODE_TAKE_RESPONSE:
                pending_p13.setdefault(pid, []).append(index + row)
                key = (aux.get("topic"), aux.get("src_ts"))
                take_responses.setdefault(key, []).append((index + row, aux))
            else:  # CODE_TAKE_TYPE_ERASED
                will_dispatch = bool(aux.get("will_dispatch"))
                for p13_index in pending_p13.pop(pid, ()):
                    dispatch_after[p13_index] = will_dispatch
        self._next_index = index + n
