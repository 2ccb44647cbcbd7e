"""Unit tests for the columnar TraceIndex layer."""

import pytest

from repro.core import SchedIndex, TraceIndex, cat, is_sorted_by_ts
from repro.core.extraction import EventIndex, PidWalk
from repro.core.index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE,
    PROBE_CODES,
)
from repro.sim import SchedSwitch
from repro.tracing.events import (
    P2_TIMER_START,
    P4_TIMER_END,
    P6_TAKE,
    P9_SERVICE_START,
    P10_TAKE_REQUEST,
    P11_SERVICE_END,
    P16_DDS_WRITE,
    TraceEvent,
)


def ev(ts, pid, probe, **data):
    return TraceEvent(ts, pid, probe, data)


class TestSingleSortInvariant:
    def test_sorted_input_is_not_copied_out_of_order(self):
        events = [ev(10, 1, P2_TIMER_START), ev(20, 1, P4_TIMER_END)]
        index = TraceIndex(events)
        assert index.walk_for_pid(1)[0] == [10, 20]

    def test_unsorted_input_sorted_once(self):
        events = [
            ev(20, 1, P4_TIMER_END),
            ev(15, 2, P16_DDS_WRITE, topic="u", src_ts=1, kind="data"),
            ev(10, 1, P2_TIMER_START),
        ]
        assert not is_sorted_by_ts(events)
        index = TraceIndex(events)
        assert index.walk_for_pid(1)[0] == [10, 20]
        # Stream positions are positions in the sorted stream.
        assert [at for at, _ in index.writes[("u", 1)]] == [1]

    def test_equal_timestamps_keep_input_order(self):
        a, b = ev(10, 1, P2_TIMER_START), ev(10, 1, P4_TIMER_END)
        index = TraceIndex([a, b])
        assert list(index.walk_for_pid(1)[1]) == [CODE_CB_START, CODE_CB_END]
        # ...also when the stream needs its one sort.
        later = ev(5, 2, P2_TIMER_START)
        index = TraceIndex([a, b, later])
        assert list(index.walk_for_pid(1)[1]) == [CODE_CB_START, CODE_CB_END]

    def test_input_list_not_mutated(self):
        events = [ev(20, 1, P4_TIMER_END), ev(10, 1, P2_TIMER_START)]
        TraceIndex(events)
        assert [e.ts for e in events] == [20, 10]


class TestPerPidViews:
    def test_views_partition_the_stream(self):
        events = [
            ev(10, 1, P2_TIMER_START),
            ev(11, 2, P2_TIMER_START),
            ev(12, 1, P4_TIMER_END),
            ev(13, 2, P4_TIMER_END),
        ]
        index = TraceIndex(events)
        assert index.pids() == [1, 2]
        assert index.walk_for_pid(1)[0] == [10, 12]
        assert index.walk_for_pid(2)[0] == [11, 13]
        assert index.walk_for_pid(99)[0] == []

    def test_wanted_pids_select_walks_not_tables(self):
        events = [
            ev(10, 1, P6_TAKE, cb_id="A", topic="t"),
            ev(11, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
            ev(12, 2, P2_TIMER_START),
        ]
        index = TraceIndex(events, wanted_pids=[2])
        assert index.pids() == [2]
        assert index.writer_cb == {1: "A"}

    def test_walk_codes_parallel_to_events(self):
        events = [
            ev(10, 1, P2_TIMER_START),
            ev(11, 1, P6_TAKE, cb_id="S1", topic="t"),
            ev(12, 1, P16_DDS_WRITE, topic="u", src_ts=12, kind="data"),
            ev(13, 1, P4_TIMER_END),
            ev(14, 1, "unknown_probe"),
            ev(15, 1, P16_DDS_WRITE, topic="v", src_ts=15, kind="data"),
        ]
        index = TraceIndex(events)
        timestamps, codes, aux = index.walk_for_pid(1)
        # Code-0 rows never enter walk columns...
        assert timestamps == [10, 11, 12, 13, 15]
        assert list(codes) == [
            CODE_CB_START, CODE_TAKE, CODE_DDS_WRITE, CODE_CB_END,
            CODE_DDS_WRITE,
        ]
        assert aux[0] == "timer"
        assert aux[1] == {"cb_id": "S1", "topic": "t"}
        # ...but stream positions count them.
        assert len(index) == 6
        assert [at for at, _ in index.writes[("v", 15)]] == [5]

    def test_walk_for_unknown_pid_empty(self):
        timestamps, codes, aux = TraceIndex([]).walk_for_pid(5)
        assert timestamps == [] and len(codes) == 0 and aux == []

    def test_probe_code_table_covers_every_table1_alg1_probe(self):
        from repro.tracing.events import PROBE_TABLE, P1_CREATE_NODE

        for probe in PROBE_TABLE:
            if probe == P1_CREATE_NODE:
                continue  # P1 is TR-IN only; Alg. 1 ignores it
            assert probe in PROBE_CODES


def _two_writers():
    """Two callers writing the same request key (topic "u", srcTS 1)."""
    return [
        ev(10, 1, P6_TAKE, cb_id="A", topic="t"),
        ev(11, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
        ev(13, 2, P6_TAKE, cb_id="B", topic="t"),
        ev(14, 2, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
    ]


class TestCrossNodeTables:
    def test_write_association_is_positional(self):
        # Two identical write events (equal by value) must keep distinct
        # writer-CB associations -- the id()-free replacement for the
        # old identity-keyed side table.
        events = [
            ev(10, 1, P6_TAKE, cb_id="A", topic="t"),
            ev(20, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
            ev(20, 1, P2_TIMER_START),
            ev(20, 1, P6_TAKE, cb_id="B", topic="t"),
            ev(20, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
        ]
        index = TraceIndex(events)
        (i1, e1), (i2, e2) = index.writes[("u", 1)]
        assert e1 == e2  # value-identical events...
        assert index.writer_cb[i1] == "A"  # ...with distinct associations
        assert index.writer_cb[i2] == "B"

    def test_caller_match_follows_the_cursor(self):
        lookups = EventIndex(trace_index=TraceIndex(_two_writers()))
        key = ("u", 1)
        assert lookups.caller_match(key, 0) == (1, "A", True)
        assert lookups.caller_match(key, 1) == (3, "B", True)
        # A cursor past the last write clamps to it, not final.
        assert lookups.caller_match(key, 2) == (3, "B", False)
        assert lookups.caller_match(("u", 2), 0) == (None, None, False)

    def test_walk_cursors_are_per_walk(self):
        server = []
        for ts in (20, 30):
            server += [
                ev(ts, 3, P9_SERVICE_START),
                ev(ts + 1, 3, P10_TAKE_REQUEST, cb_id="SV", topic="u", src_ts=1),
                ev(ts + 2, 3, P11_SERVICE_END),
            ]
        index = TraceIndex(_two_writers() + server)
        lookups = EventIndex(trace_index=index)
        for _ in range(2):
            # A fresh walk over the same index starts its cursors over.
            walk = PidWalk(3, "server")
            walk.resume(*index.walk_for_pid(3), index.sched, lookups)
            assert [r.intopic for r in walk.cblist] == [cat("u", "A"), cat("u", "B")]


def switch(ts, prev_pid, next_pid):
    return SchedSwitch(ts, 0, prev_pid, f"p{prev_pid}", 0, "R",
                       next_pid, f"p{next_pid}", 0)


class TestColumnarSchedIndex:
    def test_events_for_reconstructs_sorted_bucket(self):
        events = [switch(30, 1, 2), switch(10, 2, 1), switch(20, 1, 3)]
        index = SchedIndex(events)
        assert [e.ts for e in index.events_for(1)] == [10, 20, 30]
        assert index.events_for(42) == []

    def test_sched_index_shared_through_trace_index(self):
        sched = [switch(10, 1, 2), switch(20, 2, 1)]
        index = TraceIndex([], sched)
        assert index.sched.exec_time(0, 30, 1) == 20  # 0-10 and 20-30

    def test_unsorted_sched_events_sorted_per_bucket(self):
        events = [switch(20, 1, 2), switch(10, 2, 1)]
        index = SchedIndex(events)
        assert index.exec_time(0, 30, 1) == 20


class TestInlinedSubmitCopies:
    """Pin the hand-inlined PerfBuffer.submit copies to the original."""

    def _events(self):
        return [
            ev(i, 1, P6_TAKE, cb_id="A", topic="t" * (i % 3)) for i in range(8)
        ] + [ev(9, 1, P2_TIMER_START)]

    def test_probes_submit_matches_perf_buffer_submit(self):
        from repro.tracing.bpf import PerfBuffer
        from repro.tracing.overhead import event_size_bytes
        from repro.tracing.probes import _submit

        reference = PerfBuffer("ref", capacity=6)
        inlined = PerfBuffer("inl", capacity=6)
        for event in self._events():
            reference.submit(event, size=event_size_bytes(event))
            _submit(inlined, event)
        assert inlined.submitted == reference.submitted
        assert inlined.lost == reference.lost
        assert inlined.bytes_submitted == reference.bytes_submitted
        assert inlined.poll() == reference.poll()

    def test_tracer_on_switch_matches_perf_buffer_submit(self):
        from repro.tracing.bpf import Bpf, PerfBuffer
        from repro.tracing.overhead import SCHED_EVENT_BYTES
        from repro.tracing.tracers import KernelTracer

        records = [switch(i, 1, 2) for i in range(8)]
        reference = PerfBuffer("ref", capacity=6)
        for record in records:
            reference.submit(record, size=SCHED_EVENT_BYTES)

        handlers = []

        def attach(handler):
            handlers.append(handler)
            return lambda: handlers.remove(handler)

        bpf = Bpf(symbols=None, tracepoints={"sched:sched_switch": attach})
        tracer = KernelTracer(bpf, filtered=False, buffer_capacity=6)
        tracer.start()
        (on_switch,) = handlers
        for record in records:
            on_switch(record)
        (program,) = bpf.programs
        assert program.run_cnt == tracer.seen == len(records)
        assert tracer.buffer.submitted == reference.submitted
        assert tracer.buffer.lost == reference.lost
        assert tracer.buffer.bytes_submitted == reference.bytes_submitted
        assert tracer.buffer.poll() == reference.poll()
        tracer.stop()
        assert handlers == []


class TestKernelCompaction:
    def test_cancelled_majority_is_compacted(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # Once cancellations exceeded half the queue the heap was
        # rebuilt, shedding the dead entries present at that point.
        assert len(kernel._queue) < 200
        assert kernel.pending_count() == 50

    def test_compaction_preserves_firing_order(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        fired = []
        keep = []
        for i in range(200):
            handle = kernel.schedule_at(
                i + 1, lambda i=i: fired.append(i)
            )
            if i % 4 == 0:
                keep.append(i)
            else:
                handle.cancel()
        kernel.run()
        assert fired == keep

    def test_compaction_keeps_cancelled_counter_exact(self):
        """Regression: the entry whose cancel triggers a compaction must
        be dropped by that compaction, or the counter drifts negative."""
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(200)]
        for handle in handles[:101]:  # 101st cancel triggers the rebuild
            handle.cancel()
        # Slab representation: a heap entry (time, prio, seq, slot) is
        # live iff the slot still holds its sequence number.
        assert all(kernel._slot_seq[e[3]] == e[2] for e in kernel._queue)
        assert kernel._cancelled_in_queue == 0
        kernel.run()
        assert kernel._cancelled_in_queue == 0

    def test_cancel_after_fire_is_noop(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handle = kernel.schedule_at(1, lambda: None)
        kernel.run()
        handle.cancel()  # must not underflow the cancelled counter
        assert kernel.pending_count() == 0
        kernel.schedule_at(kernel.now + 1, lambda: None)
        assert kernel.pending_count() == 1

    def test_small_queues_not_compacted(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        # Below the compaction floor the entries drain lazily instead.
        assert len(kernel._queue) == 10
        assert kernel.pending_count() == 0
