"""The paper's probe suite: Table I (P1..P16) as eBPF programs.

Each probe is an entry/exit handler attached to a middleware symbol; it
traverses the probed function's argument structures (node, timer,
subscription, service, client, writer objects) to extract exactly the
fields Table I lists, then submits a :class:`TraceEvent` into a perf
buffer.

The srcTS technique of Sec. III-A is reproduced literally for
``rmw_take_int`` / ``rmw_take_request`` / ``rmw_take_response``: the
source timestamp is written *by reference* into the ``rmw_message_info``
out-parameter and is unknown at function entry, so the entry probe
stashes the reference in a BPF map keyed by PID and the exit probe reads
the value through the stashed reference before submitting the event.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .bpf import Bpf, BpfMap, BpfProgram, PerfBuffer
from .events import (
    _NO_DATA,
    P1_CREATE_NODE,
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P5_SUB_START,
    P6_TAKE,
    P7_SYNC_OP,
    P8_SUB_END,
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
from .overhead import EVENT_HEADER_BYTES
from .symbols import ProbeContext

#: Name of the BPF map sharing discovered ROS2 PIDs between the
#: ROS2-INIT tracer and the kernel tracer (Sec. III-B).
ROS2_PIDS_MAP = "ros2_pids"

#: Name of the BPF map used by the srcTS entry/exit pointer stash.
SRCTS_STASH_MAP = "srcts_stash"


def _submit(buffer: PerfBuffer, event: TraceEvent) -> None:
    # Inlined copies of overhead.event_size_bytes() and
    # PerfBuffer.submit(): one firing per traced middleware call makes
    # each saved frame measurable.  Keep in sync with both originals
    # (the other inlined submit is the on_switch handler that
    # tracers.KernelTracer._attach installs).
    # The capacity check runs before the size computation: a lost event
    # never contributes to bytes_submitted, so its size is dead work.
    buffer.submitted += 1
    events = buffer._events
    if len(events) >= buffer.capacity:
        buffer.lost += 1
        return
    events.append(event)
    size = EVENT_HEADER_BYTES
    data = event.data
    if data:
        for value in data.values():
            size += len(value) + 1 if type(value) is str else 8
    buffer.bytes_submitted += size


class InitProbes:
    """P1: node-creation probe used by the ROS2-INIT tracer."""

    def __init__(self, bpf: Bpf, buffer: PerfBuffer):
        self.bpf = bpf
        self.buffer = buffer
        self.pid_map: BpfMap = bpf.get_table(ROS2_PIDS_MAP)

    def attach(self) -> None:
        self.bpf.attach_uprobe(
            "rmw_cyclonedds_cpp:rmw_create_node", self._on_create_node, name="P1"
        )

    def _on_create_node(self, ctx: ProbeContext, args: Tuple[Any, ...]) -> None:
        node = args[0]
        # Share the PID with the kernel tracer through the BPF map.
        self.pid_map.update(ctx.pid, 1)
        _submit(
            self.buffer,
            TraceEvent(
                ctx[0],
                ctx[1],
                P1_CREATE_NODE,
                {"node": node.name},
            ),
        )


class RuntimeProbes:
    """P2..P16: the runtime probes used by the ROS2-RT tracer.

    The handlers are *fused closures* built at attach time through the
    :meth:`~repro.tracing.bpf.Bpf.load_uprobe` family: program
    accounting, field extraction, event construction and the perf-buffer
    submit are one call frame per firing (plus the C-level
    ``tuple.__new__``), where the original pipeline traversed trampoline
    -> bound handler -> ``_submit`` -> ``TraceEvent.__new__``.  One
    firing happens per traced middleware call, so the ~4 saved frames
    dominate runtime-tracing overhead.  Three consequences of fusing:

    * events are built with ``tuple.__new__(TraceEvent, (...))`` --
      identical tuples to the keyword constructor at half the cost
      (payload-free probes share the class-level ``_NO_DATA`` mapping,
      exactly like the constructor default);
    * encoded sizes are probe-shaped constants (header + per-field
      sizes) instead of a generic ``event_size_bytes`` dict walk -- the
      accounting is value-identical because every probe's payload schema
      is fixed;
    * the srcTS stash bypasses the :class:`BpfMap` method surface and
      uses its backing dict: the stash is keyed by PID, far below the
      map's capacity, and non-LRU, so ``update``/``lookup``/``delete``
      reduce to plain dict ops.
    """

    def __init__(self, bpf: Bpf, buffer: PerfBuffer):
        self.bpf = bpf
        self.buffer = buffer
        self.srcts_stash: BpfMap = bpf.get_table(SRCTS_STASH_MAP)

    def attach(self) -> None:
        bpf = self.bpf
        buffer = self.buffer
        stash = self.srcts_stash._data
        tuple_new = tuple.__new__
        event_cls = TraceEvent
        header = EVENT_HEADER_BYTES
        no_data = _NO_DATA
        capacity = buffer.capacity  # fixed at construction

        def simple(probe: str):
            """Factory-maker for the payload-free execute_* edges."""

            def factory(program: BpfProgram):
                def fire(ctx, args, ret=None):
                    program.run_cnt += 1
                    buffer.submitted += 1
                    events = buffer._events
                    if len(events) >= capacity:
                        buffer.lost += 1
                        return
                    events.append(
                        tuple_new(event_cls, (ctx[0], ctx[1], probe, no_data))
                    )
                    buffer.bytes_submitted += header

                return fire

            return factory

        def take_entry(program: BpfProgram):
            """Entry of any rmw_take_*: the srcTS out-parameter is not
            filled yet; stash its address (here: the object reference),
            keyed by PID."""

            def fire(ctx, args):
                program.run_cnt += 1
                stash[ctx[1]] = args[-1]

            return fire

        def timer_call(program: BpfProgram):
            def fire(ctx, args):
                program.run_cnt += 1
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                cb = args[0].cb_id
                events.append(
                    tuple_new(
                        event_cls, (ctx[0], ctx[1], P3_TIMER_CALL, {"cb_id": cb})
                    )
                )
                buffer.bytes_submitted += header + len(cb) + 1

            return fire

        def take_int_exit(program: BpfProgram):
            def fire(ctx, args, ret):
                program.run_cnt += 1
                msg_info = stash.pop(ctx[1], None)
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                sub = args[0]
                cb = sub.cb_id
                topic = sub.topic
                events.append(
                    tuple_new(
                        event_cls,
                        (
                            ctx[0],
                            ctx[1],
                            P6_TAKE,
                            {
                                "cb_id": cb,
                                "topic": topic,
                                "src_ts": None if msg_info is None else msg_info.src_ts,
                            },
                        ),
                    )
                )
                buffer.bytes_submitted += header + len(cb) + len(topic) + 10

            return fire

        def take_request_exit(program: BpfProgram):
            def fire(ctx, args, ret):
                program.run_cnt += 1
                msg_info = stash.pop(ctx[1], None)
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                service = args[0]
                cb = service.cb_id
                topic = service.request_topic
                name = service.name
                events.append(
                    tuple_new(
                        event_cls,
                        (
                            ctx[0],
                            ctx[1],
                            P10_TAKE_REQUEST,
                            {
                                "cb_id": cb,
                                "topic": topic,
                                "service": name,
                                "src_ts": None if msg_info is None else msg_info.src_ts,
                            },
                        ),
                    )
                )
                buffer.bytes_submitted += (
                    header + len(cb) + len(topic) + len(name) + 11
                )

            return fire

        def take_response_exit(program: BpfProgram):
            def fire(ctx, args, ret):
                program.run_cnt += 1
                msg_info = stash.pop(ctx[1], None)
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                client = args[0]
                cb = client.cb_id
                topic = client.reader.topic.name
                name = client.service_name
                events.append(
                    tuple_new(
                        event_cls,
                        (
                            ctx[0],
                            ctx[1],
                            P13_TAKE_RESPONSE,
                            {
                                "cb_id": cb,
                                "topic": topic,
                                "service": name,
                                "src_ts": None if msg_info is None else msg_info.src_ts,
                            },
                        ),
                    )
                )
                buffer.bytes_submitted += (
                    header + len(cb) + len(topic) + len(name) + 11
                )

            return fire

        def take_type_erased_exit(program: BpfProgram):
            def fire(ctx, args, ret):
                program.run_cnt += 1
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                events.append(
                    tuple_new(
                        event_cls,
                        (
                            ctx[0],
                            ctx[1],
                            P14_TAKE_TYPE_ERASED,
                            {"will_dispatch": int(bool(ret))},
                        ),
                    )
                )
                buffer.bytes_submitted += header + 8

            return fire

        def sync_operator(program: BpfProgram):
            def fire(ctx, args):
                program.run_cnt += 1
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                cb = args[0].cb_id
                events.append(
                    tuple_new(event_cls, (ctx[0], ctx[1], P7_SYNC_OP, {"cb_id": cb}))
                )
                buffer.bytes_submitted += header + len(cb) + 1

            return fire

        def dds_write(program: BpfProgram):
            def fire(ctx, args):
                program.run_cnt += 1
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                writer = args[0]
                topic = writer.topic.name
                kind = writer.kind
                events.append(
                    tuple_new(
                        event_cls,
                        (
                            ctx[0],
                            ctx[1],
                            P16_DDS_WRITE,
                            {"topic": topic, "src_ts": args[2], "kind": kind},
                        ),
                    )
                )
                buffer.bytes_submitted += header + len(topic) + len(kind) + 10

            return fire

        load_u = bpf.load_uprobe
        load_r = bpf.load_uretprobe
        # Timer callbacks: P2 (start), P3 (ID), P4 (end).
        load_u("rclcpp:execute_timer", simple(P2_TIMER_START), name="P2")
        load_u("rcl:rcl_timer_call", timer_call, name="P3")
        load_r("rclcpp:execute_timer", simple(P4_TIMER_END), name="P4")
        # Subscriber callbacks: P5 (start), P6 (take), P7 (sync), P8 (end).
        load_u("rclcpp:execute_subscription", simple(P5_SUB_START), name="P5")
        load_u("rmw_cyclonedds_cpp:rmw_take_int", take_entry, name="P6.entry")
        load_r("rmw_cyclonedds_cpp:rmw_take_int", take_int_exit, name="P6")
        load_u("message_filters:operator()", sync_operator, name="P7")
        load_r("rclcpp:execute_subscription", simple(P8_SUB_END), name="P8")
        # Service callbacks: P9 (start), P10 (take request), P11 (end).
        load_u("rclcpp:execute_service", simple(P9_SERVICE_START), name="P9")
        load_u("rmw_cyclonedds_cpp:rmw_take_request", take_entry, name="P10.entry")
        load_r("rmw_cyclonedds_cpp:rmw_take_request", take_request_exit, name="P10")
        load_r("rclcpp:execute_service", simple(P11_SERVICE_END), name="P11")
        # Client callbacks: P12 (start), P13 (take response), P14
        # (dispatch decision), P15 (end).
        load_u("rclcpp:execute_client", simple(P12_CLIENT_START), name="P12")
        load_u("rmw_cyclonedds_cpp:rmw_take_response", take_entry, name="P13.entry")
        load_r("rmw_cyclonedds_cpp:rmw_take_response", take_response_exit, name="P13")
        load_r("rclcpp:take_type_erased_response", take_type_erased_exit, name="P14")
        load_r("rclcpp:execute_client", simple(P15_CLIENT_END), name="P15")
        # DDS writes: P16.
        load_u("cyclonedds:dds_write_impl", dds_write, name="P16")
