"""Preemptive multi-CPU scheduler for simulated threads.

The scheduler reproduces the slice of Linux scheduling behaviour the paper
depends on:

* per-CPU dispatch with CPU affinity masks,
* strict priority preemption (a waking higher-priority thread immediately
  preempts a lower-priority one on an allowed CPU),
* round-robin timeslicing between equal-priority ``SCHED_OTHER`` /
  ``SCHED_RR`` threads (``SCHED_FIFO`` threads run to the next blocking
  point),
* emission of ``sched_switch`` records -- (CPU, previous thread and its
  state, next thread) -- on every context switch, and ``sched_wakeup``
  records when a sleeping thread is woken.

Execution-time measurement in the paper (Alg. 2) reconstructs a callback's
CPU demand purely from the ``sched_switch`` stream; this module produces
that stream with the same fields Linux exposes.

Threads execute generator *activities* (see :mod:`repro.sim.threads`).
Context-switch points exist only at ``yield`` boundaries, which mirrors a
kernel with preemption points: Python code between two yields runs
atomically at one simulated instant while the thread owns a CPU.

The scheduler implements dispatch *mechanism* only; every policy
decision -- which thread runs next, who gets preempted on a wakeup,
whether a quantum is armed -- is delegated to a pluggable
:class:`~repro.sim.policies.SchedulingPolicy` strategy object.  The
default :class:`~repro.sim.policies.PriorityRoundRobin` policy
reproduces the historical hardwired behaviour byte-for-byte (pinned by
``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Union

from .kernel import MSEC, SimKernel
from .policies import SchedulingPolicy, make_policy
from .threads import (
    _SCHED_CHARS,
    Activity,
    Block,
    Compute,
    SchedPolicy,
    SimThread,
    ThreadSchedParams,
    ThreadState,
    YieldCpu,
)

#: PID used for the idle task, as on Linux.
IDLE_PID = 0

#: Default round-robin quantum (Linux RR default is wider; 4 ms keeps
#: plenty of preemption in the evaluation scenarios).
DEFAULT_TIMESLICE = 4 * MSEC


class SchedSwitch(NamedTuple):
    """A ``sched_switch`` record, field-for-field what the paper's kernel
    tracer reads from the tracepoint (Sec. III-B).

    A ``NamedTuple``: one record is built per context switch inside the
    simulation hot loop, where tuple construction beats a frozen
    dataclass's per-field ``object.__setattr__`` severalfold.
    """

    ts: int
    cpu: int
    prev_pid: int
    prev_comm: str
    prev_prio: int
    prev_state: str
    next_pid: int
    next_comm: str
    next_prio: int


class SchedWakeup(NamedTuple):
    """A ``sched_wakeup`` record (listed as future work in the paper;
    used here by the waiting-time analysis extension)."""

    ts: int
    cpu: Optional[int]
    pid: int
    comm: str
    prio: int


class _Cpu:
    __slots__ = (
        "id", "current", "dispatch_time", "completion", "completion_time",
        "slice_handle", "slice_deadline", "busy_time", "dirty", "swapper_comm",
    )

    def __init__(self, cpu_id: int):
        self.id = cpu_id
        self.current: Optional[SimThread] = None
        self.dispatch_time = 0
        #: Idle-task comm, prebuilt: formatting it per idle switch costs
        #: more than the rest of the sched_switch record combined.
        self.swapper_comm = f"swapper/{cpu_id}"
        #: Kernel tokens for the armed completion / quantum timers; None
        #: when unarmed.
        self.completion: Optional[int] = None
        #: Absolute fire time of the armed completion (valid while
        #: ``completion`` is set); lets the lazy quantum check whether a
        #: compute segment crosses the slice deadline.
        self.completion_time = 0
        self.slice_handle: Optional[int] = None
        #: Absolute expiry of the current thread's quantum, tracked even
        #: while no slice event is armed (see Scheduler._install for the
        #: lazy-arming rules); None for untimesliced (FIFO) threads.
        self.slice_deadline: Optional[int] = None
        self.busy_time = 0
        #: Touched by a placement during the current ``_resched`` call
        #: (see there); only dirty CPUs can newly accept a thread that
        #: already failed to place in the same call.
        self.dirty = False


class Scheduler:
    """Multi-CPU preemptive priority scheduler.

    Parameters
    ----------
    kernel:
        The simulation kernel providing the clock and event queue.
    num_cpus:
        Number of CPUs in the machine.
    timeslice:
        Round-robin quantum (ns) for ``SCHED_OTHER`` / ``SCHED_RR``.
    policy:
        Scheduling policy: a :class:`~repro.sim.policies.SchedulingPolicy`
        instance, a registry name (``"priority"``, ``"psjf"``, ``"edf"``,
        ``"cfs"``), or None for the default priority/RR policy.
    """

    def __init__(
        self,
        kernel: SimKernel,
        num_cpus: int = 4,
        timeslice: int = DEFAULT_TIMESLICE,
        first_pid: int = 1,
        policy: Union[str, SchedulingPolicy, None] = None,
    ):
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        if first_pid < 1:
            raise ValueError("first_pid must be >= 1 (0 is the idle task)")
        self.kernel = kernel
        self.cpus = [_Cpu(i) for i in range(num_cpus)]
        self.timeslice = timeslice
        self.policy = make_policy(policy)
        self.policy.attach(self)
        self._threads: Dict[int, SimThread] = {}
        self._next_pid = first_pid
        self._switch_hooks: List[Callable[[SchedSwitch], None]] = []
        self._wakeup_hooks: List[Callable[[SchedWakeup], None]] = []
        self._resched_pending = False
        self._advancing: Optional[SimThread] = None
        self.context_switches = 0
        # Timer fast path: the kernel's token API schedules the
        # per-dispatch completion/quantum timers without allocating a
        # ``functools.partial`` per dispatch.
        self._post_after: Callable = kernel.post_after
        self._cancel_timer: Callable = kernel.cancel

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def num_cpus(self) -> int:
        return len(self.cpus)

    @property
    def current_thread(self) -> Optional[SimThread]:
        """The thread whose activity code is executing right now.

        Probes attached to middleware functions use this to resolve the
        PID of the traced process, like ``bpf_get_current_pid_tgid``.
        """
        return self._advancing

    def threads(self) -> List[SimThread]:
        return list(self._threads.values())

    def get_thread(self, pid: int) -> SimThread:
        return self._threads[pid]

    def allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def spawn(
        self,
        activity: Activity,
        priority: int = 0,
        policy: SchedPolicy = SchedPolicy.OTHER,
        affinity: Optional[List[int]] = None,
        name: str = "",
        start: int = 0,
        pid: Optional[int] = None,
        sched_params: Optional[ThreadSchedParams] = None,
    ) -> SimThread:
        """Create a thread and make it runnable at time ``start``."""
        if affinity is not None:
            bad = [c for c in affinity if not 0 <= c < self.num_cpus]
            if bad:
                raise ValueError(f"affinity CPUs out of range: {bad}")
        if pid is None:
            pid = self.allocate_pid()
        elif pid in self._threads:
            raise ValueError(f"pid {pid} already in use")
        else:
            self._next_pid = max(self._next_pid, pid + 1)
        thread = SimThread(
            pid=pid,
            activity=activity,
            priority=priority,
            policy=policy,
            affinity=affinity,
            name=name,
            sched_params=sched_params,
        )
        self._threads[pid] = thread

        def _start() -> None:
            if thread.state == ThreadState.NEW:
                self._enqueue_ready(thread)
                self._request_resched()

        self.kernel.schedule_at(max(start, self.kernel.now), _start)
        return thread

    def wakeup(self, thread: Union[SimThread, int], payload: Any = None) -> None:
        """Wake ``thread``; delivers ``payload`` to its pending ``Block``.

        Waking a runnable thread queues the payload for its *next* block
        (condition-variable semantics: wakeups never get lost but do
        coalesce).  Waking a dead thread is ignored.
        """
        if isinstance(thread, int):
            thread = self._threads[thread]
        state = thread.state
        if state is ThreadState.BLOCKED:
            thread.resume_value = payload
            if self._wakeup_hooks:
                self._emit_wakeup(thread)
            # Inlined _enqueue_ready + _request_resched (the hottest
            # wakeup path: every delivery and timer tick lands here).
            thread.state = ThreadState.READY
            self.policy.enqueue(thread, front=False, woke=True)
            if not self._resched_pending:
                self._resched_pending = True
                self._post_after(0, self._resched)
        elif state is not ThreadState.DEAD:
            # Inlined queue_wakeup (hot: wakeups racing a runnable
            # thread coalesce here).
            thread._pending_wakeup = True
            thread._wakeup_payload = payload

    def on_sched_switch(self, hook: Callable[[SchedSwitch], None]) -> Callable[[], None]:
        """Register a ``sched_switch`` tracepoint consumer.

        Returns a detach function, mirroring tracepoint attach/detach.
        """
        self._switch_hooks.append(hook)
        return lambda: self._switch_hooks.remove(hook)

    def on_sched_wakeup(self, hook: Callable[[SchedWakeup], None]) -> Callable[[], None]:
        self._wakeup_hooks.append(hook)
        return lambda: self._wakeup_hooks.remove(hook)

    def utilization(self, over: Optional[int] = None) -> List[float]:
        """Fraction of time each CPU spent busy (finished segments only)."""
        horizon = over if over is not None else self.kernel.now
        if horizon <= 0:
            return [0.0 for _ in self.cpus]
        return [min(1.0, cpu.busy_time / horizon) for cpu in self.cpus]

    # ------------------------------------------------------------------
    # Ready queue management (representation owned by the policy)
    # ------------------------------------------------------------------

    def _enqueue_ready(self, thread: SimThread, front: bool = False) -> None:
        # NEW/BLOCKED -> READY is a genuine wakeup; READY/RUNNING ->
        # READY is a requeue (preemption, yield, slice rotation).
        woke = thread.state in (ThreadState.NEW, ThreadState.BLOCKED)
        thread.state = ThreadState.READY
        self.policy.enqueue(thread, front=front, woke=woke)

    # ------------------------------------------------------------------
    # Rescheduling (the "IPI" path)
    # ------------------------------------------------------------------

    def _request_resched(self) -> None:
        if not self._resched_pending:
            self._resched_pending = True
            self._post_after(0, self._resched)

    def _resched(self) -> None:
        """Place ready threads, one ladder sweep per placement.

        Within one call only a placement (and the activity code it lets
        run) can change a CPU's occupancy, and the only CPU it touches
        is its own -- marked ``dirty``.  A thread that already failed to
        find a CPU this call therefore needs re-checking against dirty
        CPUs only: every clean CPU is still in the exact state that
        rejected it.  The re-scan after each placement keeps the
        pre-dirty-flag placement order (highest priority first, deque
        order within a priority) byte-for-byte, but previously-failed
        threads now cost a dirty-subset probe instead of a full CPU
        scan -- the win under wakeup storms, where one pass fails many
        threads and each placement used to re-scan all of them against
        all CPUs.
        """
        self._resched_pending = False
        for cpu in self.cpus:
            cpu.dirty = False
        policy = self.policy
        placement_order = policy.placement_order
        find_cpu = policy.find_cpu
        # Lazily allocated: the common resched places one thread with no
        # placement failures at all.
        failed: Optional[Dict[SimThread, None]] = None
        placed = True
        while placed:
            placed = False
            # Fresh snapshot per sweep: the loop body mutates the ready
            # queue on a placement, then breaks out to re-scan.
            for thread in placement_order():
                retry = failed is not None and thread in failed
                cpu = find_cpu(thread, dirty_only=retry)
                if cpu is None:
                    if not retry:
                        if failed is None:
                            failed = {}
                        failed[thread] = None
                    continue
                policy.remove(thread)
                if failed is not None:
                    failed.pop(thread, None)
                prev = cpu.current
                if prev is not None:
                    self._deschedule_current(cpu, requeue_front=True)
                self._emit_switch(cpu, prev, "R", thread)
                self._install(cpu, thread)
                cpu.dirty = True
                placed = True
                break

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------

    def _install(self, cpu: _Cpu, thread: SimThread) -> None:
        """Put ``thread`` on ``cpu`` and resume it.

        Quantum timers are armed *lazily*: the slice event can only ever
        fire while its thread still owns the CPU at the deadline, which
        (threads occupy simulated time only inside Compute segments)
        happens exactly when a completion is armed at or past the
        deadline.  So instead of posting a slice event on every install
        and cancelling it on almost every retire -- the single largest
        source of kernel-queue traffic -- the deadline is recorded on
        the CPU and the event is posted only when a completion crosses
        it.  The slice is always posted immediately *before* the
        crossing completion, reproducing the historical queue order for
        same-instant ties: a pre-existing completion keeps its smaller
        sequence number (fires first), the crossing completion gets a
        larger one (slice fires first) -- exactly as when the slice was
        armed eagerly at install/expiry time.
        """
        cpu.current = thread
        thread.state = ThreadState.RUNNING
        thread.cpu = cpu.id
        now = self.kernel._now
        cpu.dispatch_time = now
        post_after = self._post_after
        slice_ns = self.policy.timeslice_for(thread)
        remaining = thread.remaining
        if slice_ns is not None:
            deadline = now + slice_ns
            cpu.slice_deadline = deadline
            if remaining > 0 and now + remaining >= deadline:
                cpu.slice_handle = post_after(
                    slice_ns, self._slice_expired, (cpu, thread)
                )
        else:
            cpu.slice_deadline = None
        if remaining > 0:
            cpu.completion_time = now + remaining
            cpu.completion = post_after(
                remaining, self._compute_done, (cpu, thread)
            )
        else:
            value = thread.resume_value
            thread.resume_value = None
            self._continue(cpu, thread, value)

    def _continue(self, cpu: _Cpu, thread: SimThread, value: Any) -> None:
        """Advance the activity until it computes, blocks, yields or exits.

        ``_advancing`` is set once for the whole advance loop rather
        than around each ``thread.advance`` call: only activity code
        (which runs *inside* ``advance``) fires probes or publishes, so
        the post-request bookkeeping running with ``_advancing`` still
        set is unobservable -- and a nested install of the next thread
        (via ``_retire``) re-enters ``_continue``, which maintains the
        field itself.  Kernel events never run here (``kernel.run`` is
        not reentrant), so interrupt-context consumers still see None.
        """
        advance = thread.advance
        policy = self.policy
        post_after = self._post_after
        self._advancing = thread
        try:
            while True:
                request = advance(value)
                value = None
                if request is None:
                    self._retire(cpu, thread, ThreadState.DEAD)
                    return
                # Exact-type dispatch first (the requests are concrete
                # protocol classes); isinstance fallback keeps subclasses
                # working.
                request_type = type(request)
                if request_type is Compute or isinstance(request, Compute):
                    duration = request.duration
                    if duration == 0:
                        continue
                    thread.remaining = duration
                    policy.on_compute(thread, duration)
                    now = self.kernel._now
                    cpu.dispatch_time = now
                    end = now + duration
                    # Lazy quantum (see _install): this segment crossing
                    # the recorded deadline is what arms the slice event,
                    # posted before the completion to keep the pinned
                    # pre-overhaul tie order.
                    deadline = cpu.slice_deadline
                    if (
                        deadline is not None
                        and cpu.slice_handle is None
                        and end >= deadline
                    ):
                        cpu.slice_handle = post_after(
                            deadline - now, self._slice_expired, (cpu, thread)
                        )
                    cpu.completion_time = end
                    cpu.completion = post_after(
                        duration, self._compute_done, (cpu, thread)
                    )
                    return
                if request_type is Block or isinstance(request, Block):
                    if thread._pending_wakeup:
                        value = thread.consume_wakeup()
                        continue
                    self._retire(cpu, thread, ThreadState.BLOCKED)
                    return
                if request_type is YieldCpu or isinstance(request, YieldCpu):
                    self._retire(cpu, thread, ThreadState.READY)
                    return
                raise TypeError(f"activity of {thread} yielded {request!r}")
        finally:
            self._advancing = None

    def _retire(self, cpu: _Cpu, thread: SimThread, new_state: ThreadState) -> None:
        """Detach ``thread`` from ``cpu`` (blocked/dead/yielded) and
        dispatch the next runnable thread, emitting one sched_switch."""
        self._cancel_cpu_timers(cpu)
        thread.cpu = None
        thread.state = new_state
        cpu.current = None
        if new_state is ThreadState.READY:
            self._enqueue_ready(thread)  # sched_yield: tail of own prio
        nxt = self.policy.pick(cpu.id)
        self._emit_switch(cpu, thread, _SCHED_CHARS[new_state], nxt)
        if nxt is not None:
            self._install(cpu, nxt)

    def _deschedule_current(self, cpu: _Cpu, requeue_front: bool) -> None:
        """Preempt the running thread: account the partial segment and put
        the thread back on the ready queue (front keeps FIFO semantics)."""
        thread = cpu.current
        assert thread is not None
        elapsed = self.kernel._now - cpu.dispatch_time
        if thread.remaining > 0:
            thread.remaining -= elapsed
            assert thread.remaining >= 0, "compute segment over-ran its deadline"
        thread.cpu_time += elapsed
        cpu.busy_time += elapsed
        self.policy.on_run(thread, elapsed)
        self._cancel_cpu_timers(cpu)
        thread.cpu = None
        cpu.current = None
        self._enqueue_ready(thread, front=requeue_front)

    def _cancel_cpu_timers(self, cpu: _Cpu) -> None:
        # A token may be stale (its event fired, e.g. the completion
        # behind a _compute_done that lost a preemption race); the
        # kernel's generation tag makes cancelling it a no-op.
        if cpu.completion is not None:
            self._cancel_timer(cpu.completion)
            cpu.completion = None
        if cpu.slice_handle is not None:
            self._cancel_timer(cpu.slice_handle)
            cpu.slice_handle = None

    def _compute_done(self, cpu: _Cpu, thread: SimThread) -> None:
        if cpu.current is not thread:  # stale event after a preemption race
            return
        elapsed = self.kernel._now - cpu.dispatch_time
        thread.cpu_time += elapsed
        cpu.busy_time += elapsed
        self.policy.on_run(thread, elapsed)
        thread.remaining = 0
        cpu.completion = None
        self._continue(cpu, thread, None)

    def _slice_expired(self, cpu: _Cpu, thread: SimThread) -> None:
        if cpu.current is not thread:
            return
        cpu.slice_handle = None
        if self.policy.should_rotate(cpu.id, thread):
            self._deschedule_current(cpu, requeue_front=False)
            nxt = self.policy.pick(cpu.id)
            assert nxt is not None
            if nxt is thread:
                # Rotation found nobody better after all; keep running.
                self._install(cpu, thread)
                return
            self._emit_switch(cpu, thread, "R", nxt)
            self._install(cpu, nxt)
            self._request_resched()
        else:
            # Re-arm lazily (see _install): the fresh quantum is queried
            # now -- same instant as the historical eager re-arm, so
            # queue-length-sensitive policies (CFS) see identical state
            # -- but the event is posted only if the in-flight segment
            # crosses the new deadline.  The pending completion predates
            # this instant, so on an exact tie it keeps the smaller
            # sequence number, as it did against the eager re-arm.
            slice_ns = self.policy.timeslice_for(thread)
            deadline = self.kernel._now + slice_ns
            cpu.slice_deadline = deadline
            if cpu.completion is not None and cpu.completion_time >= deadline:
                cpu.slice_handle = self._post_after(
                    slice_ns, self._slice_expired, (cpu, thread)
                )

    # ------------------------------------------------------------------
    # Tracepoint emission
    # ------------------------------------------------------------------

    def _emit_switch(
        self,
        cpu: _Cpu,
        prev: Optional[SimThread],
        prev_state: str,
        nxt: Optional[SimThread],
    ) -> None:
        if prev is nxt:
            return
        self.context_switches += 1
        hooks = self._switch_hooks
        if not hooks:
            return  # no tracepoint consumers: skip record construction
        # tuple.__new__ skips the NamedTuple keyword wrapper -- one
        # record per context switch makes the ~2x difference count.
        record = tuple.__new__(
            SchedSwitch,
            (
                self.kernel._now,
                cpu.id,
                prev.pid if prev else IDLE_PID,
                prev.name if prev else cpu.swapper_comm,
                prev.priority if prev else -1,
                prev_state if prev else "R",
                nxt.pid if nxt else IDLE_PID,
                nxt.name if nxt else cpu.swapper_comm,
                nxt.priority if nxt else -1,
            ),
        )
        for hook in hooks:
            hook(record)

    def _emit_wakeup(self, thread: SimThread) -> None:
        hooks = self._wakeup_hooks
        if not hooks:
            return
        record = tuple.__new__(
            SchedWakeup,
            (
                self.kernel._now,
                thread.cpu,
                thread.pid,
                thread.name,
                thread.priority,
            ),
        )
        for hook in hooks:
            hook(record)
