"""Operating-system substrate: discrete-event kernel, threads, scheduler
and workload models.

This package replaces the Linux 5.4 box of the paper.  It produces the
same observable artefacts the paper's kernel tracer consumes -- most
importantly the ``sched_switch`` event stream -- from a deterministic
simulation.
"""

from .kernel import EventHandle, MSEC, SEC, SimKernel, USEC
from .policies import (
    CompletelyFair,
    EarliestDeadlineFirst,
    POLICIES,
    POLICY_NAMES,
    PriorityRoundRobin,
    SchedulingPolicy,
    ShortestJobFirst,
    make_policy,
)
from .scheduler import (
    DEFAULT_TIMESLICE,
    IDLE_PID,
    SchedSwitch,
    SchedWakeup,
    Scheduler,
)
from .threads import (
    Block,
    Compute,
    SchedPolicy,
    SimThread,
    ThreadSchedParams,
    ThreadState,
    YieldCpu,
)
from .workload import (
    Constant,
    Empirical,
    Hooked,
    Mixture,
    Scaled,
    ShiftedLognormal,
    TruncatedNormal,
    Uniform,
    WorkloadModel,
    ms,
    us,
)

__all__ = [
    "EventHandle",
    "MSEC",
    "SEC",
    "SimKernel",
    "USEC",
    "DEFAULT_TIMESLICE",
    "IDLE_PID",
    "SchedSwitch",
    "SchedWakeup",
    "Scheduler",
    "CompletelyFair",
    "EarliestDeadlineFirst",
    "POLICIES",
    "POLICY_NAMES",
    "PriorityRoundRobin",
    "SchedulingPolicy",
    "ShortestJobFirst",
    "make_policy",
    "Block",
    "Compute",
    "SchedPolicy",
    "SimThread",
    "ThreadSchedParams",
    "ThreadState",
    "YieldCpu",
    "Constant",
    "Empirical",
    "Hooked",
    "Mixture",
    "Scaled",
    "ShiftedLognormal",
    "TruncatedNormal",
    "Uniform",
    "WorkloadModel",
    "ms",
    "us",
]
