"""ROS2 timers.

A timer marks itself ready at a fixed period on the simulation kernel and
notifies its node's executor.  Dispatch happens through
``rclcpp:execute_timer`` (probes P2/P4), which calls ``rcl:rcl_timer_call``
(probe P3 -- the event carrying the timer callback's ID).
"""

from __future__ import annotations

from typing import Callable


class Timer:
    """A periodic timer callback owned by a node.

    Parameters
    ----------
    node:
        Owning node.
    period_ns:
        Invocation period.
    callback:
        ``callback(api, msg=None)``; may be a generator yielding
        :class:`~repro.sim.threads.Compute` requests.
    cb_id:
        Stable callback identifier (the "address" reported by P3).
    phase_ns:
        Offset of the first tick relative to node start.
    """

    def __init__(
        self,
        node,
        period_ns: int,
        callback: Callable,
        cb_id: str,
        phase_ns: int = 0,
    ):
        if period_ns <= 0:
            raise ValueError("timer period must be positive")
        if phase_ns < 0:
            raise ValueError("timer phase must be >= 0")
        self.node = node
        self.period_ns = period_ns
        self.callback = callback
        self.cb_id = cb_id
        self.phase_ns = phase_ns
        self.ready = False
        self.ticks = 0
        self.dispatched = 0
        self._started = False

    def _start(self) -> None:
        """Arm the first tick (called when the node's executor boots)."""
        if self._started:
            return
        self._started = True
        # Cache the token-API arming call for the per-tick re-arm.
        self._arm = self.node.world.kernel.post_after
        self._arm(self.phase_ns, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        self.ready = True
        self.node.executor.notify()
        self._arm(self.period_ns, self._tick)

    def _rcl_call(self, timer: "Timer") -> str:
        """``rcl_timer_call``: consume readiness, return the CB id (P3)."""
        self.ready = False
        self.dispatched += 1
        return self.cb_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timer({self.cb_id}, period={self.period_ns})"
