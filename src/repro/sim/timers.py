"""Timers: the counted timer front of the calendar, and the restartable timer helpers.

Protocol models arm one or more timers per node (renewals, announcements,
time-outs) through :attr:`Simulator.timers <repro.sim.engine.Simulator.timers>`.
A :class:`TimerWheel` pushes each timer onto the engine's one event heap as
a cancellable ``(time, sequence, event)`` entry, with its sequence number
drawn from the same counter as every other event, so timers and events
fire in one total order: the order of a single flat calendar.  What the
wheel adds is the count of timers scheduled and cancelled (telemetry
``timers.*``); cancellation is the calendar's
(:meth:`~repro.sim.events.EventQueue.cancel`): an O(1) flag, with dead
entries compacted away once they outnumber live ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # imported for annotations only (engine imports this module)
    from repro.sim.engine import Simulator


class TimerWheel:
    """Per-node timers on the engine's event heap, counted for telemetry."""

    __slots__ = ("_sim", "_queue", "scheduled_total", "cancelled_total")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._queue = sim._queue
        # Always-on telemetry counters (read by repro.obs.telemetry).
        self.scheduled_total = 0
        self.cancelled_total = 0

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Arm a timer ``delay`` seconds from now; returns its cancellation record."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.scheduled_total += 1
        return self._queue.push(self._sim._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Arm a timer at absolute ``time``; returns its cancellation record."""
        if time < self._sim._now:
            raise SimulationError(
                f"cannot schedule timer at {time!r}, current time is {self._sim._now!r}"
            )
        self.scheduled_total += 1
        return self._queue.push(time, callback, args)

    def cancel(self, event: Event) -> bool:
        """Disarm a timer.  Returns ``True`` if it was still live."""
        if not self._queue.cancel(event):
            return False
        self.cancelled_total += 1
        return True


class OneShotTimer:
    """A restartable single-shot timer.

    Used by the protocol models for time-outs (e.g. waiting for an
    acknowledgement): :meth:`start` arms the timer, :meth:`cancel` disarms
    it, and re-arming an armed timer replaces the previous deadline.
    """

    __slots__ = ("_wheel", "_callback", "_event")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any]) -> None:
        self._wheel = sim.timers
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """``True`` when a deadline is pending."""
        event = self._event
        return event is not None and not event.cancelled and not event.fired

    def start(self, delay: float, *args: Any) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._wheel.schedule(delay, self._fire, *args)

    def cancel(self) -> None:
        """Disarm the timer if it is armed."""
        event = self._event
        if event is not None:
            self._wheel.cancel(event)
            self._event = None

    def _fire(self, *args: Any) -> None:
        self._event = None
        self._callback(*args)


class PeriodicTimer:
    """A repeating timer with an optional initial offset."""

    __slots__ = ("_wheel", "interval", "_callback", "_event", "_running")

    def __init__(self, sim: "Simulator", interval: float, callback: Callable[[], Any]) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._wheel = sim.timers
        self.interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        """``True`` while the timer is active."""
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking; the first tick fires after ``initial_delay`` (default: one interval)."""
        self.stop()
        self._running = True
        delay = self.interval if initial_delay is None else initial_delay
        self._event = self._wheel.schedule(max(0.0, delay), self._tick)

    def stop(self) -> None:
        """Stop ticking."""
        self._running = False
        event = self._event
        if event is not None:
            self._wheel.cancel(event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback()
        if not self._running:
            return
        self._event = self._wheel.schedule(self.interval, self._tick)
