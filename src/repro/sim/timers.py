"""Timers: a batched timer wheel plus the restartable timer helpers.

Protocol models arm one or more timers per node (renewals, announcements,
time-outs).  Scheduling each of those directly on the engine calendar makes
the main heap — and every push/pop — scale with *nodes x timers*, which
dominates large-N runs, and a cancel/restart-heavy protocol leaves the heap
full of dead entries.  The :class:`TimerWheel` keeps all timers in a separate
heap that the engine's run loop merges with the event calendar by key, so
timer churn never touches the (much larger) event heap.

Determinism contract
--------------------
The wheel preserves the *exact* firing order of flat per-timer scheduling:
every timer draws its ``(time, priority, sequence)`` key from the engine
queue's own sequence counter
(:meth:`~repro.sim.events.EventQueue.next_sequence`), so timers and ordinary
events share one total order, assigned in the same program order as a flat
schedule would assign it.  The engine fires whichever of the two heap heads
has the smaller key — a two-way merge that reproduces the single-heap order
event for event (``executed_events`` included).

Cancellation is an O(1) flag; dead timers are compacted away once they
outnumber live ones.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.sim.events import Event, SimulationError

if TYPE_CHECKING:  # imported for annotations only (engine imports this module)
    from repro.sim.engine import Simulator

#: Compaction threshold for cancelled wheel entries (mirrors the event queue).
_MIN_COMPACT = 64


class TimerWheel:
    """Heap of per-node timers, merged with the event calendar by the engine.

    The engine run loop reads ``_heap``/``_live``/``_dead`` directly on its
    hot path; everything else goes through the methods below.
    """

    __slots__ = (
        "_sim",
        "_queue",
        "_heap",
        "_live",
        "_dead",
        "hwm",
        "scheduled_total",
        "cancelled_total",
        "compactions",
    )

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._queue = sim._queue
        self._heap: List[tuple] = []  # (time, priority, sequence, Event)
        self._live = 0
        self._dead = 0
        # Always-on telemetry counters (read by repro.obs.telemetry).
        self.hwm = 0
        self.scheduled_total = 0
        self.cancelled_total = 0
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self._live > 0

    # ------------------------------------------------------------------ scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Arm a timer ``delay`` seconds from now; returns its cancellation record.

        :meth:`schedule_at`'s body, inlined: every renewal and announcement
        re-arms through here, so it costs one Python frame, not two.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._sim._now + delay
        queue = self._queue
        sequence = queue._next_seq
        queue._next_seq = sequence + 1
        event = Event(time, priority, sequence, callback, args)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        self.scheduled_total += 1
        if len(self._heap) > self.hwm:
            self.hwm = len(self._heap)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Arm a timer at absolute ``time``; returns its cancellation record."""
        if time < self._sim._now:
            raise SimulationError(
                f"cannot schedule timer at {time!r}, current time is {self._sim._now!r}"
            )
        # Sequence draw inlined from EventQueue.next_sequence(): timers are
        # re-armed once per lease renewal, which is hot at large N.
        queue = self._queue
        sequence = queue._next_seq
        queue._next_seq = sequence + 1
        event = Event(time, priority, sequence, callback, args)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        self.scheduled_total += 1
        if len(self._heap) > self.hwm:
            self.hwm = len(self._heap)
        return event

    def cancel(self, event: Event) -> bool:
        """Disarm a timer.  Returns ``True`` if it was still live."""
        if event.cancelled or event.fired:
            return False
        event.cancelled = True
        self._live -= 1
        self._dead += 1
        self.cancelled_total += 1
        if self._dead > _MIN_COMPACT and self._dead * 2 > len(self._heap):
            # In place (slice assignment, not rebinding): the engine's run
            # loop holds a direct reference to this list across the run.
            heap = self._heap
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
            self._dead = 0
            self.compactions += 1
        return True

    # ------------------------------------------------------------------ inspection
    def peek(self) -> Optional[tuple]:
        """The next live ``(time, priority, sequence, Event)`` entry, or ``None``.

        Skips (and drops) cancelled heads as a side effect, so the head it
        returns is always live.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0] if heap else None

    def pop(self) -> None:
        """Remove the head entry previously returned by :meth:`peek`."""
        heapq.heappop(self._heap)
        self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live timer, or ``None`` when idle."""
        entry = self.peek()
        return None if entry is None else entry[0]

    def clear(self) -> None:
        """Drop all pending timers."""
        self._heap.clear()
        self._live = 0
        self._dead = 0


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
    """A repeating timer with optional initial offset and per-tick jitter."""

    __slots__ = ("_wheel", "interval", "_callback", "_jitter", "_event", "_running")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._wheel = sim.timers
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
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
        delay = self.interval
        if self._jitter is not None:
            delay = max(0.0, delay + self._jitter())
        self._event = self._wheel.schedule(delay, self._tick)
