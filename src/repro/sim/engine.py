"""The simulation engine.

:class:`Simulator` owns the clock and the event calendar.  Protocol models
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the engine executes them in
deterministic time order.

Two scheduling tiers exist:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` for cancellation — use these when the caller may need
  to disarm the callback;
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the flattened
  fire-and-forget tier (message deliveries, retransmissions): no handle and
  no per-event object is allocated, which is what keeps large-N simulations
  (thousands of in-flight deliveries) cheap; :meth:`Simulator.post_each`
  posts a batch of them (one multicast copy's deliveries) in one call.

Per-node timers go through :attr:`Simulator.timers` — a
:class:`~repro.sim.timers.TimerWheel` holding a separate heap that the run
loop merges with the event calendar by ``(time, priority, sequence)`` key.
Both heaps draw sequence numbers from one shared counter, so the merged
firing order is exactly the order a single flat calendar would produce.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional, Sequence

from repro.sim.events import Event, EventQueue, SimulationError
from repro.sim.tracing import Tracer

__all__ = ["EventHandle", "SimulationError", "Simulator"]


class EventHandle:
    """Opaque handle returned by the scheduling API; supports cancellation."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: EventQueue) -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """Absolute time at which the underlying event fires."""
        return self._event.time

    @property
    def active(self) -> bool:
        """``True`` while the event has not been cancelled or fired."""
        event = self._event
        return not event.cancelled and not event.fired

    def cancel(self) -> bool:
        """Cancel the scheduled event.  Returns ``True`` if it was still live."""
        return self._queue.cancel(self._event)


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    tracer:
        Optional :class:`~repro.sim.tracing.Tracer` used by models to record
        structured events.  A fresh tracer is created when omitted.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_running",
        "_stopped",
        "tracer",
        "executed_events",
        "timers",
    )

    def __init__(self, start_time: float = 0.0, tracer: Optional[Tracer] = None) -> None:
        # Imported here (not at module top) to break the engine <-> timers cycle:
        # timers needs engine types only for annotations.
        from repro.sim.timers import TimerWheel

        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.tracer = tracer if tracer is not None else Tracer()
        self.executed_events = 0
        #: Batched timer wheel for per-node timers (see :mod:`repro.sim.timers`).
        self.timers = TimerWheel(self)

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (not yet fired, not cancelled) events, timers included."""
        return len(self._queue) + len(self.timers)

    # -------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        queue = self._queue
        return EventHandle(queue.push(self._now + delay, callback, args, priority), queue)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, current time is {self._now!r}"
            )
        queue = self._queue
        return EventHandle(queue.push(time, callback, args, priority), queue)

    def post(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no per-event allocation.

        The push is inlined (no :meth:`EventQueue.push_call` hop): deliveries
        run through here once per message on the hot path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (self._now + delay, priority, seq, callback, args))
        queue._live += 1
        if len(queue._heap) > queue.hwm:
            queue.hwm = len(queue._heap)

    def post_each(
        self,
        delays: Sequence[float],
        callbacks: Sequence[Callable[..., Any]],
        *args: Any,
    ) -> None:
        """Post ``callbacks[i](*args)`` after ``delays[i]``, for every ``i`` in order.

        Leaves exactly the heap entries, sequence numbers and counters that
        calling :meth:`post` once per pair would, with one length check, one
        negative-delay check and one counter update: a multicast copy posts
        its deliveries here in a single call.  Raises before pushing
        anything when the lengths differ or a delay is negative.
        """
        count = len(delays)
        if len(callbacks) != count:
            raise ValueError(f"{count} delays for {len(callbacks)} callbacks")
        if count and min(delays) < 0:
            raise SimulationError(f"negative delay {min(delays)!r}")
        queue = self._queue
        heap = queue._heap
        now = self._now
        first = queue._next_seq
        for seq, delay, callback in zip(range(first, first + count), delays, callbacks):
            heappush(heap, (now + delay, 0, seq, callback, args))
        queue._next_seq = first + count
        queue._live += count
        if len(heap) > queue.hwm:
            queue.hwm = len(heap)

    def post_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, no per-event allocation."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, current time is {self._now!r}"
            )
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (time, priority, seq, callback, args))
        queue._live += 1
        if len(queue._heap) > queue.hwm:
            queue.hwm = len(queue._heap)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a previously scheduled event."""
        return handle.cancel()

    # --------------------------------------------------------------- execution
    def step(self) -> bool:
        """Execute the single next event (or timer).  Returns ``False`` when none remain."""
        timers = self.timers
        tentry = timers.peek()
        if tentry is not None:
            key = self._queue.peek_key()
            if key is None or (tentry[0], tentry[1], tentry[2]) < key:
                timers.pop()
                self._now = tentry[0]
                event = tentry[3]
                event.fired = True
                event.callback(*event.args)
                self.executed_events += 1
                return True
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        if entry[0] < self._now:  # pragma: no cover - defensive
            raise SimulationError("event calendar went backwards")
        self._now = entry[0]
        if len(entry) == 5:
            entry[3](*entry[4])
        else:
            event = entry[3]
            event.fired = True
            event.callback(*event.args)
        self.executed_events += 1
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the calendars empty or the clock reaches ``until``.

        Returns the final simulation time.  When ``until`` is given the clock
        is advanced to exactly ``until`` even if the last event fired earlier.

        The loop is a two-way merge of the event heap and the timer-wheel
        heap: both hold ``(time, priority, sequence, ...)`` tuples keyed from
        one shared sequence counter, so comparing their heads picks the exact
        event a single flat calendar would have fired next.  The heaps are
        accessed directly here — this loop is the simulation's hot path.
        """
        self._running = True
        self._stopped = False
        queue = self._queue
        timers = self.timers
        qheap = queue._heap
        theap = timers._heap
        # ``inf`` sentinel keeps the per-event bound check to one C-level
        # float comparison instead of an ``is not None`` test plus a compare.
        limit = inf if until is None else until
        pop = heappop
        executed = 0
        try:
            while not self._stopped:
                # Drop cancelled heads so the head comparison sees live work.
                # ``_dead`` counts buried cancellations, so a zero counter
                # proves the head is live without inspecting it.
                if queue._dead:
                    while qheap and len(qheap[0]) == 4 and qheap[0][3].cancelled:
                        pop(qheap)
                        queue._dead -= 1
                if timers._dead:
                    while theap and theap[0][3].cancelled:
                        pop(theap)
                        timers._dead -= 1
                if theap:
                    thead = theap[0]
                    # Tuple comparison stays in C: sequences are unique across
                    # both heaps, so it never reaches the payload elements.
                    if not qheap or thead < qheap[0]:
                        time = thead[0]
                        if time > limit:
                            break
                        pop(theap)
                        timers._live -= 1
                        self._now = time
                        event = thead[3]
                        event.fired = True
                        event.callback(*event.args)
                        executed += 1
                        continue
                if not qheap:
                    break
                entry = pop(qheap)
                time = entry[0]
                if time > limit:
                    heappush(qheap, entry)
                    break
                queue._live -= 1
                self._now = time
                if len(entry) == 5:
                    entry[3](*entry[4])
                else:
                    event = entry[3]
                    event.fired = True
                    event.callback(*event.args)
                executed += 1
        finally:
            self._running = False
            self.executed_events += executed
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------ helpers
    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, callback, *args)

    def trace(self, category: str, event: str, **fields: Any) -> None:
        """Record a structured trace entry at the current simulation time."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(self._now, category, event, **fields)
