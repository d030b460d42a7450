"""The simulation engine.

:class:`Simulator` owns the clock and the event calendar: one heap of
``(time, sequence, ...)`` tuples (see :mod:`repro.sim.events`), which the
run loop pops in key order.  Models put callbacks on it in three ways:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return the
  :class:`~repro.sim.events.Event`, which :meth:`Simulator.cancel` disarms
  — use these when the caller may need to cancel the callback;
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the
  fire-and-forget tier (message deliveries, retransmissions): no handle and
  no per-event object is allocated, which is what keeps large-N simulations
  (thousands of in-flight deliveries) cheap; :meth:`Simulator.post_each`
  posts a batch of them (one multicast copy's deliveries) in one call;
* per-node timers go through :attr:`Simulator.timers`, a
  :class:`~repro.sim.timers.TimerWheel` that schedules cancellable entries
  on the same heap and counts them.

A caller that consumed a post's key without pushing it (the network
absorbing an announcement copy, see :class:`~repro.net.network.Network`)
uses :attr:`Simulator.firing` and :meth:`Simulator.has_fired` to tell
whether that post would already have fired, :attr:`Simulator.bound` to
keep it inside the run, and :meth:`Simulator.post_reserved` to put it on
the calendar after all.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional, Sequence

from repro.sim.events import Event, EventQueue, SimulationError
from repro.sim.tracing import Tracer

__all__ = ["SimulationError", "Simulator"]


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    tracer:
        Optional :class:`~repro.sim.tracing.Tracer` used by models to record
        structured events.  When omitted, the run traces nothing.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_stopped",
        "tracer",
        "executed_events",
        "timers",
        "firing",
        "bound",
    )

    def __init__(self, start_time: float = 0.0, tracer: Optional[Tracer] = None) -> None:
        # Imported here (not at module top) to break the engine <-> timers cycle:
        # timers needs engine types only for annotations.
        from repro.sim.timers import TimerWheel

        self._now = float(start_time)
        self._queue = EventQueue()
        self._stopped = False
        self.tracer = tracer if tracer is not None else Tracer()
        self.executed_events = 0
        #: Counted per-node timers on the event heap (see :mod:`repro.sim.timers`).
        self.timers = TimerWheel(self)
        #: Heap entry of the event being executed, or of the last one; after
        #: a run that reached its bound, ``(until, inf)``.  Keys compare
        #: against it by tuple order (see :meth:`has_fired`).
        self.firing: tuple = (-inf,)
        #: The ``until`` of the run in progress; ``-inf`` outside a run and
        #: in a run without a bound.
        self.bound = -inf

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, current time is {self._now!r}"
            )
        return self._queue.push(time, callback, args)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no per-event allocation.

        The push is inlined (no :class:`EventQueue` method call): deliveries
        run through here once per message on the hot path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heap = queue._heap
        heappush(heap, (self._now + delay, seq, callback, args))
        if len(heap) > queue.hwm:
            queue.hwm = len(heap)

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
            heappush(heap, (now + delay, seq, callback, args))
        queue._next_seq = first + count
        if len(heap) > queue.hwm:
            queue.hwm = len(heap)

    def post_reserved(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Post ``callback(*args)`` under the key ``(time, sequence)`` drawn earlier.

        The sequence number is not drawn again: the event takes the place it
        would have had if it had been posted when its key was drawn.  The
        key must follow the firing event's.
        """
        if self.has_fired(time, sequence):
            raise SimulationError(f"key ({time!r}, {sequence!r}) does not follow the firing event")
        queue = self._queue
        heap = queue._heap
        heappush(heap, (time, sequence, callback, args))
        if len(heap) > queue.hwm:
            queue.hwm = len(heap)

    def has_fired(self, time: float, sequence: int) -> bool:
        """``True`` when a post keyed ``(time, sequence)`` would have fired by now.

        That is, when its key precedes the firing event's in heap order.
        """
        return (time, sequence) < self.firing

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, no per-event allocation."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, current time is {self._now!r}"
            )
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heap = queue._heap
        heappush(heap, (time, seq, callback, args))
        if len(heap) > queue.hwm:
            queue.hwm = len(heap)

    def cancel(self, event: Event) -> bool:
        """Cancel an event that :meth:`schedule` or :meth:`schedule_at` returned.

        Returns ``True`` if it was still live.  Timers are cancelled through
        :attr:`timers`, which counts them.
        """
        return self._queue.cancel(event)

    # --------------------------------------------------------------- execution
    def run(self, until: Optional[float] = None) -> float:
        """Run until the calendar empties or the clock reaches ``until``.

        Returns the final simulation time.  When ``until`` is given the clock
        is advanced to exactly ``until`` even if the last event fired earlier,
        and :attr:`bound` holds it while the loop runs.  The heap is accessed
        directly here — this loop is the simulation's hot path.
        """
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        # ``inf`` sentinel keeps the per-event bound check to one C-level
        # float comparison instead of an ``is not None`` test plus a compare.
        limit = inf if until is None else until
        self.bound = -inf if until is None else until
        pop = heappop
        executed = 0
        try:
            while heap and not self._stopped:
                entry = pop(heap)
                time = entry[0]
                if time > limit:
                    heappush(heap, entry)
                    break
                if len(entry) == 4:
                    self._now = time
                    self.firing = entry
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    if event.cancelled:
                        queue._dead -= 1
                        continue
                    self._now = time
                    self.firing = entry
                    event.fired = True
                    event.callback(*event.args)
                executed += 1
        finally:
            self.executed_events += executed
            self.bound = -inf
        if until is not None and not self._stopped:
            # Every event due by the bound has fired.
            self.firing = (until, inf)
            if self._now < until:
                self._now = until
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the current event.

        Announcement copies the network absorbed for later times (see
        :class:`~repro.net.network.Network`) stay counted as received: a
        run whose counters are read ends at its bound, as every cell does.
        """
        self._stopped = True

    # ------------------------------------------------------------------ helpers
    def trace(self, category: str, event: str, **fields: Any) -> None:
        """Record a structured trace entry at the current simulation time."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(self._now, category, event, **fields)
