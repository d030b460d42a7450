"""The event calendar: one binary heap of plain tuples keyed ``(time, sequence)``.

Every entry draws its sequence number from one counter, so events due at
the same instant fire in the order they were scheduled, which makes every
simulation run exactly reproducible for a given seed.  ``heapq`` compares
the key prefixes entirely in C; the sequence is unique, so a comparison
never reaches the payload.

Two entry shapes share the heap (told apart by tuple length):

* ``(time, sequence, callback, args)`` — fire-and-forget
  (:meth:`~repro.sim.engine.Simulator.post`: message deliveries,
  retransmissions), with no per-event object;
* ``(time, sequence, event)`` — cancellable, wrapping the :class:`Event`
  that :meth:`~repro.sim.engine.Simulator.schedule` and the
  :class:`~repro.sim.timers.TimerWheel` return.

A cancelled event stays in the heap until the run loop pops and drops it,
or until :meth:`EventQueue.cancel` compacts the heap once dead entries
outnumber live ones (beyond a small threshold), so a workload that arms
and cancels many timers keeps the heap proportional to its live entries.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

#: Compaction threshold: never compact below this many dead entries (the
#: rebuild is O(n); tiny heaps are not worth it).
_MIN_COMPACT = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """A cancellable scheduled callback, and the handle to cancel it by.

    Attributes
    ----------
    callback:
        Callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    cancelled:
        Set by :meth:`EventQueue.cancel`; the run loop drops cancelled events.
    fired:
        Set when the event executes; a fired event can no longer be cancelled.
    """

    __slots__ = ("callback", "args", "cancelled", "fired")

    def __init__(self, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False


class EventQueue:
    """The calendar heap, its sequence counter and its cancellation bookkeeping.

    The engine's run loop and posting paths use ``_heap`` and ``_next_seq``
    directly; cancellable entries go through :meth:`push` and :meth:`cancel`.
    """

    __slots__ = ("_heap", "_next_seq", "_dead", "hwm", "cancelled_total", "compactions")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._next_seq = 0
        self._dead = 0  # cancelled events still in the heap
        # Always-on telemetry counters (read by repro.obs.telemetry): heap
        # high-water mark, lifetime cancellations, and compaction passes.
        self.hwm = 0
        self.cancelled_total = 0
        self.compactions = 0

    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()) -> Event:
        """Insert a cancellable event and return it (the cancellation handle)."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(callback, args)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self.hwm:
            self.hwm = len(heap)
        return event

    def cancel(self, event: Event) -> bool:
        """Mark an event as cancelled.  Returns ``True`` if it was still live."""
        if event.cancelled or event.fired:
            return False
        event.cancelled = True
        self._dead += 1
        self.cancelled_total += 1
        if self._dead > _MIN_COMPACT and self._dead * 2 > len(self._heap):
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (heapify is O(n)).

        In place (slice assignment, not rebinding): the engine's run loop
        holds a direct reference to the heap list across the whole run.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if len(entry) == 4 or not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
