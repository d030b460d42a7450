"""Event calendar primitives.

The calendar is a binary heap ordered by the explicit key
``(time, priority, sequence)``.  The sequence number guarantees a total,
deterministic order for events scheduled at the same instant, which in turn
makes every simulation run exactly reproducible for a given seed.

The hot path is flattened for large-N simulations:

* heap entries are plain tuples, so ``heapq`` compares ``(time, priority,
  sequence)`` prefixes entirely in C — no Python-level ``__lt__`` is ever
  invoked during sift operations (the sequence is unique, so the comparison
  never reaches the trailing payload elements);
* fire-and-forget callbacks (:meth:`Simulator.post` — message
  deliveries, retransmissions) carry no :class:`Event` object at all, saving
  one allocation per schedule;
* cancelled events no longer rot in the heap: :meth:`EventQueue.cancel`
  triggers a compaction once dead entries outnumber live ones (beyond a
  small threshold), so a workload that arms and cancels many timers keeps
  its heap — and every subsequent push/pop — proportional to the *live*
  event count.

Two entry shapes share one heap (distinguished by tuple length):

* ``(time, priority, sequence, callback, args)`` — fire-and-forget,
* ``(time, priority, sequence, event)`` — cancellable, wrapping an
  :class:`Event` record.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Compaction threshold: never compact below this many dead entries (the
#: rebuild is O(n); tiny heaps are not worth it).
_MIN_COMPACT = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """A single cancellable scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-breaker for events at the same time; lower fires first.
    sequence:
        Monotonically increasing insertion counter; makes ordering total.
    callback:
        Callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    cancelled:
        Set by :meth:`EventQueue.cancel`; cancelled events are skipped.
    fired:
        Set when the event executes; lets handles report that it is spent.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    @property
    def key(self) -> Tuple[float, int, int]:
        """The total-order sort key ``(time, priority, sequence)``."""
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def fire(self) -> Any:
        """Invoke the callback unless the event was cancelled."""
        if self.cancelled:
            return None
        self.fired = True
        return self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:g}, prio={self.priority}, seq={self.sequence}, {state})"


class EventQueue:
    """Deterministic priority queue of scheduled callbacks."""

    __slots__ = ("_heap", "_next_seq", "_live", "_dead", "hwm", "cancelled_total", "compactions")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0  # cancelled Event entries still buried in the heap
        # Always-on telemetry counters (read by repro.obs.telemetry): heap
        # high-water mark, lifetime cancellations, and compaction passes.
        self.hwm = 0
        self.cancelled_total = 0
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self._live > 0

    # ------------------------------------------------------------------ sequencing
    def next_sequence(self) -> int:
        """Consume and return the next insertion sequence number.

        Exposed so cooperating structures (the
        :class:`~repro.sim.timers.TimerWheel`) can draw keys from the *same*
        total order; the engine then merges both heaps by key, which yields
        exactly the firing order a flat schedule would have produced.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    # ------------------------------------------------------------------ insertion
    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> Event:
        """Insert a cancellable event and return it (the cancellation handle)."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        if len(self._heap) > self.hwm:
            self.hwm = len(self._heap)
        return event

    # ------------------------------------------------------------------ cancellation
    def cancel(self, event: Event) -> bool:
        """Mark an event as cancelled.  Returns ``True`` if it was still live."""
        if event.cancelled or event.fired:
            return False
        event.cancelled = True
        self._live -= 1
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
        heap[:] = [entry for entry in heap if len(entry) == 5 or not entry[3].cancelled]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------ removal
    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and len(heap[0]) == 4 and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def peek_key(self) -> Optional[Tuple[float, int, int]]:
        """The ``(time, priority, sequence)`` key of the next live event, or ``None``."""
        heap = self._heap
        while heap and len(heap[0]) == 4 and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        head = heap[0]
        return (head[0], head[1], head[2])

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the next live heap entry, or ``None`` if empty.

        The entry is either ``(time, priority, seq, callback, args)`` or
        ``(time, priority, seq, event)`` — callers dispatch on ``len()``.
        This is the engine's hot path; :meth:`pop` is the compatibility
        wrapper that always returns an :class:`Event`.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 4:
                if entry[3].cancelled:
                    self._dead -= 1
                    continue
            self._live -= 1
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        entry = self.pop_entry()
        if entry is None:
            return None
        if len(entry) == 4:
            return entry[3]
        return Event(entry[0], entry[1], entry[2], entry[3], entry[4])

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0
        self._dead = 0
