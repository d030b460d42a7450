"""Lightweight process abstraction.

A :class:`Process` is a named component attached to a simulator: protocol
nodes, failure injectors and scenario drivers derive from it.  It provides
start/stop lifecycle hooks and convenience scheduling that automatically
tags trace records with the process name.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.sim.engine import Simulator
from repro.sim.events import Event

#: :meth:`Process.after` drops spent events from its list once the list
#: passes this length and has doubled since the last prune.
_PRUNE_FLOOR = 256


class Process:
    """Base class for simulation components with a lifecycle."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.started = False
        self.stopped = False
        self._owned: List[Event] = []
        self._prune_at = _PRUNE_FLOOR

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the process; idempotent."""
        if self.started:
            return
        self.started = True
        self.on_start()

    def stop(self) -> None:
        """Stop the process and cancel any events it scheduled through :meth:`after`."""
        if self.stopped:
            return
        self.stopped = True
        for event in self._owned:
            self.sim.cancel(event)
        self._owned.clear()
        self.on_stop()

    def restart(self) -> None:
        """Start the process again after :meth:`stop` (churn rejoin).

        Clears the stopped flag and re-runs :meth:`on_start`, so a protocol
        node bootstraps from scratch — re-announcing, re-registering and
        re-arming its timers.  A process that is already running is left
        alone.
        """
        if self.started and not self.stopped:
            return
        self.stopped = False
        self.started = True
        self.on_start()

    def on_start(self) -> None:  # pragma: no cover - default no-op
        """Hook invoked by :meth:`start`."""

    def on_stop(self) -> None:  # pragma: no cover - default no-op
        """Hook invoked by :meth:`stop`."""

    # ------------------------------------------------------------------ scheduling
    @property
    def now(self) -> float:
        """Current simulation time (read from the clock slot: handlers ask often)."""
        return self.sim._now

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule a callback owned by this process (cancelled on :meth:`stop`).

        Spent events leave the owned list only once it has doubled since
        the last prune, so arming ``n`` events rebuilds it O(log n) times
        and the list stays within twice its length after that prune.
        """
        event = self.sim.schedule(delay, callback, *args)
        owned = self._owned
        owned.append(event)
        if len(owned) > self._prune_at:
            owned = self._owned = [e for e in owned if not e.cancelled and not e.fired]
            self._prune_at = max(_PRUNE_FLOOR, 2 * len(owned))
        return event

    def trace(self, event: str, **fields: Any) -> None:
        """Record a trace entry under this process's name."""
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.record(self.sim._now, self.name, event, **fields)
