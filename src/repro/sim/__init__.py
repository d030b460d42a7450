"""Discrete-event simulation kernel.

This package is the substitute for the Rapide ADL tool-suite used by the
paper: a deterministic, single-threaded discrete-event engine with an event
calendar, cancellable timers, per-stream seeded random number generators and
a structured trace log.  All protocol models in :mod:`repro.protocols` are
plain Python state machines driven by this kernel.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.process import Process
from repro.sim.timers import PeriodicTimer, OneShotTimer, TimerWheel
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.tracing import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventQueue",
    "Process",
    "PeriodicTimer",
    "OneShotTimer",
    "TimerWheel",
    "RngRegistry",
    "derive_seed",
    "TraceRecord",
    "Tracer",
]
