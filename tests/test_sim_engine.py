"""Unit tests for the discrete-event kernel (ordering, cancellation, run-until)."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Process


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0
    assert sim.executed_events == 3


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "first-inserted")
    sim.post(1.0, fired.append, "second-inserted")
    sim.schedule(0.5, fired.append, "earlier")
    sim.schedule(1.0, fired.append, "third-inserted")
    sim.run()
    assert fired == ["earlier", "first-inserted", "second-inserted", "third-inserted"]


def test_negative_delay_and_past_scheduling_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(9.0, lambda: None)


def test_cancellation_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    assert not event.cancelled
    assert sim.cancel(event) is True
    assert event.cancelled
    assert sim.cancel(event) is False  # second cancel reports "was not live"
    sim.run()
    assert fired == ["kept"]
    assert not event.fired


def test_handle_inactive_after_firing():
    """An event reports itself spent once it fired, and cannot be cancelled then."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    assert not event.fired
    sim.run()
    assert event.fired
    # Cancelling a fired event is a no-op and must not count as a buried
    # cancellation (that count drives compaction).
    assert sim.cancel(event) is False
    assert not event.cancelled
    assert sim._queue._dead == 0 and sim._queue.cancelled_total == 0


def test_run_until_advances_clock_to_deadline():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    end = sim.run(until=50.0)
    assert fired == ["early"]
    assert end == 50.0
    assert sim.now == 50.0
    assert [entry[0] for entry in sim._queue._heap] == [100.0]  # still scheduled
    sim.run()
    assert fired == ["early", "late"]


def test_stop_halts_run_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.now == 2.0


def test_event_queue_live_count_with_cancellations():
    """The heap's live count is its length less the buried cancellations,
    which the run loop sheds as it pops them."""
    sim = Simulator()
    queue = sim._queue
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert len(queue._heap) - queue._dead == 2
    assert queue.cancel(first) is True
    assert queue.cancel(first) is False
    assert len(queue._heap) - queue._dead == 1
    sim.run()
    assert sim.now == 2.0 and sim.executed_events == 1
    assert queue._heap == [] and queue._dead == 0


def test_process_after_rebuilds_its_owned_list_logarithmically():
    """Arming n live events through ``Process.after`` rebuilds the owned list
    O(log n) times (once per doubling), not once per call past 256."""
    sim = Simulator()
    process = Process(sim, "injector")
    owned, rebuilds = process._owned, 0
    for index in range(10_000):
        process.after(1.0 + index, lambda: None)
        if process._owned is not owned:
            owned, rebuilds = process._owned, rebuilds + 1
    assert len(owned) == 10_000
    assert 0 < rebuilds <= math.log2(10_000)
    # Spent events leave at the next rebuild; stop cancels only live ones.
    sim.run(until=9_000.0)
    for index in range(10_000):
        process.after(20_000.0 + index, lambda: None)
    assert len(process._owned) == 1_000 + 10_000
    assert not any(event.fired for event in process._owned)
    executed = sim.executed_events
    process.stop()
    sim.run()
    assert sim.executed_events == executed
