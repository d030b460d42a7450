"""Regression battery for the flattened simulator core.

Pins the semantics the large-N hot path must preserve: timers and events
on one heap in one total order, Event cancel/fired state transitions,
fire-and-forget posting, and — critically — that lazy heap compaction
keeps the *same list object*, because the engine's run loop aliases the
heap for the whole run.  ``tests/test_calendar_oracle.py`` checks the
firing order against a reference calendar that shares no code with
:mod:`repro.sim`.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventQueue
from repro.sim.timers import OneShotTimer, PeriodicTimer, TimerWheel


# --------------------------------------------------------------- Event record
def test_event_cancel_and_fired_state_transitions():
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    cancelled = sim.timers.schedule(1.0, lambda: pytest.fail("must not run"))
    assert not fired.cancelled and not fired.fired
    assert sim.timers.cancel(cancelled) is True
    assert cancelled.cancelled and not cancelled.fired
    sim.run()
    assert fired.fired and not fired.cancelled
    assert not cancelled.fired  # cancelled events never execute
    assert sim.executed_events == 1


# ------------------------------------------------------------ one total order
def test_timers_and_events_fire_in_one_total_order():
    """Timers share the calendar's heap and sequence counter: interleaved
    schedules at the same instant fire in program order."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "event-1")
    sim.timers.schedule(1.0, fired.append, "timer-1")
    sim.post(1.0, fired.append, "post-1")
    sim.timers.schedule(1.0, fired.append, "timer-2")
    sim.schedule(1.0, fired.append, "event-2")
    sim.run()
    assert fired == ["event-1", "timer-1", "post-1", "timer-2", "event-2"]
    assert sim.executed_events == 5


def test_run_until_leaves_future_timers_armed():
    sim = Simulator()
    fired = []
    sim.timers.schedule(10.0, fired.append, "late-timer")
    sim.schedule(1.0, fired.append, "early")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    assert [entry[0] for entry in sim._queue._heap] == [10.0]
    sim.run()
    assert fired == ["early", "late-timer"]


def test_timer_wheel_rejects_past_and_negative_times():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.timers.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.timers.schedule_at(9.0, lambda: None)


def test_timer_cancellation_and_live_count():
    """A timer cancellation counts once on the wheel and once on the calendar,
    and leaves one buried entry, which the run loop sheds."""
    sim = Simulator()
    wheel = sim.timers
    queue = sim._queue
    fired = []
    keep = wheel.schedule(2.0, fired.append, "kept")
    drop = wheel.schedule(1.0, fired.append, "dropped")
    assert len(queue._heap) - queue._dead == 2
    assert wheel.cancel(drop) is True
    assert wheel.cancel(drop) is False
    assert len(queue._heap) - queue._dead == 1
    assert (wheel.scheduled_total, wheel.cancelled_total, queue.cancelled_total) == (2, 1, 1)
    sim.run()
    assert fired == ["kept"]
    assert queue._heap == [] and queue._dead == 0
    assert wheel.cancel(keep) is False  # fired timers cannot be cancelled
    assert (wheel.cancelled_total, queue.cancelled_total) == (1, 1)


# ------------------------------------------------- compaction aliasing (bugfix)
def _trigger_compaction(schedule, cancel, count=200):
    """Arm ``count`` timers and cancel them all, crossing the compaction
    threshold (dead > 64 and dead > half the heap)."""
    handles = [schedule(float(i + 1)) for i in range(count)]
    for handle in handles:
        cancel(handle)


def test_wheel_compaction_keeps_heap_list_identity():
    """Compaction must mutate the heap in place: the run loop aliases the
    list, so rebinding it silently orphans every later-scheduled timer."""
    sim = Simulator()
    wheel = sim.timers
    alias = sim._queue._heap
    _trigger_compaction(
        lambda t: wheel.schedule(t, lambda: None),
        wheel.cancel,
    )
    assert sim._queue._heap is alias
    assert sim._queue.compactions >= 1
    assert len(alias) - sim._queue._dead == 0


def test_queue_compaction_keeps_heap_list_identity():
    queue = EventQueue()
    alias = queue._heap
    _trigger_compaction(
        lambda t: queue.push(t, lambda: None),
        queue.cancel,
    )
    assert queue._heap is alias
    assert queue.compactions >= 1
    assert len(alias) - queue._dead == 0


def test_timers_scheduled_after_mid_run_compaction_still_fire():
    """End-to-end form of the aliasing regression: cross the compaction
    threshold while the run loop is active, then re-arm — the re-armed
    timers must still fire."""
    sim = Simulator()
    fired = []

    def churn() -> None:
        _trigger_compaction(
            lambda t: sim.timers.schedule(t + 50.0, lambda: None),
            sim.timers.cancel,
        )
        sim.timers.schedule(1.0, fired.append, "after-wheel-compaction")
        events = [sim.schedule(60.0, lambda: None) for _ in range(200)]
        for event in events:
            sim.cancel(event)
        sim.post(2.0, fired.append, "after-queue-compaction")

    sim.schedule(1.0, churn)
    sim.run(until=100.0)
    assert fired == ["after-wheel-compaction", "after-queue-compaction"]


def test_periodic_timer_survives_heavy_cancellation_churn():
    """A renewal-style periodic timer must keep ticking while other nodes'
    timers are cancelled en masse (the FRODO large-N pattern)."""
    sim = Simulator()
    ticks = []
    renewal = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
    renewal.start()

    churn_timer = PeriodicTimer(sim, 7.0, lambda: _trigger_compaction(
        lambda t: sim.timers.schedule(t + 100.0, lambda: None),
        sim.timers.cancel,
        count=80,
    ))
    churn_timer.start()
    sim.run(until=100.0)
    assert ticks == [10.0 * i for i in range(1, 11)]


# ----------------------------------------------------------- timer helpers
def test_one_shot_timer_restart_replaces_deadline():
    sim = Simulator()
    fired = []
    timer = OneShotTimer(sim, lambda tag: fired.append((sim.now, tag)))
    timer.start(5.0, "first")
    assert timer.armed
    timer.start(2.0, "second")  # re-arm replaces the pending deadline
    sim.run()
    assert fired == [(2.0, "second")]
    assert not timer.armed


def test_one_shot_timer_cancel_disarms():
    sim = Simulator()
    timer = OneShotTimer(sim, lambda: pytest.fail("must not fire"))
    timer.start(1.0)
    timer.cancel()
    assert not timer.armed
    sim.run()


def test_periodic_timer_initial_delay_and_stop():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
    timer.start(initial_delay=3.0)
    assert timer.running
    sim.schedule(25.0, timer.stop)
    sim.run(until=100.0)
    assert ticks == [3.0, 13.0, 23.0]
    assert not timer.running


def test_fresh_wheel_belongs_to_its_simulator():
    sim = Simulator()
    assert isinstance(sim.timers, TimerWheel)
    other = Simulator()
    assert other.timers is not sim.timers


# ------------------------------------------------------------- batched posting
def _queue_state(sim):
    queue = sim._queue
    return list(queue._heap), queue._next_seq, queue.hwm


def test_post_each_matches_sequential_posts():
    """One post_each call leaves the heap, sequence counter and high-water
    mark exactly as one post per pair would, and the callbacks fire in the
    same order."""
    delays = [3e-5, 1e-5, 9e-5, 1e-5, 0.0]
    fired = []
    callbacks = [lambda tag, i=i: fired.append((i, tag)) for i in range(len(delays))]

    def earlier():
        fired.append("earlier")

    def build(batched):
        sim = Simulator(start_time=2.0)
        sim.post(5e-5, earlier)  # a non-empty heap to push into
        if batched:
            sim.post_each(delays, callbacks, "msg")
        else:
            for delay, callback in zip(delays, callbacks):
                sim.post(delay, callback, "msg")
        return sim

    batched, sequential = build(True), build(False)
    assert _queue_state(batched) == _queue_state(sequential)
    assert _queue_state(batched)[1:] == (6, 6)
    batched.run()
    batched_order = list(fired)
    fired.clear()
    sequential.run()
    assert batched_order == fired
    assert fired == [(4, "msg"), (1, "msg"), (3, "msg"), (0, "msg"), "earlier", (2, "msg")]
    assert batched.executed_events == sequential.executed_events == 6


@pytest.mark.parametrize(
    "delays,n_callbacks,error",
    [([1.0, 2.0], 3, ValueError), ([1.0, -1e-9, 2.0], 3, SimulationError)],
)
def test_post_each_rejects_bad_batches_without_pushing(delays, n_callbacks, error):
    sim = Simulator()
    sim.post(1.0, lambda: None)
    before = _queue_state(sim)
    with pytest.raises(error):
        sim.post_each(delays, [lambda: None] * n_callbacks)
    assert _queue_state(sim) == before  # nothing pushed, no sequence consumed
