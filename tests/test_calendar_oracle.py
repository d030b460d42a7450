"""The event calendar against a reference that shares no code with ``repro.sim``.

Each seeded program mixes every way onto the calendar (``schedule``,
``schedule_at``, ``timers.schedule``, ``timers.schedule_at``, ``post``,
``post_at`` and ``post_each``) with cancellations, of live events and of
events that already fired or were already cancelled.  Callbacks schedule
more work, often at the same instant, and sometimes arm and cancel enough
events to cross the compaction threshold while the loop runs.  The run is
split into ``run(until=)`` segments, some of which end exactly at an
event's time, and then drained.

The reference is a plain list: the next event is its ``min()`` by
``(time, draw index)``, where the draw index counts every entry put on
the calendar, in program order.  Both sides run the same program from the
same seed and must log the same fired tags at the same times, the same
cancellation outcomes, and the same ``executed_events`` and ``now`` after
every segment.

The tier-1 test runs 200 programs; ``python tests/test_calendar_oracle.py
[COUNT]`` runs COUNT programs (default 5,000).
"""

import random
import sys
from functools import partial

from repro.sim.engine import Simulator

#: Tier-1 program count.
TIER1_PROGRAMS = 200
#: Delays in seconds: exact binary fractions, with many repeats and zeros,
#: so that events tie on their time.
DELAYS = (0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0)
#: Events one mass cancellation arms and cancels: more than the 64 dead
#: entries the engine waits for before it compacts.
MASS = (80, 160)


class Engine:
    """The calendar under test: a fresh :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()
        self.compacted_in_loop = 0  # compactions while ``run`` was on the stack

    @property
    def now(self):
        return self.sim.now

    @property
    def executed(self):
        return self.sim.executed_events

    def schedule(self, delay, callback, *args):
        return self.sim.cancel, self.sim.schedule(delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        return self.sim.cancel, self.sim.schedule_at(time, callback, *args)

    def timer(self, delay, callback, *args):
        return self.sim.timers.cancel, self.sim.timers.schedule(delay, callback, *args)

    def timer_at(self, time, callback, *args):
        return self.sim.timers.cancel, self.sim.timers.schedule_at(time, callback, *args)

    def post(self, delay, callback, *args):
        self.sim.post(delay, callback, *args)

    def post_at(self, time, callback, *args):
        self.sim.post_at(time, callback, *args)

    def post_each(self, delays, callbacks, *args):
        self.sim.post_each(delays, callbacks, *args)

    def cancel(self, handle):
        cancel, event = handle
        return cancel(event)

    def run(self, until=None):
        before = self.sim._queue.compactions
        end = self.sim.run(until=until)
        self.compacted_in_loop += self.sim._queue.compactions - before
        return end


class Reference:
    """A plain list of ``[time, draw index, callback, args]`` entries."""

    def __init__(self):
        self.now = 0.0
        self.executed = 0
        self.pending = []
        self.draws = 0

    def _add(self, time, callback, args):
        entry = [time, self.draws, callback, args]
        self.draws += 1
        self.pending.append(entry)
        return entry

    def schedule(self, delay, callback, *args):
        return self._add(self.now + delay, callback, args)

    def schedule_at(self, time, callback, *args):
        return self._add(time, callback, args)

    timer = schedule
    timer_at = schedule_at
    post = schedule
    post_at = schedule_at

    def post_each(self, delays, callbacks, *args):
        for delay, callback in zip(delays, callbacks):
            self._add(self.now + delay, callback, args)

    def cancel(self, entry):
        # Draw indices are unique, so ``in`` and ``remove`` find only ``entry``.
        if entry not in self.pending:
            return False
        self.pending.remove(entry)
        return True

    def run(self, until=None):
        while self.pending:
            entry = min(self.pending)  # by time, then draw index
            if until is not None and entry[0] > until:
                break
            self.pending.remove(entry)
            self.now = entry[0]
            self.executed += 1
            entry[2](*entry[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now


class Program:
    """One seeded program; every random draw happens in firing order."""

    def __init__(self, seed, calendar):
        self.rng = random.Random(seed)
        self.calendar = calendar
        self.log = []
        self.handles = []  # (tag, handle) of every cancellable entry
        self.tags = 0
        self.budget = self.rng.randint(20, 200)

    def tag(self):
        self.tags += 1
        self.budget -= 1
        return self.tags

    def fire(self, tag, *args):
        self.log.append((tag, self.calendar.now) + args)
        rng = self.rng
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                self.act()

    def act(self):
        """One random calendar operation."""
        rng, calendar = self.rng, self.calendar
        op = rng.randrange(10) if self.budget > 0 else 0
        if op == 0 and self.handles:
            tag, handle = rng.choice(self.handles)
            self.log.append(("cancel", tag, calendar.cancel(handle)))
        elif op == 1 and rng.random() < 0.1:
            self.mass_cancel()
        elif op in (1, 2, 3, 4):
            schedule = (calendar.schedule, calendar.timer)[op % 2]
            schedule_at = (calendar.schedule_at, calendar.timer_at)[op % 2]
            tag = self.tag()
            delay = rng.choice(DELAYS)
            if op < 3:
                handle = schedule(delay, self.fire, tag)
            else:
                handle = schedule_at(calendar.now + delay, self.fire, tag)
            self.handles.append((tag, handle))
        elif op in (5, 6):
            calendar.post(rng.choice(DELAYS), self.fire, self.tag(), "post")
        elif op == 7:
            calendar.post_at(calendar.now + rng.choice(DELAYS), self.fire, self.tag())
        elif op == 8:
            count = rng.randint(0, 5)
            callbacks = [partial(self.fire, self.tag()) for _ in range(count)]
            calendar.post_each([rng.choice(DELAYS) for _ in range(count)], callbacks, "each")

    def mass_cancel(self):
        """Arm a batch of later events and timers, then cancel every one."""
        rng, calendar = self.rng, self.calendar
        batch = []
        for _ in range(rng.randint(*MASS)):
            schedule = rng.choice((calendar.schedule, calendar.timer))
            batch.append(schedule(rng.choice(DELAYS) + 1.0, self.fire, -1))
        rng.shuffle(batch)
        self.log.append(("mass", sum(calendar.cancel(handle) for handle in batch)))
        self.budget -= 1

    def run(self):
        rng, calendar = self.rng, self.calendar
        for _ in range(rng.randint(1, 12)):
            self.act()
        for _ in range(rng.randint(1, 4)):
            until = calendar.now + rng.choice(DELAYS)
            end = calendar.run(until=until)
            self.log.append(("run", until, end, calendar.now, calendar.executed))
            for _ in range(rng.randint(0, 4)):
                self.act()
        end = calendar.run()
        self.log.append(("drained", end, calendar.now, calendar.executed))
        return self.log


def check(seed):
    """Run program ``seed`` on both calendars; return its log and the in-loop compactions."""
    engine = Engine()
    log = Program(seed, engine).run()
    assert log == Program(seed, Reference()).run(), f"program {seed}"
    return log, engine.compacted_in_loop


def test_calendar_matches_the_reference_calendar():
    entries, compactions = [], 0
    for seed in range(TIER1_PROGRAMS):
        log, compacted = check(seed)
        entries.extend(log)
        compactions += compacted
    # The programs reach what they are meant to: compactions inside the run
    # loop, spent events cancelled, and events firing at the same instant.
    assert compactions > 0
    assert any(entry[0] == "cancel" and not entry[2] for entry in entries)
    fired = [entry for entry in entries if isinstance(entry[0], int)]
    assert sum(1 for a, b in zip(fired, fired[1:]) if a[1] == b[1]) > len(fired) // 2


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    fired = compactions = 0
    for seed in range(count):
        log, compacted = check(seed)
        fired += sum(1 for entry in log if isinstance(entry[0], int))
        compactions += compacted
    print(f"{count} programs, {fired} events fired, {compactions} compactions: as the reference")
