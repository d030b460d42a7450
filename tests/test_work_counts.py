"""Deterministic work guards: exact event counts at scale, per-run reclamation,
the collector policy that running cells create no cyclic garbage, and TCP
exchanges that build no segment messages.

Event counts are a deterministic function of the cell, so pinning them
catches a returning multicast fan-out (or any other added work) on every
machine, with no wall-clock threshold.
"""

import gc
import weakref

import pytest

from repro.discovery.node import DiscoveryNode
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.scenarios import SCENARIOS
from repro.net.messages import Message
from repro.protocols.registry import SYSTEMS

#: (system, users) -> (engine.events_scheduled, net.ignored) of the
#: failure-free cell at seed 1906.  Ignored deliveries are counted instead
#: of simulated, so each one is an event that is no longer scheduled.
FAILURE_FREE_WORK = {
    ("jini", 100): (38_163, 64_010),
    ("upnp", 100): (10_191, 62_948),
    ("frodo3", 1000): (39_643, 1_002_001),
}

#: events_scheduled + ignored of the same cells when every delivery was
#: simulated: filtering moves work from one counter to the other, so the
#: sum must not change.
SIMULATED_EVERYTHING = {
    ("jini", 100): 102_173,
    ("upnp", 100): 73_139,
    ("frodo3", 1000): 1_041_644,
}


#: (engine.events_fired, net.absorbed) of the same cells.  A Jini client's
#: copies of a known Lookup Service's announcement are absorbed instead of
#: fired; UPnP and FRODO publish no refresh map, so they absorb none.
FAILURE_FREE_FIRED = {
    ("jini", 100): (10_852, 26_900),
    ("upnp", 100): (9_890, 0),
    ("frodo3", 1000): (33_468, 0),
}

#: events_fired + absorbed of the same cells when every copy was an event.
FIRED_EVERY_COPY = {
    ("jini", 100): 37_752,
    ("upnp", 100): 9_890,
    ("frodo3", 1000): 33_468,
}


@pytest.mark.parametrize("system,users", sorted(FAILURE_FREE_WORK))
def test_failure_free_work_counts_are_pinned(system, users):
    spec = ScenarioSpec(system=system, failure_rate=0.0, seed=1906, n_users=users)
    result = ExperimentRunner().run(spec)
    telemetry = result.details["telemetry"]
    scheduled = telemetry["engine"]["events_scheduled"]
    ignored = telemetry["net"]["ignored"]
    assert scheduled + ignored == SIMULATED_EVERYTHING[system, users]
    assert (scheduled, ignored) == FAILURE_FREE_WORK[system, users]
    fired = telemetry["engine"]["events_fired"]
    absorbed = telemetry["net"]["absorbed"]
    assert fired + absorbed == FIRED_EVERY_COPY[system, users]
    assert (fired, absorbed) == FAILURE_FREE_FIRED[system, users]
    assert result.details["executed_events"] == fired
    assert result.update_message_count == result.details["m_prime"]


def test_run_reclaims_the_cell_object_graph():
    class StashingRunner(ExperimentRunner):
        network_ref = None

        def setup(self, spec):
            context = super().setup(spec)
            self.network_ref = weakref.ref(context.network)
            return context

    runner = StashingRunner()
    result = runner.run(ScenarioSpec(system="jini1", failure_rate=0.2, seed=11))
    assert result.update_message_count > 0
    # Nodes, their bound-method endpoint handlers, timers and leases form
    # reference cycles; the run must not leave them to a later collection.
    assert runner.network_ref is not None
    assert runner.network_ref() is None


class CollectorProbe(ExperimentRunner):
    """Records whether automatic collection is on while a cell executes."""

    def __init__(self, cell_raises):
        super().__init__()
        self.cell_raises = cell_raises
        self.enabled_during_cell = None

    def execute(self, context):
        self.enabled_during_cell = gc.isenabled()
        if self.cell_raises:
            raise RuntimeError("cell failed")
        return super().execute(context)


@pytest.mark.parametrize(
    "caller_enabled,cell_raises",
    [(True, False), (True, True), (False, False)],
    ids=["normal", "cell-raises", "caller-disabled"],
)
def test_run_turns_the_collector_off_for_the_cell_only(caller_enabled, cell_raises):
    was_enabled = gc.isenabled()
    if caller_enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        runner = CollectorProbe(cell_raises)
        spec = ScenarioSpec(system="frodo3", failure_rate=0.2, seed=11)
        if cell_raises:
            with pytest.raises(RuntimeError, match="cell failed"):
                runner.run(spec)
        else:
            assert runner.run(spec).update_message_count > 0
        assert runner.enabled_during_cell is False
        # The caller's setting comes back, whether the cell raised or not.
        assert gc.isenabled() is caller_enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


#: Every registered system plus a pull and a gossip federation.
CYCLE_GUARD_SYSTEMS = SYSTEMS.names() + [
    "jini@k=4,mode=pull",
    "jini@k=8,mode=gossip,topology=ring",
]


@pytest.mark.parametrize("scenario", SCENARIOS.names())
@pytest.mark.parametrize("system", CYCLE_GUARD_SYSTEMS)
def test_running_cells_create_no_cyclic_garbage(system, scenario):
    # ExperimentRunner.run keeps the cyclic collector off for the whole
    # cell; that is memory-safe only while everything a running cell drops
    # is freed by reference counting.  DEBUG_SAVEALL keeps whatever the
    # collector finds unreachable in gc.garbage instead of freeing it.
    runner = ExperimentRunner()
    spec = ScenarioSpec(system=system, failure_rate=0.4, seed=7, n_users=5, scenario=scenario)
    context = runner.setup(spec)
    gc.collect()
    gc.freeze()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        runner.execute(context)
        gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage})
        assert not gc.garbage, f"{len(gc.garbage)} objects in cycles: {leaked}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()


#: TCP cells, failure-free at N=100 and under failures, a partition included.
MESSAGE_CELLS = {
    "jini@100": ScenarioSpec(system="jini", failure_rate=0.0, seed=1906, n_users=100),
    "upnp@100": ScenarioSpec(system="upnp", failure_rate=0.0, seed=1906, n_users=100),
    "jini1@0.4": ScenarioSpec(system="jini1", failure_rate=0.4, seed=1906),
    "upnp@0.4": ScenarioSpec(system="upnp", failure_rate=0.4, seed=1906),
    "pull-partition": ScenarioSpec(
        system="jini@k=4,mode=pull", failure_rate=0.4, seed=1906, scenario="partition"
    ),
}


@pytest.mark.parametrize("cell", sorted(MESSAGE_CELLS))
def test_tcp_builds_no_segment_messages(monkeypatch, cell):
    # Every Message a cell builds is a protocol send: SYN, SYN-ACK, ACK and
    # data retransmissions are send records without a message object.
    built = []
    made = []
    init = Message.__init__
    make_message = DiscoveryNode.make_message

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counting_make_message(self, *args, **kwargs):
        made.append(None)
        return make_message(self, *args, **kwargs)

    monkeypatch.setattr(Message, "__init__", counting_init)
    monkeypatch.setattr(DiscoveryNode, "make_message", counting_make_message)
    result = ExperimentRunner().run(MESSAGE_CELLS[cell])
    assert result.details["telemetry"]["net"]["sends_by_layer"]["transport"] > 0
    assert len(built) == len(made)
