"""Deterministic work guards: exact event counts at scale, and per-run reclamation.

Event counts are a deterministic function of the cell, so pinning them
catches a returning multicast fan-out (or any other added work) on every
machine, with no wall-clock threshold.
"""

import weakref

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec

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


@pytest.mark.parametrize("system,users", sorted(FAILURE_FREE_WORK))
def test_failure_free_work_counts_are_pinned(system, users):
    spec = ScenarioSpec(system=system, failure_rate=0.0, seed=1906, n_users=users)
    result = ExperimentRunner().run(spec)
    telemetry = result.details["telemetry"]
    scheduled = telemetry["engine"]["events_scheduled"]
    ignored = telemetry["net"]["ignored"]
    assert scheduled + ignored == SIMULATED_EVERYTHING[system, users]
    assert (scheduled, ignored) == FAILURE_FREE_WORK[system, users]
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
