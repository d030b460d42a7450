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
#: failure-free cell at seed 1906.  Before ignored copies were counted
#: instead of simulated, events_scheduled was the sum of the two.
FAILURE_FREE_WORK = {
    ("jini", 100): (41_573, 60_600),
    ("upnp", 100): (13_739, 59_400),
    ("frodo3", 1000): (39_643, 1_002_001),
}


@pytest.mark.parametrize("system,users", sorted(FAILURE_FREE_WORK))
def test_failure_free_work_counts_are_pinned(system, users):
    spec = ScenarioSpec(system=system, failure_rate=0.0, seed=1906, n_users=users)
    result = ExperimentRunner().run(spec)
    telemetry = result.details["telemetry"]
    scheduled, ignored = FAILURE_FREE_WORK[system, users]
    assert telemetry["engine"]["events_scheduled"] == scheduled
    assert telemetry["net"]["ignored"] == ignored
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
