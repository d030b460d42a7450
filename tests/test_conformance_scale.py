"""Large-topology conformance battery (N = 100 users, every system).

The paper's experiments run at N = 5; the large-N hot path must not change
what the protocols *do*, only how fast the simulator executes them.  This
battery re-asserts the core zero-failure invariants at N = 100 for every
registered system:

* every one of the 100 Users reaches the changed version before the deadline
  (effectiveness 1.0),
* the measured update-message count *y* equals the closed-form m′ evaluated
  at N = 100 (Efficiency Degradation 1.0) — FRODO's N + 2, UPnP's 3N, and
  Jini's (N + 2) x registries all scale with N, so a lease/renewal bug that
  only shows at scale (e.g. subscriptions silently expiring) fails here
  loudly.

One run per system is shared across the assertions; at N = 100 the runs cost
fractions of a second to a couple of seconds each.
"""

import pytest

from repro.core.metrics import MetricSummary
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.protocols.registry import SYSTEMS

N_USERS = 100

#: Closed-form m' at N users (Table 2 shapes at registries used by each system).
M_PRIME_AT_N = {
    "frodo2": lambda n: n + 2,
    "frodo3": lambda n: n + 2,
    "upnp": lambda n: 3 * n,
    "jini": lambda n: n + 2,
    "jini1": lambda n: n + 2,
    "jini2": lambda n: 2 * (n + 2),
}

ALL_SYSTEMS = SYSTEMS.names()

_runs = {}


def scale_run(system):
    """One shared zero-failure N=100 run (result + context) per system."""
    if system not in _runs:
        runner = ExperimentRunner()
        context = runner.setup(
            ScenarioSpec(system=system, failure_rate=0.0, seed=1234, n_users=N_USERS)
        )
        _runs[system] = (runner.execute(context), context)
    return _runs[system]


def test_battery_covers_the_paper_comparison():
    assert set(M_PRIME_AT_N) == {"frodo2", "frodo3", "upnp", "jini", "jini1", "jini2"}
    assert set(ALL_SYSTEMS) >= set(M_PRIME_AT_N)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("n_users", [5, N_USERS])
def test_registry_m_prime_matches_deployment(system, n_users):
    """The m' a run records is the registry's closed form at the run's N,
    equals the Table 2 form, and is what the deployment built at that N
    sends failure-free."""
    result = ExperimentRunner().run(
        ScenarioSpec(system=system, failure_rate=0.0, seed=99, n_users=n_users)
    )
    assert result.details["m_prime"] == SYSTEMS.resolve(system).m_prime(n_users)
    assert result.details["m_prime"] == M_PRIME_AT_N[system](n_users)
    assert result.update_message_count == result.details["m_prime"]


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_scale_run_updates_every_user(system):
    result, _ = scale_run(system)
    assert result.n_users == N_USERS
    assert result.details["changed_version"] == 2
    for when in result.user_update_times.values():
        assert when is not None
        assert result.change_time <= when < result.deadline


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_scale_run_hits_closed_form_m_prime(system):
    result, _ = scale_run(system)
    expected = M_PRIME_AT_N[system](N_USERS)
    assert result.details["m_prime"] == expected
    assert result.update_message_count == expected


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_scale_run_metrics_are_perfect(system):
    result, _ = scale_run(system)
    summary = MetricSummary.from_runs([result], result.details["m_prime"])
    assert summary.n_users == N_USERS
    assert summary.effectiveness == 1.0
    assert summary.efficiency_degradation == 1.0
    assert summary.responsiveness > 0.0
