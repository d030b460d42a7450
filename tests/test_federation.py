"""Federated-registry conformance battery.

Covers the federation tentpole end to end:

* zero-failure exactness — ``y = m' = (N + 2) * K`` for the push family at
  K in {1, 2, 4, 8};
* the legacy ``jini1``/``jini2`` aliases, and partitioned gossip and pull
  federations under churn, stay byte-identical to pinned sweep output
  (serial and ``--jobs 2``);
* partitioned vs multi-homed user assignment is deterministic across
  executors (``--jobs 1`` vs ``--jobs 4``);
* pull/gossip bounded-staleness invariants (cache-TTL and
  topology-diameter convergence bounds), and the Lookup Service's
  mode-dependent pull-on-miss and stale-entry fallback branches;
* federation x scenario interaction (``churn``, ``restart``).
"""

import json

import pytest

from repro.core.consistency import ConsistencyTracker
from repro.discovery.service import default_service
from repro.experiments import ExperimentRunner, ScenarioSpec
from repro.net.messages import Message
from repro.net.network import Network
from repro.protocols.jini.topology import diameter, max_degree, neighbor_indices
from repro.protocols.registry import SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.__main__ import main

#: Sweeps pinned before a refactor of the Jini family, with the arguments
#: that reproduce them: the jini1/jini2 aliases, and partitioned gossip and
#: pull federations under churn.
PINNED_SWEEPS = [
    pytest.param(
        "tests/data/jini_alias_pre_pr_sweep.json",
        ["--system", "jini1,jini2", "--rates", "0,20", "--runs", "2"],
        id="alias",
    ),
    pytest.param(
        "tests/data/jini_federation_pre_merge_sweep.json",
        [
            "--system",
            "jini@assign=partition,k=4,mode=gossip,topology=ring,"
            "jini@assign=partition,k=4,mode=pull,topology=star",
            "--rates",
            "0,20",
            "--runs",
            "2",
            "--scenario",
            "churn",
        ],
        id="gossip-pull-churn",
    ),
]

N_USERS = 5
GOSSIP_INTERVAL = 120.0
TTL = 600.0
RENEWAL_INTERVAL = 900.0  # JiniConfig: lease 1800 x renewal_fraction 0.5


def zero_failure_run(system, seed=1234, n_users=N_USERS):
    """One zero-failure run of ``system``; returns (result, context)."""
    runner = ExperimentRunner()
    context = runner.setup(
        ScenarioSpec(system=system, failure_rate=0.0, seed=seed, n_users=n_users)
    )
    try:
        return runner.execute(context), context
    finally:
        context.deployment.stop()
        context.injector.stop()
        context.sim.tracer.close()


# --------------------------------------------------------------------------- topology
def test_topologies_have_the_expected_shapes():
    assert neighbor_indices("mesh", 4) == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    assert neighbor_indices("star", 4) == [[1, 2, 3], [0], [0], [0]]
    assert neighbor_indices("ring", 4) == [[1, 3], [0, 2], [1, 3], [0, 2]]
    assert neighbor_indices("line", 4) == [[1], [0, 2], [1, 3], [2]]
    for topology in ("mesh", "star", "ring", "line"):
        assert neighbor_indices(topology, 1) == [[]]
        assert diameter(topology, 1) == 0
        # Undirected: every edge appears in both adjacency lists.
        adjacency = neighbor_indices(topology, 6)
        for i, peers in enumerate(adjacency):
            for j in peers:
                assert i in adjacency[j]
    assert diameter("mesh", 8) == 1
    assert diameter("star", 8) == 2
    assert diameter("ring", 8) == 4
    assert diameter("line", 8) == 7


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        neighbor_indices("torus", 4)


# --------------------------------------------------------------------------- push exactness
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_zero_failure_y_equals_m_prime_for_every_k(k):
    system = f"jini@k={k}" if k != 1 else "jini"
    result, _ = zero_failure_run(system)
    expected = (N_USERS + 2) * k
    assert result.details["m_prime"] == expected
    entry, options, _ = SYSTEMS.resolve(system)
    assert entry.m_prime_at(N_USERS, options) == expected
    assert result.update_message_count == expected
    # No inter-registry traffic in push mode: the Manager replicates itself.
    assert not any(
        kind.startswith("jini.fed_") for kind in result.details["update_counts_by_kind"]
    )
    for when in result.user_update_times.values():
        assert when is not None and result.change_time <= when < result.deadline


def test_push_federation_reports_converged_consistency_metrics():
    result, _ = zero_failure_run("jini@k=4")
    fed = result.details["federation"]
    assert fed["k"] == 4 and fed["mode"] == "push"
    assert fed["converged_registries"] == 4
    assert fed["convergence_time"] is not None and fed["convergence_time"] < 60.0
    # Push: each registry sends its (N + 2) share minus the Manager's
    # service_update, an update_ack and N remote_events; with the Manager's
    # k sends they make y.
    assert fed["per_registry_update_messages"] == {
        f"jini-lus-{i}": N_USERS + 1 for i in range(1, 5)
    }
    assert result.update_message_count == 4 * (N_USERS + 1) + 4


def test_legacy_aliases_do_not_report_federation_details():
    for system in ("jini1", "jini2"):
        result, _ = zero_failure_run(system)
        assert "federation" not in result.details


# --------------------------------------------------------------------------- pinned byte identity
@pytest.mark.parametrize("fixture_path, args", PINNED_SWEEPS)
def test_alias_sweep_byte_identical_to_pre_pr_fixture(tmp_path, fixture_path, args):
    serial = tmp_path / "serial.json"
    jobs2 = tmp_path / "jobs2.json"
    assert main(["sweep", *args, "--out", str(serial)]) == 0
    assert main(["sweep", *args, "--jobs", "2", "--out", str(jobs2)]) == 0
    fixture = open(fixture_path, "rb").read()
    assert serial.read_bytes() == fixture
    assert jobs2.read_bytes() == fixture


def test_frozen_alias_rejects_options_from_the_cli(tmp_path, capsys):
    out = tmp_path / "never.json"
    argv = ["sweep", "--system", "jini2@k=3", "--rates", "0", "--runs", "1"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "frozen alias" in err and not out.exists()


def test_malformed_system_tokens_fail_cleanly(tmp_path, capsys):
    for token in ("jini@", "jini@k", "jini@nope=1", "jini@k=2.5"):
        assert main(["sweep", "--system", token, "--rates", "0", "--runs", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------- determinism
@pytest.mark.parametrize("assign", ["multi", "partition"])
def test_assignment_modes_deterministic_across_executors(tmp_path, assign):
    argv = [
        "sweep",
        "--system",
        f"jini@assign={assign},k=4,mode=gossip,topology=ring",
        "--rates",
        "0,20",
        "--runs",
        "2",
        "--per-run",
    ]
    serial = tmp_path / "serial.json"
    jobs4 = tmp_path / "jobs4.json"
    assert main([*argv, "--jobs", "1", "--out", str(serial)]) == 0
    assert main([*argv, "--jobs", "4", "--out", str(jobs4)]) == 0
    assert serial.read_bytes() == jobs4.read_bytes()
    data = json.loads(serial.read_text())
    token = f"jini@assign={assign},k=4,mode=gossip,topology=ring"
    assert data["spec"]["systems"] == [token]
    assert all(run["details"]["federation"]["assign"] == assign for run in data["runs"])


# --------------------------------------------------------------------------- pull/gossip invariants
@pytest.mark.parametrize("topology", ["mesh", "star", "ring", "line"])
def test_gossip_convergence_respects_the_topology_bound(topology):
    k = 4
    result, _ = zero_failure_run(f"jini@assign=partition,k={k},mode=gossip,topology={topology}")
    fed = result.details["federation"]
    assert fed["converged_registries"] == k
    # An update crosses one hop in at most max_degree round-robin ticks;
    # the extra interval covers tick phase, the slack covers deliveries.
    bound = diameter(topology, k) * max_degree(topology, k) * GOSSIP_INTERVAL
    bound += GOSSIP_INTERVAL + 60.0
    assert fed["convergence_time"] is not None and fed["convergence_time"] <= bound
    # Gossip traffic exists and is counted as update-related.
    assert any(
        kind in ("jini.fed_gossip", "jini.fed_gossip_ack")
        for kind in result.details["update_counts_by_kind"]
    )
    for when in result.user_update_times.values():
        assert when is not None and when < result.deadline


def test_pull_staleness_window_is_bounded_by_ttl_plus_renewal():
    k = 4
    result, _ = zero_failure_run(f"jini@assign=partition,k={k},mode=pull,topology=star")
    fed = result.details["federation"]
    assert fed["converged_registries"] == k
    bound = TTL + RENEWAL_INTERVAL + 120.0
    assert fed["convergence_time"] is not None and fed["convergence_time"] <= bound
    for registry_id, window in fed["staleness"].items():
        assert window is not None, registry_id
        assert window <= bound
    # Pull traffic exists and is counted as update-related.
    assert any(
        kind in ("jini.fed_pull", "jini.fed_pull_response")
        for kind in result.details["update_counts_by_kind"]
    )
    for when in result.user_update_times.values():
        assert when is not None and when < result.deadline


def test_pull_ttl_parameter_tightens_the_bound():
    result, _ = zero_failure_run("jini@assign=partition,k=2,mode=pull,ttl=60.0")
    fed = result.details["federation"]
    assert fed["converged_registries"] == 2
    assert fed["convergence_time"] <= 60.0 + RENEWAL_INTERVAL + 120.0


# --------------------------------------------------------------------------- mode branches
def registered_lookup_service(system, index, age):
    """Registry ``index`` of an unstarted ``system`` deployment that stored
    the service ``age`` seconds ago.

    Returns ``(lus, sent, traced)``: the node's TCP sends are recorded as
    ``(kind, payload)`` and its trace events by name instead of simulated.
    """
    sim = Simulator()
    deployment = SYSTEMS.build(system, sim, Network(sim, RngRegistry(7)), ConsistencyTracker())
    lus = deployment.registries[index]
    sent, traced = [], []
    lus.send_tcp = lambda receiver, kind, payload=None, **_: sent.append((kind, payload))
    lus.trace = lambda event, **_: traced.append(event)
    sd = default_service("jini-manager")
    lus.handle_register(Message("jini-manager", lus.node_id, "jini", "register", {"sd": sd}))
    sim.run(until=age)
    sent.clear()
    return lus, sent, traced


def test_pull_renewal_answered_with_pr3_error_still_pulls_a_stale_entry():
    # Only the event registration is gone: PR3 answers the renewal, and the
    # entry past its TTL still triggers the pull-on-miss round.
    lus, sent, _ = registered_lookup_service("jini@k=2,mode=pull", index=1, age=TTL + 1.0)
    payload = {"service_id": "printer-service", "held_version": 1}
    lus.handle_event_renew(Message("jini-user-1", lus.node_id, "jini", "event_renew", payload))
    assert [kind for kind, _ in sent] == ["event_renew_error", "fed_pull"]


@pytest.mark.parametrize("mode", ["push", "pull", "gossip"])
def test_stale_entry_fallback_is_off_in_push_mode(mode):
    # Past JiniConfig.registration_lease; an unstarted node never purges.
    lease_expired = 1800.0 + 1.0
    lus, sent, traced = registered_lookup_service(f"jini@mode={mode}", index=0, age=lease_expired)
    payload = {"device_type": "Printer", "service_type": None, "attributes": {}}
    lus.handle_lookup(Message("jini-user-1", lus.node_id, "jini", "lookup", payload))
    expected = [] if mode == "push" else [default_service("jini-manager")]
    assert sent == [("lookup_response", {"sds": expected})]
    assert ("stale_fallback" in traced) == (mode != "push")


# --------------------------------------------------------------------------- scenario interaction
@pytest.mark.parametrize("scenario", ["churn@rate=0.2", "restart"])
def test_federation_composes_with_disruption_scenarios(tmp_path, scenario):
    argv = [
        "sweep",
        "--system",
        "jini@assign=partition,k=4,mode=gossip",
        "--rates",
        "20",
        "--runs",
        "2",
        "--scenario",
        scenario,
        "--per-run",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--jobs", "2", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_text())
    (summary,) = data["summaries"]
    assert summary["effectiveness"] > 0.0
    for run in data["runs"]:
        fed = run["details"]["federation"]
        assert fed["k"] == 4 and fed["mode"] == "gossip"
