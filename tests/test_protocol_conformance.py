"""Cross-system conformance battery.

Every system registered in :data:`repro.protocols.registry.SYSTEMS` must obey
the shared invariants of the experiment, whatever its protocol model does
internally:

* at 0 % failures: every User reaches version 2 before the deadline,
  effectiveness is 1.0, and the measured update-message count *y* equals the
  system's declared m′ (Efficiency Degradation = 1.0);
* no update-related message sent before the change time is counted;
* the ``update_related`` tagging of every discovery-layer message matches the
  ``UPDATE_RELATED_KINDS`` declared in the protocol's ``messages`` module,
  which every node class of the protocol carries as ``update_related_kinds``;
* the declared m′ agrees with the Table 2 closed forms and the recovery-
  technique profiles in :mod:`repro.core.recovery`;
* efficiency ratios never exceed 1, at any failure rate.

The battery parametrises over ``SYSTEMS.names()``: registering a new system
automatically subjects it to every invariant here.
"""

import importlib
import pkgutil

import pytest

import repro.protocols
from repro.core.metrics import MetricSummary, PAPER_GLOBAL_MINIMUM_MESSAGES
from repro.core.recovery import PROTOCOL_PROFILES, expected_update_messages
from repro.discovery.node import DiscoveryNode
from repro.experiments import ExperimentRunner, ScenarioSpec, SweepSpec, sweep
from repro.net.messages import MessageLayer
from repro.protocols.frodo import messages as frodo_messages
from repro.protocols.jini import messages as jini_messages
from repro.protocols.registry import SYSTEMS
from repro.protocols.upnp import messages as upnp_messages

ALL_SYSTEMS = SYSTEMS.names()

#: Protocol tag -> the update-related kinds its ``messages`` module declares.
DECLARED_KINDS = {
    module.PROTOCOL: module.UPDATE_RELATED_KINDS
    for module in (frodo_messages, jini_messages, upnp_messages)
}

#: Registry name -> (recovery-profile key, Table 2 closed-form arguments).
TABLE2_FORMS = {
    "frodo2": ("frodo2", {"system": "frodo", "registries": 1}),
    "frodo3": ("frodo3", {"system": "frodo", "registries": 1}),
    "upnp": ("upnp", {"system": "upnp", "registries": 1}),
    "jini1": ("jini1", {"system": "jini", "registries": 1}),
    "jini2": ("jini2", {"system": "jini", "registries": 2}),
    # The parameterised family defaults to k=1, the paper's jini1 profile.
    "jini": ("jini1", {"system": "jini", "registries": 1}),
}

_zero_runs = {}


def zero_failure_run(system):
    """One shared zero-failure run (result + full context) per system."""
    if system not in _zero_runs:
        runner = ExperimentRunner()
        context = runner.setup(ScenarioSpec(system=system, failure_rate=0.0, seed=1234))
        result = runner.execute(context)
        _zero_runs[system] = (result, context)
    return _zero_runs[system]


def test_paper_comparison_systems_are_registered():
    assert set(ALL_SYSTEMS) >= {"frodo2", "frodo3", "upnp", "jini1", "jini2"}


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_zero_failure_baseline_hits_m_prime(system):
    result, _ = zero_failure_run(system)
    m_prime = SYSTEMS.get(system).m_prime_at(5)
    # The run records the registry's m', which is Table 2's form.
    assert result.details["m_prime"] == m_prime
    assert m_prime == expected_update_messages(n_users=5, **TABLE2_FORMS[system][1])
    # y = m' exactly: the declared baseline is the measured baseline.
    assert result.update_message_count == m_prime
    assert sum(result.details["update_counts_by_kind"].values()) == m_prime


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_zero_failure_users_all_consistent_before_deadline(system):
    result, _ = zero_failure_run(system)
    assert result.n_users == 5
    assert result.details["changed_version"] == 2
    for when in result.user_update_times.values():
        assert when is not None
        assert result.change_time <= when < result.deadline


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_zero_failure_metrics_are_perfect(system):
    result, _ = zero_failure_run(system)
    summary = MetricSummary.from_runs([result], m_prime=SYSTEMS.get(system).m_prime_at(5))
    assert summary.effectiveness == 1.0
    assert summary.efficiency_degradation == 1.0
    assert summary.responsiveness > 0.999
    if SYSTEMS.get(system).m_prime_at(5) == PAPER_GLOBAL_MINIMUM_MESSAGES:
        assert summary.update_efficiency == 1.0


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_no_update_messages_counted_before_change(system):
    result, context = zero_failure_run(system)
    records = context.network.stats.sent
    counted = [
        rec
        for rec in records
        if rec.update_related
        and rec.layer is MessageLayer.DISCOVERY
        and rec.time >= result.change_time
    ]
    assert len(counted) == result.update_message_count
    # Initial discovery does send update-related messages (registrations,
    # queries, responses) — they exist but fall outside the counting window.
    early = [
        rec
        for rec in records
        if rec.update_related
        and rec.layer is MessageLayer.DISCOVERY
        and rec.time < result.change_time
    ]
    assert early, f"{system}: expected update-related discovery traffic before the change"


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_update_tagging_matches_protocol_declaration(system):
    _, context = zero_failure_run(system)
    for rec in context.network.stats.sent:
        if rec.layer is not MessageLayer.DISCOVERY:
            continue
        declared = rec.kind in DECLARED_KINDS[rec.protocol]
        assert rec.update_related == declared, (
            f"{system}: {rec.protocol}.{rec.kind} tagged update_related={rec.update_related} "
            f"but the protocol declaration says {declared}"
        )


def _protocol_node_classes():
    """Every DiscoveryNode subclass defined in a ``repro.protocols`` module."""
    for info in pkgutil.walk_packages(repro.protocols.__path__, "repro.protocols."):
        importlib.import_module(info.name)
    pending, found = [DiscoveryNode], []
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.protocols."):
                found.append(sub)
    return found


def test_every_protocol_node_carries_its_update_related_kinds():
    """A node class without the attribute would silently count nothing toward y."""
    classes = _protocol_node_classes()
    assert len(classes) == 8  # 3 FRODO, 3 Jini and 2 UPnP roles
    for cls in classes:
        family = cls.__module__.split(".")[2]
        messages = importlib.import_module(f"repro.protocols.{family}.messages")
        assert cls.protocol == messages.PROTOCOL, cls
        assert cls.update_related_kinds is messages.UPDATE_RELATED_KINDS, cls


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_declared_m_prime_matches_paper_tables(system):
    profile_key, form = TABLE2_FORMS[system]
    entry = SYSTEMS.get(system)
    assert entry.m_prime_at(5) == PROTOCOL_PROFILES[profile_key].m_prime
    assert entry.m_prime_at(5) == expected_update_messages(n_users=5, **form)


@pytest.mark.parametrize(
    "system,n_users,expected_m_prime",
    [("upnp", 3, 9), ("jini2", 3, 10), ("frodo3", 8, 10)],
)
def test_m_prime_scales_with_topology_size(system, n_users, expected_m_prime):
    # The registry's m' documents the N=5 topology; a sweep with a different
    # --users must stay calibrated to the deployment's own closed form.
    spec = SweepSpec(
        systems=(system,),
        failure_rates=(0.0,),
        runs_per_cell=1,
        n_users=n_users,
        base_seed=21,
    )
    result = sweep(spec)
    (summary,) = result.summaries
    assert result.runs[0].details["m_prime"] == expected_m_prime
    assert result.runs[0].update_message_count == expected_m_prime
    assert summary.effectiveness == 1.0
    assert summary.efficiency_degradation == 1.0


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_efficiency_ratios_never_exceed_one(system):
    spec = SweepSpec(
        systems=(system,), failure_rates=(0.0, 0.3), runs_per_cell=2, base_seed=77
    )
    result = sweep(spec)
    m_prime = SYSTEMS.get(system).m_prime_at(5)
    for summary in result.summaries:
        assert 0.0 <= summary.update_efficiency <= 1.0
        assert 0.0 <= summary.efficiency_degradation <= 1.0
    for run in result.runs:
        y = run.update_message_count
        ratio = 0.0 if y <= 0 else min(1.0, m_prime / y)
        assert ratio <= 1.0
