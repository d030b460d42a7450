"""Tests for the deployment registry."""

import pytest

from repro.core.consistency import ConsistencyTracker
from repro.net.network import Network
from repro.protocols.base import ProtocolDeployment
from repro.protocols.frodo.central import FrodoCentral
from repro.protocols.frodo.config import FrodoConfig
from repro.protocols.registry import SYSTEMS, DeploymentRegistry, UnknownSystemError
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def make_substrate():
    sim = Simulator()
    rng = RngRegistry(7)
    return sim, Network(sim, rng), ConsistencyTracker()


def test_standard_systems_registered():
    assert "frodo3" in SYSTEMS
    assert "frodo2" in SYSTEMS
    assert set(SYSTEMS.names()) >= {"frodo2", "frodo3", "jini", "jini1", "jini2", "upnp"}
    assert SYSTEMS.get("frodo3").m_prime_at(5) == 7


def test_m_prime_is_a_closed_form():
    # Table 2 shapes, evaluated at arbitrary N instead of pinned at 5.
    assert SYSTEMS.get("frodo3").m_prime_at(100) == 102
    assert SYSTEMS.get("upnp").m_prime_at(100) == 300
    assert SYSTEMS.get("jini").m_prime_at(100) == 102
    assert SYSTEMS.get("jini").m_prime_at(100, {"k": 4}) == 408
    assert SYSTEMS.get("jini2").m_prime_at(100) == 204


def test_resolve_bare_name_keeps_token_bare():
    resolved = SYSTEMS.resolve("jini2")
    assert resolved.token == "jini2"
    assert resolved.name == "jini2"
    assert resolved.m_prime(5) == 14


def test_resolve_canonicalises_parameter_tokens():
    a = SYSTEMS.resolve("jini@mode=gossip,k=8")
    b = SYSTEMS.resolve("jini@k=8, mode=gossip")
    assert a.token == b.token == "jini@k=8,mode=gossip"
    assert a.m_prime(5) == 56


def test_resolve_rejects_unknown_and_mistyped_options():
    with pytest.raises(ValueError, match="does not accept"):
        SYSTEMS.resolve("jini@nope=1")
    with pytest.raises(ValueError, match="must be an integer"):
        SYSTEMS.resolve("jini@k=2.5")
    with pytest.raises(ValueError, match="must be a string"):
        SYSTEMS.resolve("jini@mode=3")
    with pytest.raises(ValueError, match="must be a bool"):
        SYSTEMS.resolve("jini@report=2")


def test_frozen_aliases_reject_options():
    for name in ("jini1", "jini2"):
        entry = SYSTEMS.get(name)
        assert entry.frozen
        with pytest.raises(ValueError, match="frozen alias"):
            SYSTEMS.resolve(f"{name}@k=3")
    assert SYSTEMS.get("jini1").alias_of == "jini@k=1,report=false"
    assert SYSTEMS.get("jini2").alias_of == "jini@k=2,report=false"


def test_register_alias_pins_target_parameters():
    registry = DeploymentRegistry()
    builder = lambda sim, network, tracker, **kw: ProtocolDeployment(sim, network, tracker)
    registry.register(
        "fam",
        builder,
        m_prime=lambda n, k=1, **_: (n + 2) * k,
        params={"k": 1},
    )
    alias = registry.register_alias("fam4", "fam@k=4")
    assert alias.frozen
    assert alias.alias_of == "fam@k=4"
    assert alias.m_prime_at(5) == 28
    assert registry.resolve("fam4").m_prime(10) == 48


def test_registry_build_constructs_expected_topology():
    for system, two_party in (("frodo3", False), ("frodo2", True)):
        sim, network, tracker = make_substrate()
        deployment = SYSTEMS.build(system, sim, network, tracker, n_users=3)
        assert len(deployment.users) == 3
        assert len(deployment.managers) == 1
        assert len(deployment.registries) == 1
        assert len(deployment.node_ids()) == len(deployment.all_nodes)
        # The registry name alone decides the subscription mode: 2-party
        # FRODO deploys a Backup and a 300D Manager that handles its own
        # subscribers.
        assert deployment.managers[0].two_party is two_party
        backups = [node for node in deployment.other_nodes if isinstance(node, FrodoCentral)]
        assert len(backups) == (1 if two_party else 0)
        assert all(user.two_party is two_party for user in deployment.users)


def test_build_takes_no_config():
    # Each builder builds its own config; a system token is the one way to
    # select a deployment.
    sim, network, tracker = make_substrate()
    with pytest.raises(TypeError, match="config"):
        SYSTEMS.build("frodo3", sim, network, tracker, config=FrodoConfig())


def test_unknown_system_error_lists_known_names():
    with pytest.raises(UnknownSystemError) as excinfo:
        SYSTEMS.get("upnp-nope")
    message = str(excinfo.value)
    assert "upnp-nope" in message
    assert "frodo3" in message


def test_duplicate_registration_rejected():
    registry = DeploymentRegistry()
    builder = lambda sim, network, tracker, **kw: ProtocolDeployment(sim, network, tracker)
    registry.register("x", builder, m_prime=lambda n, **_: n + 2)
    with pytest.raises(ValueError, match="already registered"):
        registry.register("x", builder, m_prime=lambda n, **_: n + 2)
    with pytest.raises(ValueError, match="already registered"):
        registry.register_alias("x", "x")
    assert len(registry) == 1


def test_builder_must_return_deployment():
    registry = DeploymentRegistry()
    registry.register(
        "bad", lambda sim, network, tracker, **kw: object(), m_prime=lambda n, **_: n + 2
    )
    sim, network, tracker = make_substrate()
    with pytest.raises(TypeError):
        registry.build("bad", sim, network, tracker)


def test_registry_validates_metadata():
    registry = DeploymentRegistry()
    builder = lambda sim, network, tracker, **kw: ProtocolDeployment(sim, network, tracker)
    with pytest.raises(ValueError):
        registry.register("", builder, m_prime=lambda n, **_: n + 2)
    with pytest.raises(ValueError, match="positive"):
        registry.register("y", builder, m_prime=lambda n, **_: 0)
