"""Tests for the system table and the contract it shares with the scenario table."""

import dataclasses

import pytest

from repro.core.consistency import ConsistencyTracker
from repro.experiments.scenarios import SCENARIOS
from repro.net.network import Network
from repro.protocols.frodo.central import FrodoCentral
from repro.protocols.frodo.config import FrodoConfig
from repro.protocols.registry import SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tokens import Registry, UnknownNameError


def make_substrate():
    sim = Simulator()
    rng = RngRegistry(7)
    return sim, Network(sim, rng), ConsistencyTracker()


# --------------------------------------------------------------------------- the contract
#: Per table: a row, one of its float options, and tokens whose options are
#: unknown or mistyped, with the error each one reports.
EXAMPLES = {
    "systems": (
        SYSTEMS,
        "jini",
        "gossip_interval",
        {
            "jini@nope=1": "does not accept",
            "jini@k=2.5": "must be an integer",
            "jini@mode=3": "must be a string",
            "jini@report=2": "must be a bool",
        },
    ),
    "scenarios": (
        SCENARIOS,
        "lossy",
        "span",
        {
            "lossy@spam=1": "does not accept",
            "lossy@span=fast": "must be a number",
            "lossy@span=true": "must be a number",
            "lossy@windows=2.5": "must be an integer",
        },
    ),
}


def _unknown_name(registry, name, option, mistyped):
    with pytest.raises(UnknownNameError) as excinfo:
        registry.get("bogus")
    kind = registry.kind
    names = ", ".join(registry.names())
    assert str(excinfo.value) == f"unknown {kind} 'bogus'; registered {kind}s: {names}"
    with pytest.raises(UnknownNameError):
        registry.resolve("bogus@x=1")


def _mistyped_options(registry, name, option, mistyped):
    for token, fragment in mistyped.items():
        with pytest.raises(ValueError, match=fragment):
            registry.resolve(token)
    # An int widens to a float option; the token keeps the option as written.
    entry, options, token = registry.resolve(f"{name}@{option}=600")
    assert entry is registry.get(name) and token == f"{name}@{option}=600"
    assert options == {**entry.defaults, option: 600.0}
    assert type(options[option]) is float


def _duplicate_name(registry, name, option, mistyped):
    entry = registry.get(name)
    with pytest.raises(ValueError, match=f"{registry.kind} '{name}' is registered twice"):
        Registry(registry.kind, (entry, entry))


def _alias(registry, name, option, mistyped):
    # An alias row pins its defaults to its target's options and stays bare.
    target = f"{name}@{option}=60.0"
    pinned = registry.resolve(target).options
    row = dataclasses.replace(registry.get(name), name="pinned", defaults=pinned, alias_of=target)
    table = Registry(registry.kind, (*registry, row))
    assert table.resolve("pinned") == (row, pinned, "pinned")
    with pytest.raises(ValueError, match=f"'pinned' is a frozen alias of '{target}'"):
        table.resolve(f"pinned@{option}=1.0")
    # Every alias row of the table itself stands for its target.
    for entry in registry:
        if entry.alias_of:
            target_entry, options, _ = registry.resolve(entry.alias_of)
            assert registry.resolve(entry.name) == (entry, options, entry.name)
            assert entry.builder is target_entry.builder


def _non_finite(text):
    def case(registry, name, option, mistyped):
        with pytest.raises(ValueError, match=f"{name}@{option} must be finite, got {text}"):
            registry.resolve(f"{name}@{option}={text}")

    return case


CASES = {
    "unknown-name": _unknown_name,
    "mistyped-options": _mistyped_options,
    "duplicate-name": _duplicate_name,
    "alias": _alias,
    "nan": _non_finite("nan"),
    "inf": _non_finite("inf"),
    "-inf": _non_finite("-inf"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("table", sorted(EXAMPLES))
def test_registry_contract(table, case):
    registry = EXAMPLES[table][0]
    assert isinstance(registry, Registry)
    CASES[case](*EXAMPLES[table])


# --------------------------------------------------------------------------- the system table
def test_standard_systems_registered():
    assert "frodo3" in SYSTEMS
    assert "frodo2" in SYSTEMS
    assert SYSTEMS.names() == ["frodo2", "frodo3", "jini", "jini1", "jini2", "upnp"]
    assert SYSTEMS.get("frodo3").m_prime_at(5) == 7


def test_m_prime_is_a_closed_form():
    # Table 2 shapes, evaluated at arbitrary N instead of pinned at 5.
    assert SYSTEMS.get("frodo3").m_prime_at(100) == 102
    assert SYSTEMS.get("upnp").m_prime_at(100) == 300
    assert SYSTEMS.get("jini").m_prime_at(100) == 102
    assert SYSTEMS.get("jini").m_prime_at(100, {"k": 4}) == 408
    assert SYSTEMS.get("jini2").m_prime_at(100) == 204


def test_resolve_bare_name_keeps_token_bare():
    entry, options, token = SYSTEMS.resolve("jini2")
    assert token == entry.name == "jini2"
    assert entry.m_prime_at(5, options) == 14


def test_resolve_canonicalises_parameter_tokens():
    a = SYSTEMS.resolve("jini@mode=gossip,k=8")
    b = SYSTEMS.resolve("jini@k=8, mode=gossip")
    assert a.token == b.token == "jini@k=8,mode=gossip"
    assert a.entry.m_prime_at(5, a.options) == 56


def test_frozen_aliases_reject_options():
    for name in ("jini1", "jini2"):
        with pytest.raises(ValueError, match="frozen alias"):
            SYSTEMS.resolve(f"{name}@k=3")
    assert SYSTEMS.get("jini1").alias_of == "jini@k=1,report=false"
    assert SYSTEMS.get("jini2").alias_of == "jini@k=2,report=false"


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
