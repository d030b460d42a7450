"""Tests for the shared ``name@key=value,...`` token grammar.

One grammar backs both the ``--scenario`` and ``--system`` front ends
(:mod:`repro.tokens`); these tests pin its parsing, canonical formatting,
error wording, and the comma-disambiguation of token lists.
"""

import pytest

from repro.__main__ import main
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.scenarios import SCENARIOS
from repro.protocols.registry import SYSTEMS
from repro.tokens import (
    canonical_token,
    format_option_value,
    parse_option_value,
    parse_token,
    split_token_list,
    validate_options,
)


# --------------------------------------------------------------------------- values
def test_option_values_parse_by_shape():
    assert parse_option_value("true") is True
    assert parse_option_value("False") is False
    assert parse_option_value("8") == 8
    assert parse_option_value("0.25") == 0.25
    assert parse_option_value("gossip") == "gossip"


def test_option_values_format_canonically():
    assert format_option_value(True) == "true"
    assert format_option_value(False) == "false"
    assert format_option_value(8) == "8"
    assert format_option_value(0.25) == "0.25"
    assert format_option_value("gossip") == "gossip"


def test_value_round_trip():
    for value in (True, False, 8, 0.25, "gossip"):
        assert parse_option_value(format_option_value(value)) == value


# --------------------------------------------------------------------------- parse/canonical
def test_parse_token_bare_name():
    assert parse_token("jini") == ("jini", {})
    assert parse_token("  jini  ") == ("jini", {})


def test_parse_token_with_options():
    name, options = parse_token("jini@k=8, mode=gossip, ttl=30.0")
    assert name == "jini"
    assert options == {"k": 8, "mode": "gossip", "ttl": 30.0}


def test_canonical_token_sorts_and_formats():
    assert canonical_token("jini", {}) == "jini"
    assert (
        canonical_token("jini", {"mode": "gossip", "k": 8, "report": False})
        == "jini@k=8,mode=gossip,report=false"
    )


def test_parse_canonical_round_trip():
    token = "jini@gossip_interval=60.0,k=4,mode=gossip"
    assert canonical_token(*parse_token(token)) == token


# --------------------------------------------------------------------------- errors
@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "has no name"),
        ("@k=1", "has no name"),
        ("jini@", "dangling '@'"),
        ("jini@k", "must look like key=value"),
        ("jini@k=", "must look like key=value"),
        ("jini@=1", "must look like key=value"),
        ("jini@k=1,k=2", "duplicate"),
    ],
)
def test_parse_token_rejects_malformed_input(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_token(text)


def test_error_wording_carries_the_front_end_label():
    with pytest.raises(ValueError, match="scenario token '@' has no name"):
        SCENARIOS.resolve("@")
    with pytest.raises(ValueError, match="system token '@' has no name"):
        SYSTEMS.resolve("@")


def test_front_ends_share_the_grammar():
    # Identical parsing and canonicalisation through both registries.
    assert SCENARIOS.resolve("churn@ rate=0.2 ").token == "churn@rate=0.2"
    assert SYSTEMS.resolve("jini@ k=2 ").token == "jini@k=2"
    assert SCENARIOS.resolve("churn@rate=0.2").options["rate"] == 0.2
    assert SYSTEMS.resolve("jini@k=2").options["k"] == 2


# --------------------------------------------------------------------------- option typing
def test_options_take_their_defaults_type_and_ints_widen_to_float():
    defaults = {"flag": True, "count": 2, "rate": 0.5, "mode": "push"}
    merged = validate_options("scenario", "demo", defaults, {"count": 3, "rate": 1})
    assert merged == {"flag": True, "count": 3, "rate": 1.0, "mode": "push"}
    assert type(merged["rate"]) is float
    for key, value, fragment in [
        ("flag", 1, "must be a bool"),
        ("count", 2.5, "must be an integer"),
        ("count", True, "must be an integer"),
        ("rate", "fast", "must be a number"),
        ("rate", False, "must be a number"),
        ("rate", 10**400, "must be finite, got an integer too large for a float"),
        ("mode", 3, "must be a string"),
        ("nope", 1, "does not accept"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            validate_options("scenario", "demo", defaults, {key: value})


@pytest.mark.parametrize(
    "token",
    ["overlap@n=2.5", "lossy@windows=2.5", "multichange@changes=2.5", "correlated@groups=1.5"],
)
def test_integer_scenario_options_reject_fractions(token, capsys):
    name, options = parse_token(token)
    with pytest.raises(ValueError, match="must be an integer"):
        ScenarioSpec(system="frodo3", scenario=name, scenario_options=options).validate()
    argv = ["run", "--system", "frodo3", "--rate", "20", "--scenario", token]
    assert main(argv) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_front_ends_share_the_option_validator():
    assert SCENARIOS.resolve("churn@gap=600").options == {"rate": 0.1, "gap": 600.0}
    assert SYSTEMS.resolve("jini@ttl=300").options["ttl"] == 300.0
    assert SYSTEMS.resolve("jini@ttl=300").token == "jini@ttl=300"  # tokens stay unmerged


# --------------------------------------------------------------------------- token lists
def test_split_token_list_plain_names():
    assert split_token_list("frodo3,upnp,jini2") == ["frodo3", "upnp", "jini2"]


def test_split_token_list_keeps_option_commas_with_their_token():
    assert split_token_list("upnp,jini@k=8,mode=gossip,frodo3") == [
        "upnp",
        "jini@k=8,mode=gossip",
        "frodo3",
    ]


def test_split_token_list_tolerates_whitespace_and_empties():
    assert split_token_list(" frodo3 , , jini@k=2 ") == ["frodo3", "jini@k=2"]
    assert split_token_list("") == []
