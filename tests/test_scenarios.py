"""The scenario library: registry, CLI tokens, cell keys, conformance.

Three contracts pinned here:

* **Byte identity** — the default ``table4`` sweep reproduces the pre-scenario
  harness output exactly (fixtures captured before the scenario layer
  existed), serially and under ``--jobs 2``.
* **Determinism** — every family's runs depend only on the spec (serial and
  ``--jobs 2`` sweeps are byte-identical).
* **Conformance** — each family's invariants hold on a smoke cell of every
  registered system (the battery CI runs).
"""

import json

import pytest

from repro.experiments import (
    SCENARIOS,
    CheckpointMismatchError,
    ScenarioFamily,
    ScenarioSpec,
    SweepSpec,
    cell_key,
    load_checkpoint,
    save_checkpoint,
    sweep,
)
from repro.experiments.runner import run_scenario
from repro.experiments.sweep import CHECKPOINT_VERSION
from repro.protocols.registry import SYSTEMS
from repro.tokens import UnknownNameError
from repro.__main__ import main

FIXTURE_DIR = "tests/data"
#: The grid both pre-PR fixtures were captured with (seed 0, runs 2).
FIXTURE_ARGS = ["--system", "frodo3,upnp,jini2", "--rates", "0,20,40", "--runs", "2"]


# --------------------------------------------------------------------------- registry
def test_standard_families_are_registered():
    assert SCENARIOS.names() == [
        "cascade",
        "churn",
        "correlated",
        "lossy",
        "multichange",
        "overlap",
        "partition",
        "restart",
        "table4",
    ]
    assert "churn" in SCENARIOS
    assert len(SCENARIOS) == 9
    assert all(isinstance(family, ScenarioFamily) for family in SCENARIOS)


# --------------------------------------------------------------------------- CLI tokens
def test_parse_scenario_round_trips_through_token():
    family, options, token = SCENARIOS.resolve("churn@rate=0.1,gap=600")
    assert family is SCENARIOS.get("churn")
    assert options == {"rate": 0.1, "gap": 600.0}
    assert token == "churn@gap=600,rate=0.1"
    assert SCENARIOS.resolve(token) == (family, options, token)


def test_scenario_token_is_canonical():
    def token(name, options):
        return ScenarioSpec(system="frodo3", scenario=name, scenario_options=options).scenario_token

    assert token("table4", {}) == "table4"
    # Sorted keys: option order never changes the token (or the cell key).
    assert token("churn", {"gap": 600.0, "rate": 0.1}) == token(
        "churn", {"rate": 0.1, "gap": 600.0}
    )
    assert token("lossy", {"p": 0.2}) == "lossy@p=0.2"
    assert token("x", {"flag": True}) == "x@flag=true"


def test_parse_scenario_error_cases():
    with pytest.raises(ValueError, match="no name"):
        SCENARIOS.resolve("")
    with pytest.raises(ValueError, match="dangling"):
        SCENARIOS.resolve("churn@")
    with pytest.raises(ValueError, match="key=value"):
        SCENARIOS.resolve("churn@rate")
    with pytest.raises(ValueError, match="duplicate"):
        SCENARIOS.resolve("churn@rate=0.1,rate=0.2")


def test_spec_validation_resolves_the_scenario():
    ScenarioSpec(system="frodo3", scenario="churn").validate()
    with pytest.raises(UnknownNameError):
        ScenarioSpec(system="frodo3", scenario="bogus").validate()
    with pytest.raises(ValueError, match="does not accept"):
        ScenarioSpec(
            system="frodo3", scenario="churn", scenario_options={"x": 1}
        ).validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("change_time", float("nan")),
        ("change_time", float("inf")),
        ("deadline", float("nan")),
        ("deadline", float("inf")),
    ],
)
def test_spec_validation_refuses_non_finite_times(field, value):
    # NaN passes every range comparison, and an infinite deadline never ends
    # the run: both are spec errors before any cell runs.
    message = f"{field} must be .*finite.*, got {value!r}"
    with pytest.raises(ValueError, match=message):
        ScenarioSpec(system="frodo3", **{field: value}).validate()
    with pytest.raises(ValueError, match=message):
        SweepSpec(systems=("frodo3",), runs_per_cell=1, **{field: value}).validate()


def test_spec_validation_checks_option_ranges_against_the_run():
    with pytest.raises(ValueError, match="restart@at must fall inside the run"):
        ScenarioSpec(
            system="frodo3", scenario="restart", scenario_options={"at": 9000.0}
        ).validate()
    with pytest.raises(ValueError, match="leaves no room"):
        ScenarioSpec(
            system="frodo3", scenario="churn", scenario_options={"rate": 0.1, "gap": 9000.0}
        ).validate()


def test_churn_without_churn_runs_with_any_gap():
    # The gap only places leave/rejoin cycles; at rate 0 there are none, so
    # even a gap longer than the run leaves the table4 plan.
    spec = ScenarioSpec(
        system="frodo3",
        failure_rate=0.2,
        seed=5,
        scenario="churn",
        scenario_options={"rate": 0.0, "gap": 9000.0},
    )
    baseline = ScenarioSpec(system="frodo3", failure_rate=0.2, seed=5)
    assert run_scenario(spec.validate()) == run_scenario(baseline)


# --------------------------------------------------------------------------- cell keys
def test_table4_cell_keys_keep_the_bare_v2_shape():
    assert cell_key("frodo3", 0.2, 1) == "frodo3~5u@0.2#1"
    assert cell_key("frodo3", 0.2, 1, scenario="table4") == "frodo3~5u@0.2#1"


def test_non_default_scenarios_extend_the_cell_key():
    churn_key = cell_key("frodo3", 0.2, 1, scenario="churn@rate=0.1")
    assert churn_key == "frodo3~5u@0.2#1!churn@rate=0.1"
    keys = {
        cell_key("frodo3", 0.2, 1, scenario=token)
        for token in ("table4", "churn", "churn@rate=0.1", "lossy")
    }
    assert len(keys) == 4  # scenarios can never collide in a journal


def test_sweep_cells_carry_the_scenario_token():
    spec = SweepSpec(
        systems=("frodo3",),
        failure_rates=(0.2,),
        runs_per_cell=1,
        scenario_name="churn",
        scenario_options={"rate": 0.2},
    )
    (cell,) = spec.expand()
    assert cell.key.endswith("!churn@rate=0.2")
    assert cell.scenario.scenario == "churn"
    assert cell.scenario.scenario_options == {"rate": 0.2}
    assert spec.grid_dict()["scenario"] == "churn@rate=0.2"
    # ... while the default keeps the pre-scenario grid dict exactly.
    assert "scenario" not in SweepSpec(systems=("frodo3",)).grid_dict()


# --------------------------------------------------------------------------- checkpoints
def test_pre_scenario_checkpoints_fail_loudly(tmp_path):
    spec = SweepSpec(systems=("frodo3",), failure_rates=(0.0,), runs_per_cell=1)
    ck = tmp_path / "old.jsonl"
    header = {"version": 2, "spec": spec.grid_dict(), "builder_options": {}, "registry": []}
    ck.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match="version 2"):
        load_checkpoint(str(ck), spec)


def test_checkpoints_from_different_scenarios_do_not_mix(tmp_path):
    table4 = SweepSpec(systems=("frodo3",), failure_rates=(0.0,), runs_per_cell=1)
    churn = SweepSpec(
        systems=("frodo3",),
        failure_rates=(0.0,),
        runs_per_cell=1,
        scenario_name="churn",
    )
    ck = tmp_path / "ck.jsonl"
    save_checkpoint(str(ck), churn, {})
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(ck), table4)
    assert load_checkpoint(str(ck), churn) == {}


# --------------------------------------------------------------------------- byte identity
def _split_work_counts(data):
    """Pop each run's telemetry and executed-event count; return them per run."""
    counts = []
    for run in data["runs"]:
        details = run["details"]
        counts.append((details.pop("telemetry"), details.pop("executed_events")))
    return counts


def _reconcile_with_fixture(produced, fixture):
    """Check a per-run sweep against the schema-1 fixture, run by run, exactly.

    Results match outright.  The work counts differ only by the multicast
    copies that are now counted as ``net.ignored`` instead of simulated:
    every ignored copy was one scheduled event, and each one that fired
    before the deadline was one fired event and one delivery (or receiver
    drop).  Adding ``ignored`` to both sides of the fired/delivered equation
    cancels the copies still in flight at the deadline.  Absorbed copies
    (``net.absorbed``, version 5) are still scheduled and delivered, but no
    longer fired, so they join the fired side.  Timers share the event heap
    since version 6, so ``timers`` keeps only its two counts and
    ``events_cancelled`` counts the timer cancellations too.
    """
    new_counts = _split_work_counts(produced)
    old_counts = _split_work_counts(fixture)
    assert produced == fixture
    assert len(new_counts) == len(old_counts) > 0
    for (new, new_fired), (old, old_fired) in zip(new_counts, old_counts):
        assert new["version"] == 6 and old["version"] == 1
        assert new["net"]["link_losses"] == 0  # table4 has no loss windows
        old_timers = old["timers"]
        assert new["timers"] == {
            "scheduled": old_timers["scheduled"],
            "cancelled": old_timers["cancelled"],
        }
        engine, old_engine = new["engine"], old["engine"]
        net, old_net = new["net"], old["net"]
        assert engine["events_fired"] == new_fired and old_engine["events_fired"] == old_fired
        cancelled = old_engine["events_cancelled"] + old_timers["cancelled"]
        assert engine["events_cancelled"] == cancelled
        for field in (
            "sends",
            "send_copies",
            "multicast_sends",
            "sends_by_layer",
            "update_sends",
            "dropped_tx",
        ):
            assert net[field] == old_net[field], field
        ignored = net["ignored"]
        assert engine["events_scheduled"] + ignored == old_engine["events_scheduled"]
        deliveries = net["delivered"] + net["dropped_rx"]
        old_deliveries = old_net["delivered"] + old_net["dropped_rx"]
        fired = engine["events_fired"] + net["absorbed"]
        assert fired + ignored - old_engine["events_fired"] == deliveries + ignored - old_deliveries


def test_default_sweep_is_byte_identical_to_pre_scenario_fixture(tmp_path):
    serial = tmp_path / "serial.json"
    jobs2 = tmp_path / "jobs2.json"
    explicit = tmp_path / "explicit.json"
    assert main(["sweep", *FIXTURE_ARGS, "--out", str(serial)]) == 0
    assert main(["sweep", *FIXTURE_ARGS, "--jobs", "2", "--out", str(jobs2)]) == 0
    assert main(["sweep", *FIXTURE_ARGS, "--scenario", "table4", "--out", str(explicit)]) == 0
    fixture = open(f"{FIXTURE_DIR}/table4_pre_pr_sweep.json", "rb").read()
    assert serial.read_bytes() == fixture
    assert jobs2.read_bytes() == fixture
    assert explicit.read_bytes() == fixture


def test_default_per_run_output_matches_fixture_modulo_telemetry_schema(tmp_path):
    out = tmp_path / "per_run.json"
    assert main(["sweep", *FIXTURE_ARGS, "--per-run", "--out", str(out)]) == 0
    produced = json.loads(out.read_text())
    fixture = json.loads(open(f"{FIXTURE_DIR}/table4_pre_pr_per_run.json").read())
    _reconcile_with_fixture(produced, fixture)


#: Churn and restart sweeps of the five paper systems, pinned before the
#: handler tables and fan-out plans that ``stop``/``restart`` and
#: ``leave``/``join`` invalidate: one summary document per scenario.
CHURN_RESTART_FIXTURE = f"{FIXTURE_DIR}/churn_restart_pre_pr_sweep.json"
CHURN_RESTART_ARGS = [
    "--system",
    "upnp,jini1,jini2,frodo2,frodo3",
    "--rates",
    "0,20,40",
    "--runs",
    "2",
    "--seed",
    "1906",
]


@pytest.mark.parametrize("scenario", ["churn", "restart"])
def test_churn_and_restart_sweeps_are_byte_identical_to_fixture(tmp_path, scenario):
    out = tmp_path / "sweep.json"
    assert main(["sweep", *CHURN_RESTART_ARGS, "--scenario", scenario, "--out", str(out)]) == 0
    with open(CHURN_RESTART_FIXTURE) as handle:
        pinned = json.load(handle)[scenario]
    assert out.read_text() == json.dumps(pinned, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------- determinism
#: System each family's identity grid deploys (default frodo3).  Partition
#: cuts only inter-registry links, so it needs a federation; pull mode takes
#: its TTL stale-entry fallback.
IDENTITY_SYSTEMS = {"partition": "jini@k=4,mode=pull"}

#: Families whose grid also runs on jini2: they stop, churn out or rejoin
#: Jini clients, the events that put absorbed announcement copies back on
#: the calendar.
JINI_IDENTITY_FAMILIES = ("cascade", "churn", "restart")


@pytest.mark.parametrize("family_name", SCENARIOS.names())
def test_family_sweep_is_byte_identical_serial_and_parallel(tmp_path, family_name):
    _assert_serial_sweep_equals_parallel(
        tmp_path, family_name, IDENTITY_SYSTEMS.get(family_name, "frodo3")
    )


@pytest.mark.parametrize("family_name", JINI_IDENTITY_FAMILIES)
def test_jini_family_sweep_is_byte_identical_serial_and_parallel(tmp_path, family_name):
    runs = _assert_serial_sweep_equals_parallel(tmp_path, family_name, "jini2")
    assert all(run["details"]["telemetry"]["net"]["absorbed"] > 0 for run in runs)


def _assert_serial_sweep_equals_parallel(tmp_path, family_name, system):
    argv = [
        "sweep",
        "--system",
        system,
        "--scenario",
        family_name,
        "--rates",
        "0,20",
        "--runs",
        "2",
        "--seed",
        "1906",
        "--per-run",
    ]
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main([*argv, "--out", str(serial)]) == 0
    assert main([*argv, "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    runs = json.loads(serial.read_text())["runs"]
    if family_name == "churn":
        departed = [run["details"]["telemetry"]["failures"]["departed"] for run in runs]
        assert any(departed)  # the scenario actually did something
    return runs


def test_families_share_table4_baseline_outages_at_equal_seeds():
    """Families layered on the paper's outage plan (churn, lossy, multichange)
    draw it from the same ``failures`` stream: per-node outage schedules match
    table4 exactly at equal seeds — paired comparisons across scenarios."""
    results = {}
    for scenario in ("table4", "lossy", "multichange"):
        spec = ScenarioSpec(
            system="frodo3", failure_rate=0.4, seed=11, scenario=scenario
        )
        run = run_scenario(spec)
        results[scenario] = run.details["telemetry"]["failures"]["realized_downtime"]
    assert results["table4"] == results["lossy"] == results["multichange"]


# --------------------------------------------------------------------------- conformance
SMOKE_RATE = 0.2


@pytest.mark.parametrize("system", SYSTEMS.names())
@pytest.mark.parametrize("family_name", SCENARIOS.names())
def test_conformance_battery(family_name, system):
    """Every family x system smoke cell satisfies the family's invariants
    (and the shared recovery invariant)."""
    family = SCENARIOS.get(family_name)
    spec = ScenarioSpec(
        system=system, failure_rate=SMOKE_RATE, seed=3, scenario=family_name
    ).validate()
    result = run_scenario(spec)
    assert family.check(spec, result) == []


def test_conformance_check_catches_violations():
    """The battery is not vacuous: feed a family a result produced by a
    different family and its invariants must trip."""
    spec = ScenarioSpec(
        system="frodo3", failure_rate=SMOKE_RATE, seed=3, scenario="churn",
        scenario_options={"rate": 0.4},
    )
    churned = run_scenario(spec)
    assert SCENARIOS.get("table4").check(spec, churned)  # churn events present
    table4 = run_scenario(
        ScenarioSpec(system="frodo3", failure_rate=SMOKE_RATE, seed=3)
    )
    lossy_spec = ScenarioSpec(
        system="frodo3", failure_rate=SMOKE_RATE, seed=3, scenario="lossy"
    )
    assert SCENARIOS.get("lossy").check(lossy_spec, table4)  # no loss windows


def test_multichange_versions_and_change_time():
    spec = ScenarioSpec(
        system="frodo3",
        failure_rate=0.0,
        seed=5,
        scenario="multichange",
        scenario_options={"changes": 4, "spacing": 300.0},
    )
    result = run_scenario(spec)
    assert result.details["changed_version"] == 5  # initial 1 + 4 changes
    assert result.change_time == spec.change_time + 3 * 300.0
    assert SCENARIOS.get("multichange").check(spec, result) == []


def test_restart_rediscovery_recovers_full_effectiveness():
    """The flash-crowd case the issue calls out: a Registry restart must not
    leave stale state — everyone is consistent again by the deadline."""
    for system in ("jini2", "upnp", "frodo3"):
        spec = ScenarioSpec(system=system, failure_rate=0.0, seed=9, scenario="restart")
        result = run_scenario(spec)
        assert result.users_updated() == result.n_users
        failures = result.details["telemetry"]["failures"]
        assert failures["n_churn"] >= 1
        assert failures["departed"] == failures["rejoined"]


# --------------------------------------------------------------------------- CLI surface
def test_cli_lists_scenarios():
    assert main(["scenarios"]) == 0


def test_cli_rejects_unknown_scenario(capsys):
    assert main(["run", "--system", "frodo3", "--scenario", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'bogus'" in err and "table4" in err


def test_cli_rejects_malformed_scenario_token(capsys):
    assert main(["run", "--system", "frodo3", "--scenario", "churn@rate"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_sweep_accepts_scenario_in_library_api():
    spec = SweepSpec(
        systems=("frodo3",),
        failure_rates=(0.0,),
        runs_per_cell=1,
        base_seed=2,
        scenario_name="multichange",
        scenario_options={"changes": 2},
    )
    result = sweep(spec)
    assert result.summaries[0].effectiveness == 1.0
    assert CHECKPOINT_VERSION == 5
