"""End-to-end smoke tests: runner, sweep determinism, failure model, CLI."""

import json
import os

import pytest

from repro.__main__ import main
from repro.core.metrics import RunResult
from repro.experiments import ExperimentRunner, ScenarioSpec, SweepSpec, run_seed, sweep
from repro.experiments.report import sweep_to_dict, to_json
from repro.net.failures import EARLIEST_ONSET, build_interface_failure_plan
from repro.sim.rng import RngRegistry


def test_zero_failure_run_updates_every_user():
    spec = ScenarioSpec(system="frodo3", failure_rate=0.0, seed=42)
    result = ExperimentRunner().run(spec)
    assert isinstance(result, RunResult)
    assert result.n_users == 5
    # Every User regains consistency, microseconds after the change.
    for when in result.user_update_times.values():
        assert when is not None
        assert spec.change_time <= when < spec.change_time + 1.0
    # The zero-failure baseline reproduces the system's own minimum m' = 7.
    assert result.update_message_count == 7
    assert result.details["m_prime"] == 7
    assert result.details["n_outages"] == 0


def test_zero_failure_sweep_metrics():
    spec = SweepSpec(systems=("frodo3",), failure_rates=(0.0,), runs_per_cell=3)
    result = sweep(spec)
    summary = result.summary_for("frodo3", 0.0)
    assert summary.effectiveness == 1.0
    assert summary.update_efficiency == 1.0
    assert summary.efficiency_degradation == 1.0
    assert summary.responsiveness > 0.999


def test_same_seed_reproduces_identical_results():
    spec = ScenarioSpec(system="frodo2", failure_rate=0.3, seed=7)
    first = ExperimentRunner().run(spec)
    second = ExperimentRunner().run(spec)
    assert first == second


def test_sweep_json_byte_identical():
    spec = SweepSpec(
        systems=("frodo3",), failure_rates=(0.0, 0.2), runs_per_cell=2, base_seed=9
    )
    first = to_json(sweep_to_dict(sweep(spec), include_runs=True))
    second = to_json(sweep_to_dict(sweep(spec), include_runs=True))
    assert first == second


def test_run_seeds_are_stable_and_distinct():
    seeds = {
        run_seed(0, system, rate, index)
        for system in ("frodo2", "frodo3")
        for rate in (0.0, 0.1)
        for index in range(5)
    }
    assert len(seeds) == 20  # no collisions across the grid
    # Derivation is position-stable: documented anchor value must never drift.
    assert run_seed(0, "frodo3", 0.0, 0) == run_seed(0, "frodo3", 0.0, 0)


def test_failure_plan_matches_model():
    rng = RngRegistry(5).stream("failures")
    plan = build_interface_failure_plan(["a", "b", "c"], 0.2, rng, 5400.0)
    assert len(plan) == 3
    for outage in plan:
        assert outage.duration == pytest.approx(0.2 * 5400.0)
        assert EARLIEST_ONSET == 100.0 <= outage.start <= 5400.0
        assert outage.mode in ("tx", "rx", "both")
    assert build_interface_failure_plan(["a"], 0.0, rng, 5400.0) == []
    with pytest.raises(ValueError):
        build_interface_failure_plan(["a"], 1.5, rng, 5400.0)


def test_nonzero_failure_rate_degrades_efficiency():
    spec = SweepSpec(
        systems=("frodo3",), failure_rates=(0.0, 0.5), runs_per_cell=3, base_seed=1
    )
    result = sweep(spec)
    clean = result.summary_for("frodo3", 0.0)
    failed = result.summary_for("frodo3", 0.5)
    # Failures force extra propagation traffic -> degradation strictly below baseline.
    assert failed.efficiency_degradation < clean.efficiency_degradation
    assert failed.mean_update_messages > clean.mean_update_messages


def test_cli_sweep_acceptance(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "5"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    data = json.loads(out_a.read_text())
    (summary,) = data["summaries"]
    assert summary["system"] == "frodo3"
    assert summary["effectiveness"] == 1.0
    assert summary["runs"] == 5


def test_cli_stdout_and_systems(capsys):
    assert main(["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1", "--out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summaries"][0]["effectiveness"] == 1.0
    assert main(["systems"]) == 0
    listing = capsys.readouterr().out
    assert "frodo3" in listing and "frodo2" in listing


def test_cli_listings_match_the_pinned_bytes(capsys):
    """``systems`` and ``scenarios`` print exactly ``tests/data/cli_listings.txt``."""
    assert main(["systems"]) == 0
    assert main(["scenarios"]) == 0
    path = os.path.join(os.path.dirname(__file__), "data", "cli_listings.txt")
    with open(path, encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_cli_unknown_system_is_a_clean_error(capsys):
    assert main(["sweep", "--system", "nope", "--rates", "0", "--runs", "1"]) == 2
    assert "unknown system" in capsys.readouterr().err
