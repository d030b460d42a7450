"""Property-style determinism guarantees of the sweep machinery.

The sweep contract (EXPERIMENTS.md) is that per-run seeds derive from the
cell coordinates alone, so (a) extending a grid — more systems, rates or
replications — leaves every previously-existing cell byte-identical, and
(b) seeds never collide across distinct cells of a realistic grid.
"""

import json

from repro.__main__ import main
from repro.experiments import SweepSpec, run_seed, sweep
from repro.experiments.report import to_json


def _cell_json(result, system, rate):
    return [to_json(run.to_dict()) for run in result.cell_runs(system, rate)]


def test_extending_grid_keeps_existing_cells_byte_identical():
    base = SweepSpec(
        systems=("frodo3", "upnp"),
        failure_rates=(0.0, 0.2),
        runs_per_cell=2,
        base_seed=13,
    )
    extended = SweepSpec(
        systems=("frodo3", "upnp", "jini1"),
        failure_rates=(0.0, 0.2, 0.4),
        runs_per_cell=3,
        base_seed=13,
    )
    small = sweep(base)
    big = sweep(extended)
    for system, _n_users, rate in base.cells():
        before = _cell_json(small, system, rate)
        after = _cell_json(big, system, rate)[: base.runs_per_cell]
        assert before == after, f"cell ({system}, {rate}) changed when the grid grew"


def test_run_seeds_never_collide_on_realistic_grid():
    systems = ("frodo2", "frodo3", "upnp", "jini1", "jini2")
    rates = tuple(i / 10.0 for i in range(9))  # 0 % .. 80 %
    replications = 20
    seeds = {
        run_seed(0, system, rate, index)
        for system in systems
        for rate in rates
        for index in range(replications)
    }
    assert len(seeds) == len(systems) * len(rates) * replications


def test_cli_full_cross_system_sweep_is_deterministic(tmp_path):
    """The paper's full comparison runs through the CLI with zero runner changes."""
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = [
        "sweep",
        "--system",
        "upnp,jini1,jini2,frodo2,frodo3",
        "--rates",
        "0",
        "--runs",
        "2",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    data = json.loads(out_a.read_text())
    summaries = {s["system"]: s for s in data["summaries"]}
    assert set(summaries) == {"upnp", "jini1", "jini2", "frodo2", "frodo3"}
    for system, summary in summaries.items():
        assert summary["effectiveness"] == 1.0, system
        assert summary["efficiency_degradation"] == 1.0, system
