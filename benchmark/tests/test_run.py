"""run.py: metric names, percentile rule, seeds and correctness checks."""

from __future__ import annotations

import copy
import json
import re
from typing import Any, Dict, List, Tuple

import child
import pytest
import run

ROOT = run.ROOT
#: A few cells covering UDP, TCP, multicast, federation and failure callbacks.
TINY = [
    {
        "systems": ("frodo3", "jini@k=2", "upnp"),
        "failure_rates": (0.0, 0.4),
        "runs_per_cell": 1,
    }
]


@pytest.fixture(scope="module")
def benchmark_json() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def untraced() -> Dict[str, Any]:
    return child.run_round(TINY, seed=1906)


@pytest.fixture(scope="module")
def traced() -> Dict[str, Any]:
    return child.run_round(TINY, seed=1906, trace=True)


def test_p90_needs_ten_samples_beyond_it() -> None:
    assert run.tail_percentile([float(i) for i in range(99)], 90) is None
    assert run.tail_percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    assert run.tail_percentile([float(i) for i in range(200)], 95) == pytest.approx(189.05)


def test_p90_appears_only_with_a_hundred_cells(untraced: Dict[str, Any]) -> None:
    record = dict(untraced, cell_walls=[0.01] * 99)
    assert "cell_s_p90" not in run.e2e_metrics([record], failed=0)
    record["cell_walls"] = [0.01] * 100
    assert run.e2e_metrics([record], failed=0)["cell_s_p90"][1] == 100


def test_metric_names_and_units_match_benchmark_json(
    benchmark_json: Dict[str, Any], untraced: Dict[str, Any], traced: Dict[str, Any]
) -> None:
    name_pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = run.e2e_metrics([untraced], failed=0)
    layers = run.trace_metrics(untraced, traced)
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared_e2e == run.E2E_UNITS
    assert {name: unit for name, (_v, _n, unit) in e2e.items() if name in declared_e2e} == (
        declared_e2e
    )
    assert {name: unit for name, (_v, _n, unit) in layers.items()} == declared_layers
    for name in list(declared_e2e) + list(declared_layers):
        assert name_pattern.fullmatch(name), name
    assert all(e2e[name][0] > 0 for name in declared_e2e)


def test_traced_round_matches_untraced_and_restores_wrappers(
    untraced: Dict[str, Any], traced: Dict[str, Any]
) -> None:
    from repro.net.interfaces import Endpoint

    assert Endpoint.deliver.__module__ == "repro.net.interfaces"
    assert not hasattr(Endpoint.deliver, "span_name")
    failed, problems = run.check([untraced, traced], seed=1906, expected={"seed": 0})
    assert (failed, problems) == (0, [])
    assert traced["counts"] == untraced["counts"]
    metrics = run.trace_metrics(untraced, traced)
    assert metrics["trace.unattributed_events"][0] == 0
    assert metrics["net.tcp_steps"][0] > 0
    assert metrics["failures.ops"][0] > 0


def test_check_counts_a_digest_mismatch_as_a_failed_cell(untraced: Dict[str, Any]) -> None:
    other = copy.deepcopy(untraced)
    key = sorted(other["digests"])[0]
    other["digests"][key] = "0" * 64
    failed, problems = run.check([untraced, other], seed=7, expected={"seed": 1906})
    assert failed == 1
    assert any(key in problem for problem in problems)
    assert run.check([untraced], seed=7, expected=None)[1] == ["no pinned digests in expected/"]


def test_seed_reaches_every_round(untraced: Dict[str, Any], capsys: Any) -> None:
    calls: List[Tuple[str, int, bool]] = []

    def fake_launch(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
        calls.append((workload, seed, trace))
        return copy.deepcopy(untraced)

    argv = ["--workload", "faults", "--workload", "table4", "--seed", "77", "--repeats", "2"]
    assert run.main(argv, launch=fake_launch) == 0
    assert calls == [
        ("faults", 77, False),
        ("table4", 77, False),
        ("faults", 77, False),
        ("table4", 77, False),
    ]
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "table4/cells_per_s" in result["metrics"]


def test_the_seed_changes_the_cells(untraced: Dict[str, Any]) -> None:
    again = child.run_round(TINY, seed=1906)
    other = child.run_round(TINY, seed=1907)
    assert again["digests"] == untraced["digests"]
    assert other["digests"].keys() == untraced["digests"].keys()
    assert other["digests"] != untraced["digests"]
