"""Executor layer: serial fallback, process-pool parallelism, ordered output.

The contract (EXPERIMENTS.md "Parallel execution") is that the executor only
decides *where* cells run: aggregated sweep output is byte-identical whether
cells ran serially, on a process pool, or resumed from a checkpoint.
"""

import pytest

from repro.experiments import (
    DEFAULT_POLICY,
    ExperimentRunner,
    ParallelExecutor,
    ScenarioSpec,
    SerialExecutor,
    SweepSpec,
    make_executor,
    sweep,
)
from repro.experiments.report import sweep_to_dict, to_json
from repro.__main__ import main


def _sweep_json(spec, **kwargs):
    return to_json(sweep_to_dict(sweep(spec, **kwargs), include_runs=True))


def test_make_executor_jobs_one_falls_back_to_serial():
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(2), ParallelExecutor)
    assert make_executor(4).jobs == 4
    with pytest.raises(ValueError):
        make_executor(0)
    with pytest.raises(ValueError):
        ParallelExecutor(1)


def test_serial_executor_preserves_submission_order():
    scenarios = [
        ScenarioSpec(system="frodo3", failure_rate=rate, seed=index)
        for index, rate in enumerate((0.0, 0.2))
    ]
    seen = []
    SerialExecutor().run_scenarios(
        scenarios,
        ["a", "b"],
        ExperimentRunner(),
        DEFAULT_POLICY,
        lambda index, result, wall_seconds: seen.append((index, result)),
        lambda index, failure: pytest.fail(f"cell {index} failed: {failure}"),
    )
    assert [index for index, _ in seen] == [0, 1]
    assert [result.failure_rate for _, result in seen] == [0.0, 0.2]
    assert [result.seed for _, result in seen] == [0, 1]


def test_parallel_sweep_byte_identical_to_serial_multi_system_grid():
    spec = SweepSpec(
        systems=("frodo3", "upnp", "jini1"),
        failure_rates=(0.0, 0.2),
        runs_per_cell=2,
        base_seed=23,
    )
    serial = _sweep_json(spec)
    parallel = _sweep_json(spec, executor=ParallelExecutor(2))
    assert parallel == serial


def test_parallel_executor_rejects_customised_runner_without_spec():
    """The executor itself refuses a runner subclass, whether built directly
    or through make_executor, and fires no callback; a plain runner passes."""

    class InstrumentedRunner(ExperimentRunner):
        pass

    seen = []

    def record(*args):
        seen.append(args)

    scenarios = [ScenarioSpec(system="frodo3", failure_rate=0.0, seed=0)]
    for executor in (ParallelExecutor(2), make_executor(2)):
        with pytest.raises(ValueError, match="InstrumentedRunner.*jobs=1"):
            executor.run_scenarios(
                scenarios, ["a"], InstrumentedRunner(), DEFAULT_POLICY, record, record
            )
    assert seen == []
    ParallelExecutor(2).run_scenarios([], [], ExperimentRunner(), DEFAULT_POLICY, record, record)
    assert seen == []


def test_parallel_sweep_rejects_a_runner_subclass_before_any_cell(tmp_path):
    """Workers run cells on a plain runner, so an instrumented subclass would
    be silently replaced there: the sweep fails before any cell runs."""

    class CountingRunner(ExperimentRunner):
        calls = 0

        def run(self, spec):
            CountingRunner.calls += 1
            return super().run(spec)

    spec = SweepSpec(systems=("frodo3",), failure_rates=(0.0,), runs_per_cell=2)
    checkpoint = tmp_path / "ck.jsonl"
    with pytest.raises(ValueError, match="CountingRunner"):
        sweep(
            spec,
            runner=CountingRunner(),
            executor=ParallelExecutor(2),
            checkpoint=str(checkpoint),
        )
    assert CountingRunner.calls == 0
    assert not checkpoint.exists()
    # The same subclass runs serially.
    assert len(sweep(spec, runner=CountingRunner()).runs) == 2
    assert CountingRunner.calls == 2


def test_parallel_executor_empty_submission_returns_empty():
    """An empty submission finishes with no result and no callback."""
    seen = []

    def record(*args):
        seen.append(args)

    ParallelExecutor(2).run_scenarios([], [], ExperimentRunner(), DEFAULT_POLICY, record, record)
    assert seen == []


def test_cli_jobs_flag_is_byte_identical_to_serial(tmp_path):
    out_serial = tmp_path / "serial.json"
    out_parallel = tmp_path / "parallel.json"
    argv = ["sweep", "--system", "frodo3,upnp", "--rates", "0,20", "--runs", "2", "--per-run"]
    assert main(argv + ["--jobs", "1", "--out", str(out_serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(out_parallel)]) == 0
    assert out_serial.read_bytes() == out_parallel.read_bytes()
