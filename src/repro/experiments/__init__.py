"""Experiment orchestration: scenarios, the runner, sweeps and reporting.

This package turns the simulation ingredients (:mod:`repro.sim`,
:mod:`repro.net`, :mod:`repro.protocols`, :mod:`repro.core`) into the paper's
experiment:

* :mod:`repro.experiments.scenario` — :class:`ScenarioSpec`, the full
  description of one run,
* :mod:`repro.experiments.scenarios` — the named disruption-scenario
  families (``table4``, ``churn``, ``cascade``, ...) that turn a spec into a
  :class:`~repro.net.failures.DisruptionPlan`,
* :mod:`repro.experiments.runner` — :class:`ExperimentRunner`, which builds
  the stack (deployment via the protocol registry, failure plan, consistency
  tracker), triggers the service change and extracts a
  :class:`~repro.core.metrics.RunResult`,
* :mod:`repro.experiments.sweep` — the systems x failure-rates x seeds
  driver with deterministic per-run seed derivation, cell-based task
  expansion and checkpoint/resume,
* :mod:`repro.experiments.executors` — serial and process-parallel cell
  execution with ordered (byte-identical) aggregation,
* :mod:`repro.experiments.report` — JSON / CSV / table emitters.

The ``python -m repro`` CLI (:mod:`repro.__main__`) is a thin wrapper over
this package.
"""

from repro.experiments.scenario import (
    DEFAULT_CHANGE_TIME,
    DEFAULT_SIM_DURATION,
    ScenarioSpec,
    cell_key,
    run_seed,
)
from repro.experiments.scenarios import (
    SCENARIOS,
    ScenarioFamily,
    ScenarioRegistry,
    UnknownScenarioError,
    parse_scenario,
    scenario_token,
)
from repro.experiments.runner import ExperimentRunner, RunContext, run_scenario
from repro.experiments.resilience import (
    DEFAULT_POLICY,
    CellExecutionError,
    CellFailure,
    CellTimeoutError,
    ExecutionStats,
    FailureBudgetExceededError,
    InjectedFaultError,
    PoolRecoveryError,
    ResiliencePolicy,
)
from repro.experiments.executors import (
    ParallelExecutor,
    SerialExecutor,
    SweepExecutor,
    make_executor,
)
from repro.experiments.sweep import (
    CheckpointMismatchError,
    SweepCell,
    SweepResult,
    SweepSpec,
    load_checkpoint,
    save_checkpoint,
    sweep,
)
from repro.experiments.report import (
    format_summary_table,
    summaries_to_csv,
    sweep_to_dict,
    to_json,
    write_sweep_json,
)

__all__ = [
    "DEFAULT_CHANGE_TIME",
    "DEFAULT_SIM_DURATION",
    "ScenarioSpec",
    "cell_key",
    "run_seed",
    "SCENARIOS",
    "ScenarioFamily",
    "ScenarioRegistry",
    "UnknownScenarioError",
    "parse_scenario",
    "scenario_token",
    "ExperimentRunner",
    "RunContext",
    "run_scenario",
    "DEFAULT_POLICY",
    "CellExecutionError",
    "CellFailure",
    "CellTimeoutError",
    "ExecutionStats",
    "FailureBudgetExceededError",
    "InjectedFaultError",
    "PoolRecoveryError",
    "ResiliencePolicy",
    "ParallelExecutor",
    "SerialExecutor",
    "SweepExecutor",
    "make_executor",
    "CheckpointMismatchError",
    "SweepCell",
    "SweepSpec",
    "SweepResult",
    "load_checkpoint",
    "save_checkpoint",
    "sweep",
    "format_summary_table",
    "summaries_to_csv",
    "sweep_to_dict",
    "to_json",
    "write_sweep_json",
]
