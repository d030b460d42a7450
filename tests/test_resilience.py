"""Fault-tolerant sweep execution: timeouts, retries, quarantine, recovery.

The invariant under test throughout: however bumpy the execution — retried
cells, poisoned cells quarantined under a failure budget, workers killed
mid-sweep, a Ctrl-C — the cells that *do* complete are byte-identical to an
undisturbed serial sweep, and an interrupted/degraded sweep plus a resume
converges to exactly the undisturbed output.
"""

import json
import signal
import threading
import time

import pytest

from repro.experiments import (
    DEFAULT_POLICY,
    CellExecutionError,
    CellFailure,
    CellTimeoutError,
    FailureBudgetExceededError,
    InjectedFaultError,
    ParallelExecutor,
    PoolRecoveryError,
    ResiliencePolicy,
    SerialExecutor,
    SweepSpec,
    load_checkpoint,
    sweep,
)
from repro.experiments.report import sweep_to_dict, to_json
from repro.experiments.resilience import (
    FAULT_ENV,
    FAULT_STATE_ENV,
    cell_deadline,
    parse_fault_directives,
    run_cell_guarded,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec
from repro.obs.progress import SweepProgress
from repro.__main__ import main

SPEC = SweepSpec(
    systems=("frodo3",),
    failure_rates=(0.0, 0.2),
    runs_per_cell=2,
    base_seed=7,
)

#: The third cell of SPEC's expansion (grid order: 0.0#0, 0.0#1, 0.2#0, 0.2#1).
POISON_KEY = "frodo3~5u@0.2#0"


def _sweep_json(spec, **kwargs):
    return to_json(sweep_to_dict(sweep(spec, **kwargs), include_runs=True))


class _FlakyRunner:
    """Fails the first ``failures`` calls, then delegates to a real runner."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc or RuntimeError("transient")
        self.calls = 0
        self._real = ExperimentRunner()

    def run(self, scenario):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return self._real.run(scenario)


# --------------------------------------------------------------------------- policy
def test_policy_validation_rejects_bad_values():
    assert ResiliencePolicy().validate() == ResiliencePolicy()
    for bad in (
        ResiliencePolicy(cell_timeout=0.0),
        ResiliencePolicy(cell_timeout=-1.0),
        ResiliencePolicy(max_retries=-1),
        ResiliencePolicy(retry_backoff=-0.1),
        ResiliencePolicy(max_cell_failures=-1),
        ResiliencePolicy(max_pool_rebuilds=-1),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_parse_fault_directives():
    assert parse_fault_directives("kill:frodo3~5u@0.2#1;poison:upnp") == [
        ("kill", "frodo3~5u@0.2#1"),
        ("poison", "upnp"),
    ]
    assert parse_fault_directives("") == []
    for bad in ("explode:x", "kill:", "justakey"):
        with pytest.raises(ValueError, match=FAULT_ENV):
            parse_fault_directives(bad)


# --------------------------------------------------------------------------- guarded runs
def test_retry_recovers_and_is_byte_identical_to_first_try():
    scenario = ScenarioSpec(system="frodo3", failure_rate=0.2, seed=3)
    clean = ExperimentRunner().run(scenario)
    flaky = _FlakyRunner(failures=2)
    policy = ResiliencePolicy(max_retries=2, retry_backoff=0.0)
    result, attempts = run_cell_guarded(flaky, scenario, "k", policy)
    assert attempts == 3
    # Determinism rule: a retried cell equals a first-try cell exactly —
    # every attempt rebuilds the stack from the cell's own seed, so retries
    # consume no scenario RNG and leave no trace in the result.
    assert result == clean


def test_exhausted_retries_raise_typed_cell_execution_error():
    flaky = _FlakyRunner(failures=99, exc=InjectedFaultError("boom"))
    scenario = ScenarioSpec(system="frodo3", failure_rate=0.0, seed=0)
    policy = ResiliencePolicy(max_retries=1, retry_backoff=0.0)
    with pytest.raises(CellExecutionError) as excinfo:
        run_cell_guarded(flaky, scenario, "the-key", policy)
    assert excinfo.value.key == "the-key"
    assert excinfo.value.attempts == 2
    failure = excinfo.value.failure()
    assert failure.error == "InjectedFaultError"
    assert failure.message == "boom"
    assert CellFailure.from_dict(failure.to_dict()) == failure


def test_keyboard_interrupt_is_never_retried():
    flaky = _FlakyRunner(failures=99, exc=KeyboardInterrupt())
    scenario = ScenarioSpec(system="frodo3", failure_rate=0.0, seed=0)
    with pytest.raises(KeyboardInterrupt):
        run_cell_guarded(
            flaky, scenario, "k", ResiliencePolicy(max_retries=5, retry_backoff=0.0)
        )
    assert flaky.calls == 1


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_cell_deadline_times_out_and_restores_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(CellTimeoutError, match="0.05"):
        with cell_deadline(0.05):
            time.sleep(5.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_cell_deadline_is_inert_off_the_main_thread():
    outcome = {}

    def body():
        with cell_deadline(0.01):
            time.sleep(0.05)
        outcome["ok"] = True

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    assert outcome.get("ok")  # unguarded, not crashed


# --------------------------------------------------------------------------- quarantine
def test_serial_executor_routes_failures_to_on_error(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, f"poison:{POISON_KEY}")
    cells = SPEC.expand()
    scenarios = [cell.scenario for cell in cells]
    keys = [cell.key for cell in cells]
    executor = SerialExecutor()
    done = []
    errors = []
    executor.run_scenarios(
        scenarios,
        keys,
        ExperimentRunner(),
        DEFAULT_POLICY,
        lambda index, result, wall_seconds: done.append(index),
        lambda index, failure: errors.append((index, failure)),
    )
    assert done == [0, 1, 3]
    assert [(index, failure.key) for index, failure in errors] == [(2, POISON_KEY)]
    assert errors[0][1].error == "InjectedFaultError"
    assert executor.last_stats.failed_cells == 1


def test_sweep_quarantines_within_budget_and_resume_fills_the_gap(
    tmp_path, monkeypatch
):
    baseline = _sweep_json(SPEC)
    ck = tmp_path / "ck.jsonl"
    monkeypatch.setenv(FAULT_ENV, f"poison:{POISON_KEY}")
    policy = ResiliencePolicy(max_cell_failures=1)
    result = sweep(SPEC, checkpoint=str(ck), policy=policy)
    # The poisoned cell is an explicit gap, not an abort and not a fake row.
    assert [failure.key for failure in result.failures] == [POISON_KEY]
    assert len(result.runs) == SPEC.total_runs - 1
    assert len(result.summaries) == 2  # the 0.2 summary is built from 1 run
    data = sweep_to_dict(result, include_runs=True)
    assert data["failures"][0]["key"] == POISON_KEY
    # The journal carries a typed cell_error record; the cell stays pending.
    errors = []
    completed = load_checkpoint(str(ck), SPEC, errors_out=errors)
    assert POISON_KEY not in completed
    assert [failure.key for failure in errors] == [POISON_KEY]
    raw = [json.loads(line) for line in ck.read_text().splitlines()[1:]]
    assert any("cell_error" in record for record in raw)
    # Resume with the fault gone: only the gap is re-run, and the final
    # output is byte-identical to a sweep that never saw a fault.
    monkeypatch.delenv(FAULT_ENV)
    progress = SweepProgress()
    resumed = _sweep_json(SPEC, checkpoint=str(ck), progress=progress)
    assert progress.done - progress.resumed == 1
    assert resumed == baseline


def test_sweep_aborts_past_the_failure_budget(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, f"poison:{POISON_KEY}")
    ck = tmp_path / "ck.jsonl"
    with pytest.raises(FailureBudgetExceededError, match="--max-cell-failures"):
        sweep(SPEC, checkpoint=str(ck))  # default budget: 0
    # Cells completed before the abort are checkpointed all the same.
    assert len(load_checkpoint(str(ck), SPEC)) == 2


def test_sweep_retry_heals_a_once_only_fault(tmp_path, monkeypatch):
    baseline = _sweep_json(SPEC)
    monkeypatch.setenv(FAULT_ENV, f"poison:{POISON_KEY}")
    monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path / "faults"))
    executor = SerialExecutor()
    healed = _sweep_json(
        SPEC, executor=executor, policy=ResiliencePolicy(max_retries=1)
    )
    assert healed == baseline
    assert executor.last_stats.retried_cells == 1
    assert executor.last_stats.attempts[POISON_KEY] == 2


# --------------------------------------------------------------------------- worker death
def test_killed_worker_is_recovered_and_output_is_byte_identical(
    tmp_path, monkeypatch
):
    baseline = _sweep_json(SPEC)
    monkeypatch.setenv(FAULT_ENV, f"kill:{POISON_KEY}")
    monkeypatch.setenv(FAULT_STATE_ENV, str(tmp_path / "faults"))
    executor = ParallelExecutor(2)
    survived = _sweep_json(SPEC, executor=executor)
    assert survived == baseline
    assert executor.last_stats.pool_rebuilds >= 1


def test_repeatedly_dying_worker_exhausts_the_rebuild_cap(monkeypatch):
    # No state dir: the kill directive fires on *every* attempt, so every
    # rebuilt pool dies again until the cap trips.
    monkeypatch.setenv(FAULT_ENV, f"kill:{POISON_KEY}")
    with pytest.raises(PoolRecoveryError, match="rebuild cap"):
        sweep(
            SPEC,
            executor=ParallelExecutor(2),
            policy=ResiliencePolicy(max_pool_rebuilds=1),
        )


# --------------------------------------------------------------------------- interrupts
def test_keyboard_interrupt_flushes_completed_cells_to_checkpoint(
    tmp_path, monkeypatch
):
    baseline = _sweep_json(SPEC)
    ck = tmp_path / "ck.jsonl"
    real_run = ExperimentRunner.run

    def interruptible(self, scenario):
        if scenario.failure_rate == 0.2:
            raise KeyboardInterrupt
        return real_run(self, scenario)

    monkeypatch.setattr(ExperimentRunner, "run", interruptible)
    with pytest.raises(KeyboardInterrupt):
        sweep(SPEC, checkpoint=str(ck))
    # Both rate-0 cells finished before the interrupt and were flushed.
    assert sorted(load_checkpoint(str(ck), SPEC)) == [
        "frodo3~5u@0.0#0",
        "frodo3~5u@0.0#1",
    ]
    monkeypatch.setattr(ExperimentRunner, "run", real_run)
    assert _sweep_json(SPEC, checkpoint=str(ck)) == baseline


def test_cli_sigint_prints_the_exact_resume_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.__main__.sweep", lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt())
    )
    ck = tmp_path / "ck.jsonl"
    argv = [
        "sweep", "--system", "frodo3", "--rates", "0,20", "--runs", "2",
        "--resume", str(ck), "--out", str(tmp_path / "out.json"),
    ]
    assert main(argv) == 130
    err = capsys.readouterr().err
    assert "python -m repro sweep" in err
    assert f"--resume {ck}" in err  # re-running the printed command resumes


def test_cli_sigint_without_checkpoint_says_progress_is_lost(monkeypatch, capsys):
    monkeypatch.setattr(
        "repro.__main__.sweep", lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt())
    )
    assert main(["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1"]) == 130
    assert "progress is lost" in capsys.readouterr().err


# --------------------------------------------------------------------------- CLI exits
def test_cli_partial_results_exit_3_with_explicit_gaps(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(FAULT_ENV, f"poison:{POISON_KEY}")
    out = tmp_path / "out.json"
    argv = [
        "sweep", "--system", "frodo3", "--rates", "0,20", "--runs", "2",
        "--seed", "7", "--max-cell-failures", "1", "--per-run", "--out", str(out),
    ]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "quarantined" in err and POISON_KEY in err
    data = json.loads(out.read_text())
    assert [failure["key"] for failure in data["failures"]] == [POISON_KEY]
    assert len(data["runs"]) == 3


def test_cli_budget_exhaustion_is_a_clean_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(FAULT_ENV, "poison:frodo3")  # poisons every frodo3 cell
    argv = [
        "sweep", "--system", "frodo3", "--rates", "0", "--runs", "2",
        "--max-cell-failures", "1", "--out", str(tmp_path / "out.json"),
    ]
    assert main(argv) == 2
    assert "failure budget" in capsys.readouterr().err


def test_cli_rejects_inconsistent_policy(capsys):
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--cell-timeout", "0"]
    assert main(argv) == 2
    assert "cell_timeout" in capsys.readouterr().err


# --------------------------------------------------------------------------- degraded observability
def test_ndjson_sink_degrades_to_null_sink_on_unwritable_path(tmp_path, capsys):
    from repro.obs.sinks import NDJSONSink
    from repro.sim.tracing import TraceRecord

    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    sink = NDJSONSink(str(blocker / "trace.ndjson"))
    record = TraceRecord(time=0.0, category="net", event="send", fields={})
    sink.emit(record)
    sink.emit(record)  # the warning prints once, then records are discarded
    sink.close()
    err = capsys.readouterr().err
    assert err.count("tracing disabled") == 1
    assert not (blocker / "trace.ndjson").exists()


def test_sweep_survives_unwritable_trace_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    tiny = SweepSpec(systems=("frodo3",), failure_rates=(0.0,), runs_per_cell=1)
    result = sweep(tiny, trace_dir=str(blocker / "traces"))
    assert len(result.runs) == 1
    assert "tracing disabled" in capsys.readouterr().err


def test_telemetry_journal_records_attempts_and_quarantine(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, f"poison:{POISON_KEY}")
    trace_dir = tmp_path / "traces"
    result = sweep(
        SPEC,
        trace_dir=str(trace_dir),
        policy=ResiliencePolicy(max_cell_failures=1),
    )
    assert [failure.key for failure in result.failures] == [POISON_KEY]
    lines = (trace_dir / "telemetry.ndjson").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["resilience"]["failed_cells"] == 1
    assert header["resilience"]["quarantined"] == [POISON_KEY]
    records = {record["key"]: record for record in map(json.loads, lines[1:])}
    assert records[POISON_KEY]["error"] == "InjectedFaultError"
    assert records[POISON_KEY]["telemetry"] is None  # the gap stays explicit
    assert records["frodo3~5u@0.0#0"]["attempts"] == 1
    assert records["frodo3~5u@0.0#0"]["error"] is None
