"""CLI regression tests: bad input exits non-zero with a clean error.

Every failure mode must surface as ``error: ...`` on stderr and exit code 2
— never a traceback — including the paths added with the executor layer
(``--jobs``, ``--resume``) and the count options (``--top``, ``--limit``).
"""

import json

import pytest

from repro.__main__ import main
from repro.experiments import ResiliencePolicy, SweepSpec, sweep


def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


def test_sweep_unknown_system_is_a_clean_error(capsys):
    code, err = _run(["sweep", "--system", "nope", "--rates", "0", "--runs", "1"], capsys)
    assert code == 2
    assert "unknown system" in err and "Traceback" not in err


def test_sweep_unknown_system_in_comma_list_with_jobs(capsys):
    # Validation happens before any worker process is spawned.
    argv = ["sweep", "--system", "frodo3,nope", "--rates", "0", "--runs", "1", "--jobs", "2"]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "unknown system" in err and "Traceback" not in err


def test_run_unknown_system_is_a_clean_error(capsys):
    code, err = _run(["run", "--system", "nope"], capsys)
    assert code == 2
    assert "unknown system" in err


def test_sweep_invalid_jobs_is_a_clean_error(capsys):
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1", "--jobs", "0"]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "jobs" in err and "Traceback" not in err


def test_sweep_resume_spec_mismatch_is_a_clean_error(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    base = ["--rates", "0", "--runs", "1", "--resume", str(ck), "--out", str(tmp_path / "o.json")]
    assert main(["sweep", "--system", "frodo3"] + base) == 0
    capsys.readouterr()
    code, err = _run(["sweep", "--system", "upnp"] + base, capsys)
    assert code == 2
    assert "different sweep spec" in err and "Traceback" not in err


def test_sweep_resume_corrupt_checkpoint_is_a_clean_error(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_text("{broken")
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1", "--resume", str(ck)]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_sweep_checks_every_failure_rate_before_any_cell(tmp_path):
    # Only the second rate is out of range: it is a spec error before any
    # cell runs, not a harness fault quarantined under the failure budget.
    spec = SweepSpec(systems=("frodo3",), failure_rates=(0.0, 1.5), runs_per_cell=1)
    with pytest.raises(ValueError, match=r"in \[0, 1\], got 1.5"):
        spec.validate()
    ck = tmp_path / "ck.jsonl"
    with pytest.raises(ValueError, match=r"in \[0, 1\], got 1.5"):
        sweep(spec, checkpoint=str(ck), policy=ResiliencePolicy(max_cell_failures=1))
    assert not ck.exists()


def test_sweep_duplicate_rates_are_a_clean_error(capsys):
    with pytest.raises(ValueError, match="duplicate failure rates"):
        SweepSpec(systems=("frodo3",), failure_rates=(0.0, 0.2, 0.0)).validate()
    code, err = _run(["sweep", "--system", "frodo3", "--rates", "0,0", "--runs", "1"], capsys)
    assert code == 2
    assert "duplicate failure rates" in err and "Traceback" not in err


def test_sweep_duplicate_systems_are_a_clean_error(capsys):
    # Systems compare by canonical token, so option order does not matter.
    spec = SweepSpec(systems=("jini@k=2,mode=pull", "jini@mode=pull,k=2"))
    with pytest.raises(ValueError, match="duplicate systems"):
        spec.validate()
    argv = ["sweep", "--system", "frodo3,frodo3", "--rates", "0", "--runs", "1"]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "duplicate systems" in err and "Traceback" not in err


#: Option values no cell can run, with the error each one reports.
OUT_OF_RANGE = {
    "jini@k=0": "k must be >= 1",
    "jini@mode=bogus": "unknown federation mode 'bogus'",
    "jini@ttl=-5.0": "ttl must be positive",
    "overlap@n=1": "overlap@n must be >= 2",
    "lossy@p=1.5": "lossy@p must be in [0, 1]",
    "partition@mode=bogus": "partition@mode must be one of",
    "restart@at=9000": "restart@at must fall inside the run",
    # NaN passes every range comparison; infinite times never end.
    "jini@gossip_interval=nan": "system option jini@gossip_interval must be finite, got nan",
    "lossy@span=nan": "scenario option lossy@span must be finite, got nan",
    "cascade@lag=inf": "scenario option cascade@lag must be finite, got inf",
}


@pytest.mark.parametrize("token", sorted(OUT_OF_RANGE))
def test_out_of_range_options_are_spec_errors_before_any_cell(token, tmp_path, capsys):
    # A value no cell can run is rejected up front, even under a failure
    # budget that would otherwise quarantine every cell; no journal is
    # written.
    message = OUT_OF_RANGE[token]
    if token.startswith("jini@"):
        selection = ["--system", token]
    else:
        selection = ["--system", "frodo3", "--scenario", token]
    ck = tmp_path / "ck.jsonl"
    argv = ["sweep", *selection, "--rates", "0,20", "--runs", "2", "--max-cell-failures", "10"]
    code, err = _run([*argv, "--resume", str(ck), "--out", str(tmp_path / "o.json")], capsys)
    assert code == 2 and err.startswith(f"error: {message}")
    assert not ck.exists()
    code, err = _run(["run", *selection, "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2 and err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--system", "frodo3", "--users", "0"],
        ["sweep", "--system", "frodo3", "--users", "-1"],
        ["trace", "timeline", "t.ndjson", "--limit", "0"],
        ["trace", "timeline", "t.ndjson", "--limit", "-1"],
    ],
)
def test_counts_below_one_are_clean_errors(argv, capsys):
    # argparse rejects the value before the command runs (exit 2).
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "must be >= 1" in err and "Traceback" not in err


def test_sweep_out_still_written_when_resume_used(tmp_path):
    out = tmp_path / "out.json"
    ck = tmp_path / "ck.json"
    argv = [
        "sweep",
        "--system",
        "frodo3",
        "--rates",
        "0",
        "--runs",
        "1",
        "--resume",
        str(ck),
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    assert json.loads(out.read_text())["summaries"][0]["system"] == "frodo3"


@pytest.mark.parametrize("command", ["summarize", "timeline"])
@pytest.mark.parametrize(
    "window,fragment",
    [
        (["--since", "nan"], "must be a finite time"),
        (["--until", "inf"], "must be a finite time"),
        (["--since=-inf"], "must be a finite time"),
        (["--since", "5000", "--until", "100"], "--since 5000 is after --until 100"),
    ],
    ids=["nan", "inf", "-inf", "inverted"],
)
def test_bad_trace_windows_are_clean_errors(command, window, fragment, capsys):
    # NaN passes no comparison, so it filtered nothing; an inverted window
    # matched nothing.  Both are refused before any trace is read.
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", command, "missing.ndjson", *window])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and fragment in err and "Traceback" not in err


def test_integer_too_large_for_a_float_option_is_a_spec_error(tmp_path, capsys):
    # The int-to-float widening used to raise OverflowError, a traceback.
    token = "churn@gap=" + "9" * 400
    message = "error: scenario option churn@gap must be finite, got an integer too large"
    for command in ("run", "sweep"):
        argv = [command, "--system", "frodo3", "--scenario", token]
        code, err = _run([*argv, "--out", str(tmp_path / "o.json")], capsys)
        assert code == 2 and err.startswith(message)
