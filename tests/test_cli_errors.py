"""CLI regression tests: bad input exits non-zero with a clean error.

Every failure mode must surface as ``error: ...`` on stderr and exit code 2
— never a traceback — including the paths added with the executor layer
(``--jobs``, ``--resume``) and the count options (``--top``, ``--limit``).
"""

import json

import pytest

from repro.__main__ import main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--system", "frodo3", "--top", "0"],
        ["profile", "--system", "frodo3", "--top", "-1"],
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
