"""Checkpoint/resume of partial sweeps.

The checkpoint is an append-only JSONL journal (header line with the grid
parameters, then one line per finished cell).  A resumed sweep must produce
exactly the output an uninterrupted sweep would have produced, execute only
the cells the journal does not already contain, tolerate a torn final line
(interrupted append), and refuse journals written by a different grid.
"""

import json
import os

import pytest

from repro.experiments import (
    CheckpointMismatchError,
    ParallelExecutor,
    SweepSpec,
    load_checkpoint,
    save_checkpoint,
    sweep,
)
from repro.experiments.report import sweep_to_dict, to_json
from repro.experiments.sweep import CHECKPOINT_VERSION
from repro.obs.progress import SweepProgress
from repro.__main__ import main

SPEC = SweepSpec(
    systems=("frodo3",),
    failure_rates=(0.0, 0.2),
    runs_per_cell=2,
    base_seed=5,
)


def _sweep_json(spec, **kwargs):
    return to_json(sweep_to_dict(sweep(spec, **kwargs), include_runs=True))


def _journal_lines(path):
    return [line for line in path.read_text().splitlines() if line.strip()]


def _rewrite_header(path, **fields):
    """Replace header fields of a journal, as another harness might have written them."""
    lines = _journal_lines(path)
    header = json.loads(lines[0])
    header.update(fields)
    path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")


def _truncate_checkpoint(path, keep):
    """Drop all but ``keep`` completed cells, simulating an interrupted sweep."""
    lines = _journal_lines(path)
    path.write_text("\n".join(lines[: 1 + keep]) + "\n")
    return [json.loads(line)["key"] for line in lines[1 : 1 + keep]]


def test_fresh_sweep_creates_checkpoint_with_every_cell(tmp_path):
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    lines = _journal_lines(ck)
    header = json.loads(lines[0])
    assert header["version"] == CHECKPOINT_VERSION
    assert header["spec"] == SPEC.grid_dict()
    assert len(lines) - 1 == SPEC.total_runs


def test_resume_from_partial_checkpoint_is_byte_identical(tmp_path):
    baseline = _sweep_json(SPEC)
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    kept = _truncate_checkpoint(ck, keep=1)

    progress = SweepProgress()
    resumed = _sweep_json(SPEC, checkpoint=str(ck), progress=progress)
    assert resumed == baseline
    # Only the cells missing from the checkpoint were executed.
    assert progress.resumed == len(kept)
    assert progress.done - progress.resumed == SPEC.total_runs - len(kept)
    # The journal is complete again afterwards.
    assert len(_journal_lines(ck)) - 1 == SPEC.total_runs


def test_resume_composes_with_parallel_executor(tmp_path):
    baseline = _sweep_json(SPEC)
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    _truncate_checkpoint(ck, keep=2)
    resumed = _sweep_json(SPEC, checkpoint=str(ck), executor=ParallelExecutor(2))
    assert resumed == baseline


def test_torn_final_line_is_dropped_on_load(tmp_path):
    baseline = _sweep_json(SPEC)
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    # Simulate a crash mid-append: the last record is cut off.
    torn = ck.read_text()[:-40]
    ck.write_text(torn)
    loaded = load_checkpoint(str(ck), SPEC)
    assert len(loaded) == SPEC.total_runs - 1
    assert _sweep_json(SPEC, checkpoint=str(ck)) == baseline
    # The resume compacted the journal: the torn fragment is gone, the
    # re-run cell was re-appended as its own clean line, and a further
    # resume loads every cell (nothing merged into a corrupt record).
    assert len(_journal_lines(ck)) - 1 == SPEC.total_runs
    assert len(load_checkpoint(str(ck), SPEC)) == SPEC.total_runs


def test_torn_header_is_treated_as_fresh_journal(tmp_path):
    baseline = _sweep_json(SPEC)
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    header_line = _journal_lines(ck)[0]
    # Simulate a crash during the very first append: only part of the
    # header made it to disk.
    ck.write_text(header_line[: len(header_line) // 2])
    assert load_checkpoint(str(ck), SPEC) == {}
    assert _sweep_json(SPEC, checkpoint=str(ck)) == baseline
    assert len(_journal_lines(ck)) - 1 == SPEC.total_runs


def test_checkpoint_from_different_grid_is_rejected(tmp_path):
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    other = SweepSpec(systems=("upnp",), failure_rates=(0.0,), runs_per_cell=1)
    with pytest.raises(CheckpointMismatchError):
        sweep(other, checkpoint=str(ck))


def test_checkpoint_with_different_builder_options_is_rejected(tmp_path):
    # Same grid, but written with builder options (a deployment this
    # harness cannot build): must not mix results.
    ck = tmp_path / "ck.jsonl"
    save_checkpoint(str(ck), SPEC, {})
    assert json.loads(_journal_lines(ck)[0])["builder_options"] == "[]"
    _rewrite_header(ck, builder_options="[('n_registries', 2)]")
    with pytest.raises(CheckpointMismatchError, match="different sweep spec"):
        load_checkpoint(str(ck), SPEC)


def test_checkpoint_from_different_registry_is_rejected(tmp_path):
    # Same grid, written when a system had another closed-form m': must not
    # mix results.
    ck = tmp_path / "ck.jsonl"
    save_checkpoint(str(ck), SPEC, {})
    registry = json.loads(_journal_lines(ck)[0])["registry"]
    assert ["frodo3", 7] in registry
    _rewrite_header(ck, registry=[[name, 99 if name == "frodo3" else m] for name, m in registry])
    with pytest.raises(CheckpointMismatchError, match="different deployment registry"):
        load_checkpoint(str(ck), SPEC)


def test_corrupt_and_foreign_checkpoint_files_are_rejected(tmp_path):
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_checkpoint(str(corrupt), SPEC)
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text(json.dumps({"something": "else"}) + "\n")
    with pytest.raises(ValueError, match="not a sweep checkpoint"):
        load_checkpoint(str(foreign), SPEC)
    wrong_version = tmp_path / "old.jsonl"
    wrong_version.write_text(json.dumps({"version": 0, "spec": SPEC.grid_dict()}) + "\n")
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(str(wrong_version), SPEC)


@pytest.mark.parametrize("fixture", ["checkpoint_v3.jsonl", "checkpoint_v4.jsonl"])
def test_old_checkpoint_versions_fail_with_actionable_message(fixture):
    """Journals written by earlier harness versions (fixture files captured
    from their formats) must fail with a message naming the offending path,
    both version numbers, and what to do about it — not a spec-mismatch
    error or a traceback."""
    path = os.path.join(os.path.dirname(__file__), "data", fixture)
    old_version = fixture.split("_v")[1].split(".")[0]
    with pytest.raises(ValueError) as excinfo:
        load_checkpoint(path, SPEC)
    assert not isinstance(excinfo.value, CheckpointMismatchError)
    message = str(excinfo.value)
    assert fixture in message  # names the offending journal
    assert f"has version {old_version}" in message
    assert f"reads version {CHECKPOINT_VERSION}" in message
    assert "--resume" in message  # says how to recover


def test_corrupt_middle_record_is_rejected(tmp_path):
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    lines = _journal_lines(ck)
    lines[1] = "{garbage"  # not the final line: corruption, not a torn append
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt at line 2"):
        load_checkpoint(str(ck), SPEC)


def test_wrong_shape_record_is_rejected_not_a_traceback(tmp_path):
    # Valid JSON of the wrong shape (hand-edited / foreign JSONL) must raise
    # the clean corruption error, not KeyError/TypeError.
    ck = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(ck))
    lines = _journal_lines(ck)
    for bad in ('"x"', '{"foo": 1}', '{"key": "a", "run": {}}'):
        ck.write_text("\n".join([lines[0], bad, lines[1]]) + "\n")
        with pytest.raises(ValueError, match="corrupt at line 2"):
            load_checkpoint(str(ck), SPEC)


def test_checkpoint_round_trip_preserves_runs(tmp_path):
    result = sweep(SPEC)
    completed = {f"cell{i}": run for i, run in enumerate(result.runs)}
    path = tmp_path / "ck.jsonl"
    save_checkpoint(str(path), SPEC, completed)
    loaded = load_checkpoint(str(path), SPEC)
    assert loaded == completed


def test_missing_or_empty_checkpoint_file_means_fresh_sweep(tmp_path):
    ck = tmp_path / "absent.jsonl"
    assert load_checkpoint(str(ck), SPEC) == {}
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert load_checkpoint(str(empty), SPEC) == {}
    assert _sweep_json(SPEC, checkpoint=str(ck)) == _sweep_json(SPEC)
    assert ck.exists()


def test_cli_resume_flag_round_trip(tmp_path):
    ck = tmp_path / "ck.jsonl"
    out_first = tmp_path / "first.json"
    out_second = tmp_path / "second.json"
    argv = ["sweep", "--system", "frodo3", "--rates", "0,20", "--runs", "2", "--per-run"]
    assert main(argv + ["--resume", str(ck), "--out", str(out_first)]) == 0
    _truncate_checkpoint(ck, keep=1)
    assert main(argv + ["--resume", str(ck), "--out", str(out_second)]) == 0
    assert out_first.read_bytes() == out_second.read_bytes()
