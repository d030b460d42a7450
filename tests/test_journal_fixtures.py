"""The three NDJSON journal formats, pinned byte for byte.

The checkpoint, the ``--trace-dir`` telemetry journal and the traces share
one writer (:mod:`repro.obs.journal`).  The ``tests/data/journal_*``
fixtures were captured from the harness before that writer existed; each
test regenerates its artifact through the CLI and requires byte equality.

Regenerate a fixture only when a format changes on purpose, and bump a
format's version when its reader can no longer load older files.
"""

import hashlib
import json
import os
import re

from repro.__main__ import main

DATA = os.path.join(os.path.dirname(__file__), "data")

#: The CI chaos grid (12 cells at N=5), with a budget for the poisoned cell.
GRID = "--system upnp,jini1,frodo3 --rates 0,20 --runs 2 --max-cell-failures 1".split()
POISON = "poison:upnp~5u@0.2#0"

#: One small ``run --trace`` capture.
RUN = "--system frodo3 --rate 20 --users 3 --change-time 500 --deadline 1500".split()

#: Wall time is the journal's only host-dependent value.
_WALL = re.compile(r'"wall_seconds": [0-9][-+.0-9e]*')


def _sweep(tmp_path, *extra):
    return main(["sweep", *GRID, "--out", str(tmp_path / "o.json"), *extra])


def capture_checkpoints(tmp_path, monkeypatch):
    """The checkpoint after a sweep with one poisoned cell, and after its clean resume."""
    ck = tmp_path / "ck.jsonl"
    monkeypatch.setenv("REPRO_FAULT_INJECT", POISON)
    assert _sweep(tmp_path, "--resume", str(ck)) == 3
    quarantined = ck.read_bytes()
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    assert _sweep(tmp_path, "--resume", str(ck)) == 0
    return quarantined, ck.read_bytes()


def capture_traces(tmp_path, monkeypatch):
    """The telemetry journal (walls masked) and SHA-256 of every trace file."""
    trace_dir = tmp_path / "traces"
    monkeypatch.setenv("REPRO_FAULT_INJECT", POISON)
    assert _sweep(tmp_path, "--trace-dir", str(trace_dir)) == 3
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    telemetry = _WALL.sub('"wall_seconds": "WALL"', (trace_dir / "telemetry.ndjson").read_text())
    run_trace = tmp_path / "run.ndjson"
    assert main(["run", *RUN, "--trace", str(run_trace), "--out", str(tmp_path / "r.json")]) == 0
    digests = {
        "run": hashlib.sha256(run_trace.read_bytes()).hexdigest(),
        "trace_dir": {
            name: hashlib.sha256((trace_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(trace_dir))
            if name != "telemetry.ndjson"
        },
    }
    return telemetry, digests


def _fixture(name, mode="r"):
    with open(os.path.join(DATA, name), mode) as handle:
        return handle.read()


def test_checkpoint_bytes_match_the_pinned_journals(tmp_path, monkeypatch):
    quarantined, resumed = capture_checkpoints(tmp_path, monkeypatch)
    assert b'"cell_error"' in quarantined
    assert quarantined == _fixture("journal_checkpoint_quarantined.jsonl", "rb")
    assert resumed == _fixture("journal_checkpoint_resumed.jsonl", "rb")


def test_committed_v5_journal_resumes_to_the_pinned_bytes(tmp_path):
    """The reader side of the pinned checkpoint: resuming the committed
    quarantined journal (its constant ``builder_options`` field included)
    fills the gap, ends byte-identical to the committed resumed journal, and
    writes the output of an uninterrupted sweep."""
    ck = tmp_path / "ck.jsonl"
    ck.write_bytes(_fixture("journal_checkpoint_quarantined.jsonl", "rb"))
    resumed = tmp_path / "resumed.json"
    fresh = tmp_path / "fresh.json"
    argv = ["sweep", *GRID, "--per-run"]
    assert main([*argv, "--resume", str(ck), "--out", str(resumed)]) == 0
    assert ck.read_bytes() == _fixture("journal_checkpoint_resumed.jsonl", "rb")
    assert main([*argv, "--out", str(fresh)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()


def test_journal_with_attempts_counts_resumes_to_the_pinned_bytes(tmp_path):
    """Checkpoints written while cells were still retried in process carry an
    ``attempts`` count in every ``cell_error`` record, under the same version
    5.  Such a journal still resumes, and ends byte-identical to the pinned
    resumed journal."""
    lines = _fixture("journal_checkpoint_quarantined.jsonl").splitlines(keepends=True)
    older = []
    for line in lines:
        record = json.loads(line)
        if "cell_error" in record:
            record["cell_error"]["attempts"] = 1
            line = json.dumps(record, sort_keys=True) + "\n"
        older.append(line)
    assert older != lines and sum('"attempts": 1' in line for line in older) == 1
    ck = tmp_path / "ck.jsonl"
    ck.write_text("".join(older))
    assert main(["sweep", *GRID, "--resume", str(ck), "--out", str(tmp_path / "o.json")]) == 0
    assert ck.read_bytes() == _fixture("journal_checkpoint_resumed.jsonl", "rb")


def test_telemetry_journal_and_trace_bytes_match_the_pinned_captures(tmp_path, monkeypatch):
    telemetry, digests = capture_traces(tmp_path, monkeypatch)
    assert '"resilience"' in telemetry and '"wall_seconds": null' in telemetry
    assert telemetry == _fixture("journal_telemetry_quarantined.ndjson")
    assert len(digests["trace_dir"]) == 11  # every cell but the poisoned one
    assert digests == json.loads(_fixture("journal_trace_sha256.json"))
