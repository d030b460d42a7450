"""One NDJSON journal mechanism (:mod:`repro.obs.journal`) and its torn-tail rule.

Writers emit every line whole, newline included, so a crash can leave only
a final line without its newline.  That line is dropped when it does not
parse; any other unparsable or wrong-shaped line is corruption.  The rule
is pinned here for both readers: sweep checkpoints and event traces.
"""

import os

import pytest

from repro.__main__ import main
from repro.experiments import SweepSpec, load_checkpoint, sweep
from repro.obs import journal
from repro.obs.sinks import NDJSONSink, read_trace
from repro.sim.tracing import TraceRecord

SPEC = SweepSpec(systems=("frodo3",), failure_rates=(0.0,), runs_per_cell=2, base_seed=5)


def _is_demo(header):
    return header.get("format") == "demo"


def _ids(path):
    return list(journal.records(path, lambda record: record["id"]))


# --------------------------------------------------------------------------- the module
def test_append_writes_the_header_once_and_write_replaces_atomically(tmp_path):
    path = str(tmp_path / "j.ndjson")
    header = {"format": "demo", "version": 1}
    journal.append(path, header, journal.line({"id": 1}))
    journal.append(path, header, journal.line({"id": 2}))
    text = (tmp_path / "j.ndjson").read_text()
    assert text == '{"format": "demo", "version": 1}\n{"id": 1}\n{"id": 2}\n'
    assert journal.read_header(path, "demo", 1, _is_demo) == header
    assert _ids(path) == [1, 2]

    journal.write(path, header, [journal.line({"id": 3})])
    assert _ids(path) == [3]
    assert os.listdir(tmp_path) == ["j.ndjson"]  # the tmp file was renamed away


def test_header_errors_name_the_path_and_both_versions(tmp_path):
    path = tmp_path / "j.ndjson"
    path.write_text('{"format": "demo", "version": 2}\n')
    with pytest.raises(ValueError) as excinfo:
        journal.read_header(str(path), "demo", 1, _is_demo, hint="; regenerate it")
    message = str(excinfo.value)
    assert str(path) in message
    assert "has version 2" in message and "reads version 1" in message
    assert message.endswith("; regenerate it")

    with pytest.raises(ValueError, match="is not a demo file"):
        journal.read_header(str(path), "demo", 1, lambda header: False)

    path.write_text('{"format": "de')
    with pytest.raises(ValueError, match="not valid JSON") as excinfo:
        journal.read_header(str(path), "demo", 1, _is_demo)
    assert str(path) in str(excinfo.value)


# --------------------------------------------------------------------------- traces
def _trace(tmp_path, tail):
    path = tmp_path / "t.ndjson"
    sink = NDJSONSink(str(path))
    sink.emit(TraceRecord(time=1.0, category="c", event="e"))
    sink.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(tail)
    return str(path)


@pytest.mark.parametrize(
    "tail,code,text",
    [
        ('{"cat":"c","ev":"e","fie', 0, "records: 1"),  # torn final append: dropped
        ('{"cat":"c","ev":"e","t":2.0}', 0, "records: 2"),  # whole, merely unterminated
        ("\n\n", 0, "records: 1"),  # blank lines are skipped
        ('{"cat":"c","t":2.0}', 2, "corrupt at line 3"),  # whole but wrong-shaped
        ('{"cat":"c","t":2.0}\n', 2, "corrupt at line 3"),
        ("garbage\n", 2, "corrupt at line 3"),  # terminated, so not torn
    ],
)
def test_trace_final_line_follows_the_torn_tail_rule(tmp_path, capsys, tail, code, text):
    path = _trace(tmp_path, tail)
    assert main(["trace", "summarize", path]) == code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err
    assert code == 0 or path in captured.err


def test_trace_torn_header_names_the_path(tmp_path, capsys):
    path = tmp_path / "torn.ndjson"
    path.write_text('{"format": "repro-tr')
    with pytest.raises(ValueError, match="not valid JSON"):
        read_trace(str(path))
    assert main(["trace", "summarize", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


# --------------------------------------------------------------------------- checkpoints
def _checkpoint(tmp_path, tail):
    path = tmp_path / "ck.jsonl"
    sweep(SPEC, checkpoint=str(path))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(tail)
    return str(path)


@pytest.mark.parametrize(
    "tail,code",
    [
        ('{"key": "frodo3~5u@0.0#9", "ru', 0),  # torn final append: dropped
        ('{"key": "x"}', 2),  # whole but wrong-shaped
        ('{"key": "x"}\n', 2),
        ("garbage\n", 2),  # terminated, so not torn
    ],
)
def test_checkpoint_final_line_follows_the_torn_tail_rule(tmp_path, capsys, tail, code):
    path = _checkpoint(tmp_path, tail)
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "2", "--seed", "5"]
    assert main([*argv, "--resume", path, "--out", str(tmp_path / "o.json")]) == code
    if code:
        assert f"{path!r} is corrupt at line {SPEC.total_runs + 2}" in capsys.readouterr().err
    else:
        assert len(load_checkpoint(path, SPEC)) == SPEC.total_runs  # dropped and compacted away


def test_checkpoint_torn_foreign_header_names_the_path_and_is_kept(tmp_path, capsys):
    # Only a prefix of this sweep's own header is a fresh journal: resume
    # compacts the file, so anything else must fail before it is overwritten.
    path = tmp_path / "ck.jsonl"
    path.write_text('{"builder_options": "[]", "registry": [["other"')
    with pytest.raises(ValueError, match="not valid JSON") as excinfo:
        load_checkpoint(str(path), SPEC)
    assert str(path) in str(excinfo.value)
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1", "--resume", str(path)]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err
    assert path.read_text() == '{"builder_options": "[]", "registry": [["other"'
