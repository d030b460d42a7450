"""Observability layer: sinks, counters, telemetry, progress, trace analysis.

The overriding invariant under test: observability must never perturb
results.  Runs and sweeps with tracing off, in-memory, or streamed to NDJSON
produce identical RunResults (telemetry included), and the trace-derived
message accounting agrees with the in-memory :class:`MessageStats`.
"""

import io
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.experiments.executors import ParallelExecutor
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.report import summary_to_dict
from repro.experiments.sweep import SweepSpec, sweep
from repro.net.messages import MessageLayer
from repro.obs.analyze import TELEMETRY_JOURNAL, expand_trace_paths, iter_records, summarize
from repro.obs.progress import SweepProgress, _format_eta
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.protocols.registry import SYSTEMS
from repro.obs.sinks import MemorySink, NDJSONSink, read_trace, trace_filename
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.tracing import TraceRecord, Tracer

#: Short but non-trivial scenario: failures on, well past the change time.
SPEC = ScenarioSpec(system="frodo3", failure_rate=0.2, seed=7, change_time=500.0, deadline=1500.0)
SPEC_B = ScenarioSpec(system="upnp", failure_rate=0.1, seed=3, change_time=500.0, deadline=1500.0)


# --------------------------------------------------------------------------- tracer semantics
def test_tracer_filter_boundaries_inclusive(tmp_path):
    path = str(tmp_path / "t.ndjson")
    tracer = Tracer(NDJSONSink(path))
    for t in (1.0, 2.0, 3.0):
        tracer.record(t, "cat", "ev")
    tracer.close()

    def times(**bounds):
        return [record.time for _path, record in iter_records([path], **bounds)]

    assert times(since=2.0) == [2.0, 3.0]
    assert times(until=2.0) == [1.0, 2.0]
    assert times(since=2.0, until=2.0) == [2.0]
    assert len(times(since=1.0, until=3.0)) == 3


def test_disabled_tracer_is_a_noop():
    tracer = Tracer()  # no sink: off
    assert not tracer.enabled
    tracer.record(1.0, "cat", "ev", k=1)
    tracer.close()
    assert tracer.sink is None
    # A simulator given no tracer traces nothing, as every sweep cell does.
    sim = Simulator()
    sim.trace("cat", "ev")
    assert not sim.tracer.enabled and sim.tracer.sink is None


def test_sink_interface_and_memory_null_sinks(tmp_path):
    """Both sinks take ``emit`` and ``close``; a tracer without a sink is the
    null sink: it builds no record at all."""
    record = TraceRecord(time=1.0, category="c", event="e")
    memory = MemorySink()
    memory.emit(record)
    memory.close()
    assert memory.records == [record]

    path = str(tmp_path / "t.ndjson")
    streamed = NDJSONSink(path)
    streamed.emit(record)
    streamed.close()
    assert list(read_trace(path)[1]) == [record]

    tracer = Tracer(memory)
    assert tracer.enabled
    tracer.record(2.0, "c", "e", k=1)
    assert memory.records[-1] == TraceRecord(time=2.0, category="c", event="e", fields={"k": 1})


# --------------------------------------------------------------------------- NDJSON sink
def test_ndjson_sink_round_trip(tmp_path):
    path = str(tmp_path / "sub" / "t.ndjson")
    sink = NDJSONSink(path, meta={"seed": 7})
    tracer = Tracer(sink=sink)
    tracer.record(0.5, "net", "send", kind="ping", n=1)
    tracer.record(2.5, "node", "lease_expired", obj=object())  # non-JSON-native field
    tracer.close()
    tracer.close()  # idempotent

    header, records = read_trace(path)
    records = list(records)
    assert header["format"] == "repro-trace"
    assert header["version"] == 1
    assert header["meta"] == {"seed": 7}
    assert [(r.time, r.category, r.event) for r in records] == [
        (0.5, "net", "send"),
        (2.5, "node", "lease_expired"),
    ]
    assert records[0].fields == {"kind": "ping", "n": 1}
    assert records[1].get("obj").startswith("<object object")  # repr fallback


def test_ndjson_sink_eager_header_and_lazy_default(tmp_path):
    lazy = NDJSONSink(str(tmp_path / "lazy.ndjson"))
    lazy.close()
    assert not os.path.exists(tmp_path / "lazy.ndjson")


def test_trace_reader_rejects_foreign_files_and_tolerates_torn_tail(tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("not json\n")
    with pytest.raises(ValueError):
        read_trace(str(bad))

    wrong_version = tmp_path / "v9.ndjson"
    wrong_version.write_text('{"format": "repro-trace", "version": 9}\n')
    with pytest.raises(ValueError):
        read_trace(str(wrong_version))

    torn = tmp_path / "torn.ndjson"
    sink = NDJSONSink(str(torn))
    sink.emit(TraceRecord(time=1.0, category="c", event="e"))
    sink.close()
    with open(torn, "a", encoding="utf-8") as handle:
        handle.write('{"t": 2.0, "cat": "c"')  # interrupted final append
    assert len(list(read_trace(str(torn))[1])) == 1

    corrupt = tmp_path / "corrupt.ndjson"
    corrupt.write_text(
        '{"format": "repro-trace", "version": 1}\ngarbage\n{"t":1,"cat":"c","ev":"e"}\n'
    )
    with pytest.raises(ValueError):
        list(read_trace(str(corrupt))[1])


def test_trace_filename_is_sanitised_and_injective_for_cell_keys():
    assert trace_filename("frodo3~5u@0.2#1") == "frodo3_5u_0.2_1.ndjson"
    keys = ["frodo3~5u@0.0#0", "frodo3~5u@0.2#0", "upnp~100u@0.2#19"]
    assert len({trace_filename(k) for k in keys}) == len(keys)


# --------------------------------------------------------------------------- invariance
def test_observability_never_perturbs_results(tmp_path):
    baseline = ExperimentRunner().run(SPEC).to_dict()
    traced = ExperimentRunner().run(replace(SPEC, trace=True)).to_dict()
    streamed = ExperimentRunner().run(
        replace(SPEC, trace_path=str(tmp_path / "t.ndjson"))
    ).to_dict()
    assert baseline == traced == streamed


#: (system, scenario) cells whose trace must account for every send: every
#: registered system, plus TCP under a partition, a loss window and churn.
TRACE_CELLS = [(system, "table4") for system in SYSTEMS.names()] + [
    ("jini@k=4,mode=pull", "partition"),
    ("upnp", "lossy"),
    ("jini2", "churn"),
]


@pytest.mark.parametrize("system,scenario", TRACE_CELLS)
def test_trace_capture_agrees_with_message_stats(tmp_path, system, scenario):
    path = str(tmp_path / "cell.ndjson")
    runner = ExperimentRunner()
    spec = ScenarioSpec(system=system, failure_rate=0.2, seed=7, scenario=scenario, trace_path=path)
    context = runner.setup(spec)
    result = runner.execute(context)

    kinds, update_kinds = Counter(), Counter()
    for key, count in context.network.stats.sends.items():
        protocol, kind, _layer, update_related, _multicast = key
        kinds[f"{protocol}.{kind}"] += count
        if update_related:
            update_kinds[f"{protocol}.{kind}"] += count
    summary = summarize([path])
    assert summary["message_kinds"] == kinds
    assert summary["update_message_kinds"] == update_kinds
    # From the change time on, the trace's update-related kinds are y's split.
    since = summarize([path], since=result.change_time)
    assert since["update_message_kinds"] == result.details["update_counts_by_kind"]


# --------------------------------------------------------------------------- counters
def test_event_queue_counters_track_hwm_cancellations_and_compaction():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(200)]
    assert queue.hwm == 200
    for event in events[:130]:
        queue.cancel(event)
    assert queue.cancelled_total == 130
    assert queue.compactions >= 1
    assert len(queue._heap) < 200  # compaction shed the dead entries


def test_run_telemetry_is_deterministic_and_consistent():
    runner = ExperimentRunner()
    context = runner.setup(SPEC)
    result = runner.execute(context)
    telemetry = result.details["telemetry"]

    assert telemetry["version"] == TELEMETRY_SCHEMA_VERSION
    engine = telemetry["engine"]
    assert engine["events_fired"] == result.details["executed_events"]
    assert engine["events_scheduled"] >= engine["events_fired"]
    assert engine["heap_hwm"] >= 1

    timers = telemetry["timers"]
    assert timers["scheduled"] > 0  # frodo arms renewal timers
    assert set(timers) == {"scheduled", "cancelled"}
    assert engine["events_cancelled"] >= timers["cancelled"]  # timers share the heap

    net = telemetry["net"]
    stats = context.network.stats
    assert net["sends"] == sum(stats.sends.values())
    assert net["send_copies"] == stats.copies
    assert net["sends_by_layer"] == stats.counts_by_layer()
    assert sum(net["sends_by_layer"].values()) == net["sends"]
    assert net["update_sends"] == sum(
        count
        for (_protocol, _kind, layer, update_related, _multicast), count in stats.sends.items()
        if update_related and layer is MessageLayer.DISCOVERY
    )
    # y is the windowed part of those.
    assert net["update_sends"] >= result.update_message_count == sum(stats.windowed.values())
    assert net["dropped_tx"] >= 0 and net["dropped_rx"] >= 0  # failures at 20%

    again = runner.run(SPEC).details["telemetry"]
    assert again == telemetry  # counters are pure functions of seed + spec


# --------------------------------------------------------------------------- warm workers
def test_warm_runner_results_are_independent_of_prior_runs():
    """Satellite: a reused (warm-worker) runner must not leak state across cells."""
    warm = ExperimentRunner()
    warm.run(SPEC)  # cell k-1
    reused = warm.run(SPEC_B)  # cell k on the same runner
    fresh = ExperimentRunner().run(SPEC_B)
    assert reused.to_dict() == fresh.to_dict()  # telemetry included
    # And tracing cell k-1 must not bleed into cell k either.
    warm2 = ExperimentRunner()
    warm2.run(replace(SPEC, trace=True))
    assert warm2.run(SPEC_B).to_dict() == fresh.to_dict()


# --------------------------------------------------------------------------- progress
def test_sweep_progress_reports_throttles_and_names_slowest_cell():
    times = iter([0.0, 1.0, 1.1, 2.0, 3.0])
    out = io.StringIO()
    progress = SweepProgress(stream=out, clock=lambda: next(times), min_interval=0.25)
    progress.start(total=4, resumed=1)
    progress.cell_done("cell-a", 0.5)  # t=1.0: first fresh cell always prints
    progress.cell_done("cell-b", 2.0)  # t=1.1: throttled (0.1s since last print)
    progress.cell_done("cell-c", 1.0)  # t=2.0: final cell always prints
    progress.finish()  # t=3.0
    text = out.getvalue()
    assert "resuming, 1/4 cells" in text
    assert "progress: 2/4 cells" in text
    assert "4/4 cells" in text
    assert "cell-b" not in text.split("slowest")[0]  # its update was throttled
    assert "slowest cell cell-b at 2.000s" in text
    assert out.getvalue().count("\n") == 4


def test_progress_without_stream_is_silent_and_eta_formats():
    progress = SweepProgress(stream=None, clock=lambda: 0.0)
    progress.start(total=1)
    progress.cell_done("k")
    progress.finish()  # no stream: nothing to assert beyond "does not raise"
    assert _format_eta(59.4) == "00:59"
    assert _format_eta(61) == "01:01"
    assert _format_eta(3723) == "1:02:03"


# --------------------------------------------------------------------------- sweep integration
SWEEP_SPEC = SweepSpec(
    systems=("frodo3",),
    failure_rates=(0.0, 0.2),
    runs_per_cell=1,
    base_seed=11,
    n_users=3,
    change_time=500.0,
    deadline=1500.0,
)


def _sweep_payload(result):
    return (
        [run.to_dict() for run in result.runs],
        [summary_to_dict(summary) for summary in result.summaries],
    )


def test_sweep_with_observability_matches_plain_sweep(tmp_path):
    plain = _sweep_payload(sweep(SWEEP_SPEC))
    observed = _sweep_payload(
        sweep(
            SWEEP_SPEC,
            trace_dir=str(tmp_path / "serial"),
            progress=SweepProgress(stream=io.StringIO()),
        )
    )
    parallel = _sweep_payload(
        sweep(SWEEP_SPEC, executor=ParallelExecutor(2), trace_dir=str(tmp_path / "par"))
    )
    assert plain == observed == parallel


def test_sweep_trace_dir_writes_cell_traces_and_telemetry_journal(tmp_path):
    trace_dir = tmp_path / "out"
    result = sweep(SWEEP_SPEC, trace_dir=str(trace_dir))

    cells = SWEEP_SPEC.expand()
    for cell in cells:
        assert (trace_dir / trace_filename(cell.key)).exists()
    assert expand_trace_paths([str(trace_dir)]) == [
        str(trace_dir / trace_filename(cell.key)) for cell in sorted(cells, key=lambda c: c.key)
    ]

    journal = (trace_dir / TELEMETRY_JOURNAL).read_text().splitlines()
    header = json.loads(journal[0])
    assert header["format"] == "repro-telemetry"
    assert header["version"] == 2
    assert header["grid"] == SWEEP_SPEC.grid_dict()
    records = [json.loads(line) for line in journal[1:]]
    assert [r["key"] for r in records] == [cell.key for cell in cells]  # grid order
    for record, run in zip(records, result.runs):
        assert record["telemetry"] == run.details["telemetry"]
        assert record["wall_seconds"] > 0.0


def test_resumed_sweep_telemetry_journal_has_null_walls(tmp_path):
    checkpoint = str(tmp_path / "ck.jsonl")
    first = _sweep_payload(sweep(SWEEP_SPEC, checkpoint=checkpoint))
    trace_dir = tmp_path / "resumed"
    resumed = sweep(SWEEP_SPEC, checkpoint=checkpoint, trace_dir=str(trace_dir))
    assert _sweep_payload(resumed) == first

    journal = (trace_dir / TELEMETRY_JOURNAL).read_text().splitlines()
    records = [json.loads(line) for line in journal[1:]]
    assert records and all(r["wall_seconds"] is None for r in records)  # nothing re-ran
    assert all(r["telemetry"] is not None for r in records)  # counters survived resume
    # No cell was executed, so no per-cell trace was written.
    assert sorted(os.listdir(trace_dir)) == [TELEMETRY_JOURNAL]


# --------------------------------------------------------------------------- CLI
CLI_SCENARIO = [
    "--system",
    "frodo3",
    "--users",
    "3",
    "--change-time",
    "500",
    "--deadline",
    "1500",
]


def test_cli_run_trace_and_trace_subcommands(tmp_path, capsys):
    trace = str(tmp_path / "run.ndjson")
    out = str(tmp_path / "run.json")
    assert main(["run", *CLI_SCENARIO, "--rate", "20", "--trace", trace, "--out", out]) == 0
    assert read_trace(trace)[0]["meta"]["system"] == "frodo3"

    assert main(["trace", "summarize", trace]) == 0
    summary_text = capsys.readouterr().out
    assert "records:" in summary_text
    assert "message kinds (net/send):" in summary_text
    update_kinds = summary_text.split("update-related message kinds:\n")[1]
    assert update_kinds.startswith("  frodo.")

    assert main(["trace", "timeline", trace, "--category", "net", "--limit", "2"]) == 0
    timeline_text = capsys.readouterr().out
    assert "net/send" in timeline_text
    assert "truncated at 2 records" in timeline_text

    window = ["trace", "timeline", trace, "--since", "500", "--until", "600", "--show-source"]
    assert main(window) == 0
    assert "run.ndjson:" in capsys.readouterr().out


def test_cli_trace_errors_are_clean(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "missing.ndjson")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["trace", "summarize", str(tmp_path)]) == 2  # empty dir: no traces
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_trace_dir_and_progress(tmp_path, capsys):
    trace_dir = tmp_path / "cli-out"
    out = str(tmp_path / "sweep.json")
    argv = [
        "sweep",
        *CLI_SCENARIO,
        "--rates",
        "0,20",
        "--runs",
        "1",
        "--trace-dir",
        str(trace_dir),
        "--progress",
        "--out",
        out,
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "progress: done, 2/2 cells" in captured.err
    assert (trace_dir / TELEMETRY_JOURNAL).exists()
    assert len(list(trace_dir.glob("*.ndjson"))) == 3  # 2 cell traces + journal

    # The trace CLI reads the whole directory the sweep just wrote.
    assert main(["trace", "summarize", str(trace_dir)]) == 0
    assert "files:   2" in capsys.readouterr().out
