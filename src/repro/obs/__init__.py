"""Run-to-sweep observability: trace sinks, telemetry counters, progress.

The observability layer answers "what happened inside this run / this sweep"
without perturbing the experiment itself:

* :mod:`repro.obs.sinks` — destinations for
  :class:`~repro.sim.tracing.Tracer` records: a streaming NDJSON file sink
  with a versioned record schema (bounded memory at any N), and an
  in-memory list;
* :mod:`repro.obs.telemetry` — assembly of the always-on engine / timer /
  network counters into the per-run ``RunTelemetry`` dict attached to every
  :class:`~repro.core.metrics.RunResult`;
* :mod:`repro.obs.progress` — live cells-done / cells-per-second / ETA
  reporting for sweeps (the CLI's ``--progress``);
* :mod:`repro.obs.analyze` — offline queries over captured NDJSON traces
  (the ``python -m repro trace`` subcommand);
* :mod:`repro.obs.journal` — the NDJSON journal format that traces, sweep
  checkpoints and the telemetry journal share (header, records, torn tail).

Invariant: nothing in this package may change simulation results.  Counters
are pure observers, trace records never feed back into the models, and sweep
output stays byte-identical with observability on or off.
"""

from repro.obs.progress import SweepProgress
from repro.obs.sinks import (
    TRACE_FORMAT,
    TRACE_SCHEMA_VERSION,
    MemorySink,
    NDJSONSink,
    trace_filename,
)
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION, collect_run_telemetry

__all__ = [
    "TRACE_FORMAT",
    "TRACE_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "MemorySink",
    "NDJSONSink",
    "SweepProgress",
    "collect_run_telemetry",
    "trace_filename",
]
