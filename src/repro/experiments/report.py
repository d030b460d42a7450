"""Result reporting: MetricSummary tables as JSON and CSV.

All emitters are deterministic: dictionary keys are sorted, no timestamps or
environment data are embedded, and floats keep their full ``repr`` so that
re-running a sweep with the same seeds produces byte-identical output (the
reproducibility check the CLI relies on).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Any, Dict, Sequence, TextIO, Union

from repro.core.metrics import MetricSummary
from repro.experiments.sweep import SweepResult

#: Column order of the summary CSV (one row per (system, users, failure rate) cell).
SUMMARY_FIELDS = [
    "system",
    "failure_rate",
    "n_users",
    "runs",
    "responsiveness",
    "effectiveness",
    "update_efficiency",
    "efficiency_degradation",
    "mean_update_messages",
]


def summary_to_dict(summary: MetricSummary) -> Dict[str, Any]:
    """Plain-data form of one cell summary (JSON-serialisable)."""
    return {name: getattr(summary, name) for name in SUMMARY_FIELDS}


def sweep_to_dict(
    result: SweepResult,
    include_runs: bool = False,
) -> Dict[str, Any]:
    """Plain-data form of a whole sweep.

    Quarantined cells (fault-tolerant sweeps under a failure budget) appear
    under ``"failures"`` so the output names its own gaps; clean sweeps omit
    the key entirely, keeping their JSON byte-identical to pre-resilience
    output.
    """
    data: Dict[str, Any] = {
        "spec": result.spec.grid_dict(),
        "summaries": [summary_to_dict(summary) for summary in result.summaries],
    }
    if include_runs:
        data["runs"] = [run.to_dict() for run in result.runs]
    if result.failures:
        data["failures"] = [failure.to_dict() for failure in result.failures]
    return data


def to_json(data: Dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, stable separators, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def summaries_to_csv(summaries: Sequence[MetricSummary]) -> str:
    """The summary table as CSV text (header + one row per cell)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SUMMARY_FIELDS, lineterminator="\n")
    writer.writeheader()
    for summary in summaries:
        writer.writerow(summary_to_dict(summary))
    return buffer.getvalue()


def format_summary_table(summaries: Sequence[MetricSummary]) -> str:
    """Fixed-width table for terminal output."""
    header = (
        f"{'system':<10} {'lambda':>7} {'users':>6} {'runs':>5} "
        f"{'R':>7} {'F':>7} {'E':>7} {'G':>7} {'msgs':>8}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.system:<10} {s.failure_rate:>6.0%} {s.n_users:>6d} {s.runs:>5d} "
            f"{s.responsiveness:>7.4f} {s.effectiveness:>7.4f} "
            f"{s.update_efficiency:>7.4f} {s.efficiency_degradation:>7.4f} "
            f"{s.mean_update_messages:>8.1f}"
        )
    return "\n".join(lines) + "\n"


def write_text(text: str, out: Union[str, TextIO, None]) -> None:
    """Write ``text`` to a path, to an open stream, or to stdout (``"-"``/``None``)."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    out.write(text)


def write_sweep_json(
    result: SweepResult,
    out: Union[str, TextIO, None],
    include_runs: bool = False,
) -> str:
    """Serialise a sweep to canonical JSON and write it to ``out``; returns the text."""
    text = to_json(sweep_to_dict(result, include_runs=include_runs))
    write_text(text, out)
    return text
