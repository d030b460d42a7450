"""Offline analysis of captured NDJSON traces (``python -m repro trace``).

Works over the files written by :class:`~repro.obs.sinks.NDJSONSink` — one
per sweep cell under ``--trace-dir``, or a single file from
``run --trace`` — and is the one way to query a trace:

* :func:`iter_records` — the records of one or more files, filtered by
  time window, category and event;
* :func:`summarize` — record counts, time span, per-category and
  per-event histograms, and the message-kind histograms (all sends and
  update-related ones) derived from the network-layer ``net/send`` records,
  which agree with :meth:`~repro.net.stats.MessageStats.counts_by_kind`
  for the same run;
* :func:`format_timeline` — the filtered records as a readable listing.

In every filter ``since`` and ``until`` are both inclusive.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.sinks import TRACE_FORMAT, read_trace
from repro.sim.tracing import TraceRecord

#: File name of the sweep's telemetry journal in a ``--trace-dir``.
TELEMETRY_JOURNAL = "telemetry.ndjson"


def expand_trace_paths(paths: Sequence[str]) -> List[str]:
    """Resolve files and directories into a sorted list of trace files.

    A directory contributes every ``*.ndjson`` inside it whose header carries
    the trace format tag (the per-cell telemetry journal and foreign files
    are skipped); an explicit file path is always taken as given, so a bad
    file still fails loudly.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if not name.endswith(".ndjson"):
                    continue
                candidate = os.path.join(path, name)
                try:
                    read_trace(candidate)
                except (ValueError, OSError):
                    continue
                out.append(candidate)
        else:
            out.append(path)
    if not out:
        raise ValueError(f"no trace files found under {list(paths)!r}")
    return out


def iter_records(
    paths: Sequence[str],
    since: Optional[float] = None,
    until: Optional[float] = None,
    category: Optional[str] = None,
    event: Optional[str] = None,
) -> Iterator[Tuple[str, TraceRecord]]:
    """Yield ``(source file, record)`` pairs matching the filters.

    ``since`` and ``until`` are both inclusive: a record at exactly either
    bound matches.
    """
    for path in expand_trace_paths(paths):
        for record in read_trace(path)[1]:
            if since is not None and record.time < since:
                continue
            if until is not None and record.time > until:
                continue
            if category is not None and record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            yield path, record


def summarize(
    paths: Sequence[str],
    since: Optional[float] = None,
    until: Optional[float] = None,
    category: Optional[str] = None,
) -> Dict[str, Any]:
    """Aggregate one or more trace files into a plain-data summary."""
    files: List[str] = []
    total = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    by_category: Counter = Counter()
    by_event: Counter = Counter()
    kinds: Counter = Counter()
    update_kinds: Counter = Counter()
    seen_files = set()
    for path, record in iter_records(paths, since=since, until=until, category=category):
        if path not in seen_files:
            seen_files.add(path)
            files.append(path)
        total += 1
        if first_time is None or record.time < first_time:
            first_time = record.time
        if last_time is None or record.time > last_time:
            last_time = record.time
        by_category[record.category] += 1
        by_event[f"{record.category}/{record.event}"] += 1
        if record.category == "net" and record.event == "send":
            key = f"{record.get('protocol')}.{record.get('kind')}"
            kinds[key] += 1
            if record.get("update_related"):
                update_kinds[key] += 1
    return {
        "files": files,
        "records": total,
        "first_time": first_time,
        "last_time": last_time,
        "by_category": dict(by_category),
        "by_event": dict(by_event),
        "message_kinds": dict(kinds),
        "update_message_kinds": dict(update_kinds),
    }


# --------------------------------------------------------------------------- formatting
def _histogram_lines(counts: Dict[str, int], indent: str = "  ") -> List[str]:
    width = max((len(name) for name in counts), default=0)
    return [
        f"{indent}{name:<{width}}  {count}"
        for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    ]


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize` output."""
    lines = [
        f"files:   {len(summary['files'])}",
        f"records: {summary['records']}",
    ]
    if summary["first_time"] is not None:
        lines.append(f"time:    {summary['first_time']:g} .. {summary['last_time']:g} s")
    if summary["by_category"]:
        lines.append("categories:")
        lines.extend(_histogram_lines(summary["by_category"]))
    if summary["by_event"]:
        lines.append("events:")
        lines.extend(_histogram_lines(summary["by_event"]))
    if summary["message_kinds"]:
        lines.append("message kinds (net/send):")
        lines.extend(_histogram_lines(summary["message_kinds"]))
    if summary["update_message_kinds"]:
        lines.append("update-related message kinds:")
        lines.extend(_histogram_lines(summary["update_message_kinds"]))
    return "\n".join(lines) + "\n"


def format_timeline(
    records: Iterable[Tuple[str, TraceRecord]],
    limit: Optional[int] = None,
    show_source: bool = False,
) -> str:
    """Render filtered records, one per line, in file/write order."""
    lines: List[str] = []
    truncated = False
    for path, record in records:
        if limit is not None and len(lines) >= limit:
            truncated = True
            break
        fields = " ".join(f"{key}={value!r}" for key, value in sorted(record.fields.items()))
        prefix = f"{os.path.basename(path)}: " if show_source else ""
        line = f"{prefix}t={record.time:<12g} {record.category}/{record.event}"
        if fields:
            line += "  " + fields
        lines.append(line)
    if truncated:
        lines.append(f"... (truncated at {limit} records)")
    if not lines:
        return "(no matching records)\n"
    return "\n".join(lines) + "\n"


__all__ = [
    "TELEMETRY_JOURNAL",
    "TRACE_FORMAT",
    "expand_trace_paths",
    "format_summary",
    "format_timeline",
    "iter_records",
    "summarize",
]
