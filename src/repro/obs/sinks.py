"""Trace sinks: pluggable destinations for structured trace records.

A :class:`~repro.sim.tracing.Tracer` forwards every record to its sink:

* :class:`NDJSONSink` — streams records to a newline-delimited JSON file as
  they happen, so a full per-cell trace of an N=1000 run costs bounded
  memory instead of millions of live record objects;
* :class:`MemorySink` — appends to an in-process list
  (``ScenarioSpec.trace`` and tests read :attr:`MemorySink.records`).

Captured NDJSON traces are queried by :mod:`repro.obs.analyze`.  A sink's
``emit`` is called once per record: it must be cheap and must never raise
into the simulation.

NDJSON file format (schema version :data:`TRACE_SCHEMA_VERSION`)
----------------------------------------------------------------
A trace is a journal (:mod:`repro.obs.journal`).  Line 1 is a header object::

    {"format": "repro-trace", "version": 1, "meta": {...}}

``meta`` carries optional run identity (system, seed, failure rate, ...);
it contains only deterministic values, never wall-clock timestamps.  Every
further line is one record::

    {"t": <sim time>, "cat": <category>, "ev": <event>, "fields": {...}}

Keys are sorted and floats keep their full ``repr``, so a trace file is
byte-deterministic for a given run.  Field values that are not JSON-native
are serialised via ``repr`` — a trace must never make a run fail.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.obs import journal
from repro.sim.tracing import TraceRecord

#: The ``format`` tag of the NDJSON header line.
TRACE_FORMAT = "repro-trace"

#: Version of the NDJSON record schema (bumped on incompatible changes).
TRACE_SCHEMA_VERSION = 1


class MemorySink:
    """Keeps every record in an in-process list."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def emit(self, record: TraceRecord) -> None:
        self.records.append(record)

    def close(self) -> None:
        """Nothing to flush."""


class NDJSONSink:
    """Streams records to an NDJSON file (one JSON object per line).

    The file (and any missing parent directories) is created lazily on the
    first record, so a run that traces nothing leaves no file behind.

    An unwritable path degrades the sink to discarding records — one stderr
    warning, then every record is dropped — because a trace must never make
    a run fail.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None):
        self.path = path
        self.meta = dict(meta) if meta else {}
        self._handle: Optional[TextIO] = None
        self._disabled = False

    def _open(self) -> Optional[TextIO]:
        try:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            handle = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            self._disabled = True
            print(
                f"warning: cannot write trace {self.path!r} ({exc}); "
                f"tracing disabled for this run",
                file=sys.stderr,
            )
            return None
        header: Dict[str, Any] = {"format": TRACE_FORMAT, "version": TRACE_SCHEMA_VERSION}
        if self.meta:
            header["meta"] = self.meta
        handle.write(journal.line(header))
        self._handle = handle
        return handle

    def emit(self, record: TraceRecord) -> None:
        if self._disabled:
            return
        handle = self._handle
        if handle is None:
            handle = self._open()
            if handle is None:
                return
        line = json.dumps(
            {
                "t": record.time,
                "cat": record.category,
                "ev": record.event,
                "fields": record.fields,
            },
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )
        handle.write(line + "\n")

    def close(self) -> None:
        handle = self._handle
        if handle is not None:
            self._handle = None
            handle.close()


# --------------------------------------------------------------------------- reading
def _decode_record(data: Dict[str, Any]) -> TraceRecord:
    return TraceRecord(
        time=float(data["t"]),
        category=data["cat"],
        event=data["ev"],
        fields=dict(data.get("fields") or {}),
    )


def read_trace(path: str) -> Tuple[Dict[str, Any], Iterator[TraceRecord]]:
    """Read one NDJSON trace file: ``(header, records)``.

    The header is validated before this returns (:class:`ValueError` names
    the path).  ``records`` streams the records in write order, in bounded
    memory, under the journal's torn-tail rule (:mod:`repro.obs.journal`).
    """
    header = journal.read_header(
        path, "trace", TRACE_SCHEMA_VERSION, lambda header: header.get("format") == TRACE_FORMAT
    )
    return header, journal.records(path, _decode_record)


def trace_filename(cell_key: str) -> str:
    """Deterministic, filesystem-safe NDJSON file name for one sweep cell.

    Cell keys contain ``~``/``@``/``#`` separators; every run of characters
    outside ``[A-Za-z0-9._-]`` collapses to one ``_``.  Keys share a fixed
    shape (system, users, rate, replication), so distinct keys stay distinct
    after sanitisation.
    """
    return re.sub(r"[^A-Za-z0-9._-]+", "_", cell_key) + ".ndjson"
