"""Structured trace log.

Every model component records salient events (message sent, lease expired,
user became consistent, ...) as :class:`TraceRecord` entries.  The analysis
layer uses the trace for debugging and for the per-run message accounting
described in the paper's Update Efficiency metric.

Records flow to a sink (:mod:`repro.obs.sinks`): the NDJSON sink streams
records to disk with bounded memory (full traces at N=1000), and the
in-memory sink keeps them in a list.  A tracer without a sink is off.
Captured traces are queried offline by :mod:`repro.obs.analyze`
(``python -m repro trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

if TYPE_CHECKING:  # imported for annotations only (obs.sinks imports this module)
    from repro.obs.sinks import MemorySink, NDJSONSink


@dataclass(frozen=True)
class TraceRecord:
    """A single structured trace entry."""

    time: float
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Return a named field, or ``default`` when absent."""
        return self.fields.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = ", ".join(f"{k}={v!r}" for k, v in sorted(self.fields.items()))
        return f"TraceRecord(t={self.time:.6f}, {self.category}/{self.event}, {extra})"


class Tracer:
    """Gate and router for :class:`TraceRecord` entries.

    A tracer with a ``sink`` forwards every record to it.  Without one the
    tracer is off, for the parameter sweeps where only the aggregate
    counters matter; callers test :attr:`enabled` before building a record,
    so an off tracer costs one attribute load and one branch.
    """

    def __init__(self, sink: Optional[Union["MemorySink", "NDJSONSink"]] = None) -> None:
        self.sink = sink
        self.enabled = sink is not None

    def record(self, time: float, category: str, event: str, **fields: Any) -> None:
        """Hand one record to the sink (no-op when the tracer is off)."""
        sink = self.sink
        if sink is not None:
            sink.emit(TraceRecord(time=time, category=category, event=event, fields=fields))

    def close(self) -> None:
        """Flush and close the sink (idempotent; part of per-run teardown)."""
        if self.sink is not None:
            self.sink.close()
