"""NDJSON journals: a JSON header line, then one JSON record per line.

The sweep checkpoint, the ``--trace-dir`` telemetry journal and the event
traces share this format, and only this module encodes a header, parses a
line or decides what a torn tail is.  Writers emit every line whole, with
its newline, so a crash can only leave a final line without one: that line
is dropped when it does not parse, and any other unparsable or wrong-shaped
line is ``'<path>' is corrupt at line N``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, Iterator, TypeVar

T = TypeVar("T")


def line(obj: Any) -> str:
    """One journal line: ``obj`` as JSON with sorted keys, newline-terminated."""
    return json.dumps(obj, sort_keys=True) + "\n"


def append(path: str, header: Dict[str, Any], text: str) -> None:
    """Append ``text``, writing ``header`` first when the file is new or empty."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as handle:
        if fresh:
            handle.write(line(header))
        handle.write(text)


def write(path: str, header: Dict[str, Any], lines: Iterable[str]) -> None:
    """Replace the journal atomically: write ``<path>.tmp``, then rename it."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(line(header))
        handle.writelines(lines)
    os.replace(tmp_path, path)


def read_header(
    path: str, kind: str, version: int, is_header: Callable[[Dict[str, Any]], bool], hint: str = ""
) -> Dict[str, Any]:
    """The header of the ``kind`` journal at ``path``.

    Raises :class:`ValueError` naming ``path`` when the line is not JSON, not
    ``is_header``, or not at ``version`` (naming both versions, then ``hint``).
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} {path!r} is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or not is_header(header):
        raise ValueError(f"{path!r} is not a {kind} file")
    if header.get("version") != version:
        raise ValueError(
            f"{kind} {path!r} has version {header.get('version')!r} but this harness "
            f"reads version {version}{hint}"
        )
    return header


def records(path: str, decode: Callable[[Any], T]) -> Iterator[T]:
    """Stream ``decode(record)`` for every non-blank line after the header.

    ``decode`` flags a wrong-shaped record with KeyError, TypeError or ValueError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        handle.readline()
        for number, text in enumerate(handle, start=2):
            if not text.strip():
                continue
            try:
                item = decode(json.loads(text))
            except (KeyError, TypeError, ValueError) as exc:
                if isinstance(exc, json.JSONDecodeError) and not text.endswith("\n"):
                    return  # the torn final append of an interrupted writer
                raise ValueError(f"{path!r} is corrupt at line {number}") from None
            yield item
