"""The repository benchmark: sweep cost per workload, end to end and by layer.

Run from the repository root::

    python3 benchmark/run.py [--workload NAME]... [--seed 1906] [--repeats 3]
                             [--seconds S] [--trace [0|1]] [--out FILE] [--pin]

Every round of every workload runs in a fresh child process (``child.py``),
one child at a time, with the serial executor.  Rounds are interleaved
across the selected workloads (W1, W2, ..., then W1, W2, ... again) and
each end-to-end metric is the median over the rounds.  ``--repeats`` sets
the number of rounds; ``--seconds`` instead keeps starting rounds until that
many seconds have passed (at least one round).

``--trace`` (or ``--trace 1``) runs the separate traced pass instead: per
workload one untraced reference round and one round with span wrappers
installed, and reports the per-layer metrics.

Output: one ``workload metric value unit n=samples`` line per metric, then,
as the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names carry a ``<workload>/`` prefix
when more than one workload is selected.  The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the benchmark could
not run (no result line is printed then).

Correctness: every cell's RunResult digest must equal the pinned digest in
``expected/<workload>.json`` (seed 1906) or, for other seeds, the first
round's; every table4 cell at rate 0 must meet the closed forms y == m' and
effectiveness == 1; exact telemetry counts must repeat across rounds and
between the traced and untraced passes; and in the traced pass the spans
directly under ``Simulator.run`` must account for every fired event.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"
DEFAULT_SEED = 1906
#: A child that runs longer than this is killed and the benchmark fails.
CHILD_TIMEOUT_S = 170.0

#: The gated end-to-end metrics (BENCHMARK.json) and their units.
E2E_UNITS = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

Record = Dict[str, Any]
Launch = Callable[[str, int, bool], Record]
Metric = Tuple[float, int, str]  # value, sample count, unit


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def launch_child(workload: str, seed: int, trace: bool) -> Record:
    """Run one round in a fresh process and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH")) if path
    )
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    try:
        proc = subprocess.run(
            command,
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            check=False,
            universal_newlines=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round ran longer than {CHILD_TIMEOUT_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(
    workloads: Sequence[str],
    seed: int,
    repeats: int,
    seconds: Optional[float],
    trace: bool,
    launch: Launch = launch_child,
) -> Dict[str, List[Record]]:
    """Run the rounds; returns each workload's records in execution order.

    In the traced pass each workload gets an untraced reference round
    followed by one traced round.
    """
    rounds: Dict[str, List[Record]] = {workload: [] for workload in workloads}
    if trace:
        for workload in workloads:
            rounds[workload] = [launch(workload, seed, False), launch(workload, seed, True)]
        return rounds
    begin = time.monotonic()
    while True:
        for workload in workloads:
            rounds[workload].append(launch(workload, seed, False))
        done = len(rounds[workloads[0]])
        if seconds is None and done >= repeats:
            break
        if seconds is not None and time.monotonic() - begin >= seconds:
            break
    return rounds


# --------------------------------------------------------------------------- correctness
def load_expected(workload: str) -> Optional[Dict[str, Any]]:
    """The pinned digests of a workload, or ``None`` when none are committed."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def pin(workload: str, seed: int, record: Record) -> Path:
    """Write a round's digests as the workload's pinned expectation."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    data = {
        "seed": seed,
        "cells": record["digests"],
        "summaries": record["summary_digests"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def check(
    records: Sequence[Record], seed: int, expected: Optional[Dict[str, Any]]
) -> Tuple[int, List[str]]:
    """Failed cells (summed over records) and run-level problems of one workload.

    A cell fails a round when it raised, broke a closed form, or its digest
    differs from the pinned one (seed 1906) or the first round's (other
    seeds), or its telemetry differs from the first round's.
    """
    problems: List[str] = []
    if expected is None:
        problems.append("no pinned digests in expected/")
    pinned = expected is not None and expected.get("seed") == seed
    first = records[0]
    reference = expected["cells"] if pinned else first["digests"]
    summaries = expected["summaries"] if pinned else first["summary_digests"]
    telemetry = first["telemetry_digests"]
    failed = 0
    for index, record in enumerate(records):
        errors = set(record["errors"])
        bad = errors | set(record["closed_form_failures"])
        digests = record["digests"]
        bad.update(
            key for key in reference if key not in errors and digests.get(key) != reference[key]
        )
        bad.update(key for key in digests if key not in reference)
        bad.update(
            key
            for key, value in record["telemetry_digests"].items()
            if telemetry.get(key) != value
        )
        failed += len(bad)
        if record["summary_digests"] != summaries:
            problems.append(f"round {index + 1}: sweep summary JSON differs from the reference")
        if record["counts"] != first["counts"]:
            problems.append(f"round {index + 1}: telemetry counts differ from round 1")
        for key in sorted(bad)[:5]:
            problems.append(f"round {index + 1}: cell {key} failed a correctness check")
    return failed, problems


# --------------------------------------------------------------------------- metrics
def tail_percentile(samples: Sequence[float], percent: int) -> Optional[float]:
    """The ``percent``-th percentile, or ``None`` if fewer than ten samples lie above it."""
    if len(samples) * (100 - percent) < 10 * 100:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[percent - 1]


def e2e_metrics(records: Sequence[Record], failed: int) -> Dict[str, Metric]:
    """End-to-end metrics of a workload's untraced rounds (medians over rounds).

    Times are in reference seconds: each round's measured seconds divided by
    its host slowdown.  Only :data:`E2E_UNITS` are gated; the per-cell
    percentiles, ``cell_error_rate`` and ``host_slowdown`` are printed.
    ``cell_s_p90`` appears only when at least ten cell samples lie beyond it.
    """
    walls = [
        wall / record["host_slowdown"] for record in records for wall in record["cell_walls"]
    ]
    rounds = len(records)
    attempted = sum(record["cells"] for record in records)
    metrics: Dict[str, Metric] = {
        "cells_per_s": (
            statistics.median(
                record["cells"] * record["host_slowdown"] / record["sweep_wall_s"]
                for record in records
            ),
            rounds,
            "cells/s",
        ),
        "cell_s_p50": (statistics.median(walls), len(walls), "s"),
        "setup_s": (
            statistics.median(
                (record["startup_s"] + record["cell_setup_s"]) / record["host_slowdown"]
                for record in records
            ),
            rounds,
            "s",
        ),
        "peak_rss_mb": (
            statistics.median(record["peak_rss_kib"] / 1024.0 for record in records),
            rounds,
            "MiB",
        ),
    }
    p90 = tail_percentile(walls, 90)
    if p90 is not None:
        metrics["cell_s_p90"] = (p90, len(walls), "s")
    metrics["cell_error_rate"] = (failed / attempted, attempted, "fraction")
    metrics["host_slowdown"] = (
        statistics.median(record["host_slowdown"] for record in records),
        rounds,
        "ratio",
    )
    return metrics


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("_ns") or ".ns_per_" in name or "_ns_per_" in name:
        return "ns"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def trace_metrics(reference: Record, traced: Record) -> Dict[str, Metric]:
    """Per-layer metrics of one traced round against its untraced reference."""
    edges = {
        (parent, name): [count, total, self_s]
        for parent, name, count, total, self_s in traced["spans"]
    }
    values = layer_metrics(
        edges,
        reference["counts"],
        traced["sweep_wall_s"] + traced["report_wall_s"],
        reference["sweep_wall_s"] + reference["report_wall_s"],
    )
    return {name: (value, 1, layer_unit(name)) for name, value in values.items()}


# --------------------------------------------------------------------------- command line
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Sweep benchmark: end-to-end and per-layer cost of the repro simulator."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all, in catalogue order)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed (default 1906)")
    parser.add_argument("--repeats", type=int, default=3, help="rounds per workload (default 3)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="start rounds until this many seconds have passed (replaces --repeats)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or bare --trace): run the traced pass and print per-layer metrics",
    )
    parser.add_argument("--out", help="also write every metric and round record as JSON here")
    parser.add_argument(
        "--pin",
        action="store_true",
        help="write this run's digests to expected/ instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv: Optional[Sequence[str]] = None, launch: Launch = launch_child) -> int:
    args = parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rounds = measure(workloads, args.seed, args.repeats, args.seconds, bool(args.trace), launch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    problems: List[str] = []
    report: Dict[str, Dict[str, Metric]] = {}
    for workload in workloads:
        records = rounds[workload]
        if args.pin:
            print(f"pinned {pin(workload, args.seed, records[0])}", file=sys.stderr)
        workload_failed, workload_problems = check(records, args.seed, load_expected(workload))
        problems.extend(f"{workload}: {problem}" for problem in workload_problems)
        attempted += sum(record["cells"] for record in records)
        failed += workload_failed
        if args.trace:
            metrics = trace_metrics(records[0], records[1])
            if metrics["trace.unattributed_events"][0] != 0:
                problems.append(f"{workload}: fired events outside any span")
        else:
            metrics = e2e_metrics(records, workload_failed)
        report[workload] = metrics
        for name, (value, samples, unit) in metrics.items():
            print(f"{workload} {name} {value:.6g} {unit} n={samples}")

    gated = None if args.trace else set(E2E_UNITS)
    result_metrics: Dict[str, Dict[str, Any]] = {}
    for workload, metrics in report.items():
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, (value, _samples, unit) in metrics.items():
            if gated is None or name in gated:
                result_metrics[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.out:
        data = {
            "seed": args.seed,
            "trace": bool(args.trace),
            "correct": correct,
            "problems": problems,
            "workloads": {
                workload: {
                    "metrics": {
                        name: {"value": value, "samples": samples, "unit": unit}
                        for name, (value, samples, unit) in report[workload].items()
                    },
                    "rounds": [
                        {k: v for k, v in record.items() if not k.endswith("digests")}
                        for record in rounds[workload]
                    ],
                }
                for workload in workloads
            },
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _terminate(signum: int, _frame: Any) -> None:
    # Raising here lets subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
