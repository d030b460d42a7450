"""One benchmark round in a fresh process.

``run.py`` starts this script once per round, one at a time::

    python benchmark/child.py --workload NAME --seed N [--trace]

with ``src`` on ``PYTHONPATH``.  It imports ``repro``, builds, validates and
expands the workload's sweep specs, and only then starts the clocks.  Each
spec runs through the public :func:`repro.experiments.sweep.sweep` with the
serial executor, a runner subclass that times ``ExperimentRunner.setup``,
a duck-typed progress object that collects the executor's per-cell wall
times, and a failure budget as large as the grid so failing cells are
counted instead of aborting the sweep.  The round prints one JSON object on
stdout: timings, the host slowdown, the process's peak RSS, exact telemetry
counts, per-cell digests and closed-form violations, and (with ``--trace``)
span aggregates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import COUNTS, SpanRecorder, install
from workloads import WORKLOADS

#: Set-up starts here: ``repro`` is imported inside :func:`run_round`.
_STARTED = time.perf_counter()

#: One calibration slice: fixed heap and dict work in pure Python, the kind
#: of work the simulator's event loop does.
CALIBRATION_ITERATIONS = 4000
#: Duration of one slice on the reference host (Intel Xeon, 2 shared vCPUs,
#: Python 3.11.7) at its typical speed; defines the reference second.
REFERENCE_SLICE_S = 0.0027
#: Wall seconds between calibration points while a sweep runs.
CALIBRATION_INTERVAL_S = 0.5


def calibration_point() -> float:
    """The median duration of three calibration slices, in seconds."""
    durations = []
    for _ in range(3):
        begin = time.perf_counter()
        heap: List[Any] = []
        table: Dict[int, Any] = {}
        for i in range(CALIBRATION_ITERATIONS):
            heappush(heap, (i * 7919 % 1009, i))
            table[i & 255] = heap[0]
            if len(heap) > 64:
                heappop(heap)
        durations.append(time.perf_counter() - begin)
    return statistics.median(durations)


class Calibrator:
    """Samples the host's speed while active (a context manager).

    A wall-clock interval timer takes a calibration point every
    :data:`CALIBRATION_INTERVAL_S` seconds wherever the main thread is, so
    the points spread evenly over the measured time, inside long cells too.
    :meth:`overlap` gives the calibration time inside an interval so that
    callers can subtract it.  An inactive calibrator takes no points.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        #: (start, wall seconds, median slice seconds) per point.
        self.points: List[Tuple[float, float, float]] = []
        self._previous: Any = None

    def _take_point(self, *_signal: Any) -> None:
        begin = time.perf_counter()
        slice_s = calibration_point()
        self.points.append((begin, time.perf_counter() - begin, slice_s))

    def __enter__(self) -> "Calibrator":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._take_point)
            self._take_point()
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def overlap(self, begin: float, end: float) -> float:
        """Wall seconds of the points that started between ``begin`` and ``end``."""
        return sum(wall for start, wall, _slice in self.points if begin <= start <= end)

    @property
    def slowdown(self) -> Optional[float]:
        """Mean point duration relative to the reference host (``None`` without points)."""
        if not self.points:
            return None
        return statistics.fmean(slice_s for _s, _w, slice_s in self.points) / REFERENCE_SLICE_S


def _sha256(data: Any) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def result_digest(run: Any) -> str:
    """SHA-256 of a RunResult without its telemetry and executed-event count.

    Those two details count simulated work, so a change that removes work
    but keeps the paper's results keeps the digest.
    """
    data = run.to_dict()
    details = dict(data["details"])
    details.pop("telemetry", None)
    details.pop("executed_events", None)
    data["details"] = details
    return _sha256(data)


def telemetry_counts(runs: Sequence[Any]) -> Dict[str, int]:
    """The exact per-layer counts of a set of runs, from their telemetry."""
    counts = dict.fromkeys(COUNTS, 0)
    for run in runs:
        telemetry = run.details["telemetry"]
        engine, timers, net = telemetry["engine"], telemetry["timers"], telemetry["net"]
        counts["sim.events_fired"] += engine["events_fired"]
        counts["sim.events_scheduled"] += engine["events_scheduled"]
        counts["sim.timers_scheduled"] += timers["scheduled"]
        counts["sim.timers_cancelled"] += timers["cancelled"]
        counts["sim.heap_hwm"] = max(counts["sim.heap_hwm"], engine["heap_hwm"])
        counts["net.sends"] += net["sends"]
        counts["net.send_copies"] += net["send_copies"]
        counts["net.multicast_sends"] += net["multicast_sends"]
        counts["net.deliveries"] += net["delivered"] + net["dropped_rx"]
        counts["net.delivered"] += net["delivered"]
        counts["net.dropped_rx"] += net["dropped_rx"]
        counts["net.link_losses"] += net["link_losses"]
        counts["net.link_cut_drops"] += telemetry.get("failures", {}).get("link_cut_drops", 0)
    return counts


class _Progress:
    """Duck-typed sweep progress reporter that keeps the per-cell wall times.

    A cell's wall time is the executor's figure minus the calibration time
    that fell inside the cell.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.walls: List[float] = []
        self._calibrator = calibrator

    def start(self, total: int, resumed: int = 0) -> None:
        pass

    def cell_done(self, key: str, wall_seconds: Optional[float] = None) -> None:
        if wall_seconds is not None:
            now = time.perf_counter()
            self.walls.append(wall_seconds - self._calibrator.overlap(now - wall_seconds, now))

    def cell_failed(self, key: str, error: str = "") -> None:
        pass

    def finish(self) -> None:
        pass


def run_round(
    spec_kwargs: Sequence[Dict[str, Any]],
    seed: int,
    trace: bool = False,
    started: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one round of a workload in this process and return its record.

    ``started`` is when the round's set-up began (default: now); the record's
    ``startup_s`` runs from there to the moment the first clock starts.
    Untraced rounds calibrate the host speed; traced rounds do not, so that
    every traced second lies inside or between spans.
    """
    if started is None:
        started = time.perf_counter()
    from repro.experiments import report
    from repro.experiments.resilience import ResiliencePolicy
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.sweep import SweepSpec, sweep

    calibrator = Calibrator(active=not trace)

    class TimedRunner(ExperimentRunner):
        """Sums the wall time of ``ExperimentRunner.setup`` over all cells."""

        setup_seconds = 0.0

        def setup(self, spec: Any) -> Any:
            begin = time.perf_counter()
            try:
                return super().setup(spec)
            finally:
                end = time.perf_counter()
                self.setup_seconds += end - begin - calibrator.overlap(begin, end)

    specs = [SweepSpec(base_seed=seed, **kwargs).validate() for kwargs in spec_kwargs]
    grids = [spec.expand() for spec in specs]
    runner = TimedRunner()
    startup_s = time.perf_counter() - started

    recorder = SpanRecorder() if trace else None
    patches = install(recorder) if recorder is not None else None
    digests: Dict[str, str] = {}
    telemetry_digests: Dict[str, str] = {}
    summary_digests: List[str] = []
    errors: List[str] = []
    closed_form_failures: List[str] = []
    all_runs: List[Any] = []
    progress = _Progress(calibrator)
    sweep_wall_s = report_wall_s = 0.0
    try:
        with calibrator:
            for spec, cells in zip(specs, grids):
                begin = time.perf_counter()
                result = sweep(
                    spec,
                    runner=runner,
                    progress=progress,
                    policy=ResiliencePolicy(max_cell_failures=len(cells)),
                )
                end = time.perf_counter()
                sweep_wall_s += end - begin - calibrator.overlap(begin, end)
                summary_json = report.to_json(report.sweep_to_dict(result))
                begin = time.perf_counter()
                report_wall_s += begin - end - calibrator.overlap(end, begin)

                summary_digests.append(hashlib.sha256(summary_json.encode("utf-8")).hexdigest())
                failed = {failure.key for failure in result.failures}
                errors.extend(sorted(failed))
                done = [cell for cell in cells if cell.key not in failed]
                if len(done) != len(result.runs):
                    raise ValueError(f"{len(result.runs)} results for {len(done)} finished cells")
                for cell, run in zip(done, result.runs):
                    if cell.key in digests:
                        raise ValueError(f"cell key {cell.key!r} repeats within the workload")
                    digests[cell.key] = result_digest(run)
                    telemetry_digests[cell.key] = _sha256(
                        [run.details["telemetry"], run.details["executed_events"]]
                    )
                    # Closed forms (every seed): with no failures the system
                    # sends exactly its m' update messages and every User is
                    # updated.
                    if spec.scenario_name == "table4" and cell.failure_rate == 0.0 and (
                        run.update_message_count != run.details["m_prime"]
                        or run.users_updated() != run.n_users
                    ):
                        closed_form_failures.append(cell.key)
                all_runs.extend(result.runs)
    finally:
        if patches is not None:
            patches.restore()

    record: Dict[str, Any] = {
        "cells": sum(len(cells) for cells in grids),
        "errors": errors,
        "closed_form_failures": closed_form_failures,
        "startup_s": startup_s,
        "cell_setup_s": runner.setup_seconds,
        "sweep_wall_s": sweep_wall_s,
        "report_wall_s": report_wall_s,
        "cell_walls": progress.walls,
        "host_slowdown": calibrator.slowdown,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": digests,
        "telemetry_digests": telemetry_digests,
        "summary_digests": summary_digests,
        "counts": telemetry_counts(all_runs),
    }
    if recorder is not None:
        record["spans"] = [
            [parent, name, count, total, self_s]
            for (parent, name), (count, total, self_s) in sorted(recorder.edges.items())
        ]
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_round(WORKLOADS[args.workload]["specs"], args.seed, args.trace, started=_STARTED)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
