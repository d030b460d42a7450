"""Sweep execution: serial and process-parallel cell running.

The sweep driver (:mod:`repro.experiments.sweep`) expands its grid into pure
per-cell tasks — each a :class:`~repro.experiments.scenario.ScenarioSpec`
carrying its own derived seed — and hands them to an executor together with
their cell keys, the runner, the resilience policy and two callbacks.
Executors only decide *where* cells run; aggregation order is fixed by the
caller, so parallel sweeps produce byte-identical output to serial ones:

* :class:`SerialExecutor` runs every cell in submission order in the calling
  process, on the caller's runner,
* :class:`ParallelExecutor` fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor` of warm worker processes:
  cells are submitted in chunks to amortise task-dispatch overhead, each
  worker runs its chunks on a plain
  :class:`~repro.experiments.runner.ExperimentRunner`, and workers stream
  back compact ``RunResult.to_dict()`` payloads instead of pickled objects.
  Every random stream derives from the cell's own seed, so results do not
  depend on which worker ran a cell, how cells were chunked, or in which
  order chunks finished.  A runner subclass cannot reach the workers, so the
  parallel executor rejects one before any cell runs.

Both executors run cells through the resilience layer
(:mod:`repro.experiments.resilience`): a
:class:`~repro.experiments.resilience.ResiliencePolicy` adds per-cell
timeouts, the ``on_error`` callback receives each failed cell as a typed
:class:`~repro.experiments.resilience.CellFailure` record (the sweep decides
whether it fits the failure budget), and the parallel executor survives
worker death: a ``BrokenProcessPool`` rebuilds the pool and resubmits only
the chunks that never finished.  A ``KeyboardInterrupt`` drains
already-finished chunks through ``on_result`` before re-raising, so an
interrupted checkpointed sweep keeps every completed cell.

``make_executor(jobs)`` is the CLI-facing factory: ``--jobs 1`` selects the
serial path, ``--jobs N`` (N > 1) the process pool.
"""

from __future__ import annotations

import concurrent.futures
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Sequence, Union

from repro.core.metrics import RunResult
from repro.experiments.resilience import (
    CellExecutionError,
    CellFailure,
    PoolRecoveryError,
    ResiliencePolicy,
    run_cell_guarded,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec

#: Completion callback: ``(index_into_submitted_scenarios, result,
#: wall_seconds)``.  Serial execution invokes it in submission order;
#: parallel execution in completion order, so ordered aggregation must
#: happen on the index, never on callback order.  Wall time is for
#: progress/telemetry reporting only — it never enters the RunResult, so
#: results (and byte-identity gates) stay independent of host speed.  With
#: a parallel executor the wall time is measured inside the worker process.
CellCallback = Callable[[int, RunResult, float], None]

#: Failure callback: ``(index_into_submitted_scenarios, CellFailure)`` for a
#: cell that failed.  It may raise to abort the sweep.
CellErrorCallback = Callable[[int, CellFailure], None]

#: Chunks submitted per worker: enough that a slow chunk cannot leave workers
#: idle for long, few enough that dispatch overhead stays amortised.
_CHUNKS_PER_WORKER = 4

#: How often one ``run_scenarios`` call rebuilds a broken process pool
#: (resubmitting the unfinished chunks) before it raises
#: :class:`~repro.experiments.resilience.PoolRecoveryError`.
MAX_POOL_REBUILDS = 2


class SerialExecutor:
    """Runs cells one after another in the calling process."""

    jobs = 1
    #: A serial sweep has no pool to rebuild.
    pool_rebuilds = 0

    def run_scenarios(
        self,
        scenarios: Sequence[ScenarioSpec],
        keys: Sequence[str],
        runner: ExperimentRunner,
        policy: ResiliencePolicy,
        on_result: CellCallback,
        on_error: CellErrorCallback,
    ) -> None:
        """Execute ``scenarios`` in order on ``runner``.

        Each finished cell goes to ``on_result``, each failed one to
        ``on_error``.
        """
        for index, scenario in enumerate(scenarios):
            started = time.perf_counter()
            try:
                result = run_cell_guarded(runner, scenario, keys[index], policy)
            except CellExecutionError as exc:
                on_error(index, exc.failure())
                continue
            on_result(index, result, time.perf_counter() - started)


# ----------------------------------------------------------------- worker side
def _run_chunk(
    scenarios: Sequence[ScenarioSpec],
    keys: Sequence[str],
    policy: ResiliencePolicy,
) -> List[Dict[str, Any]]:
    """Task body: run a chunk of cells in a worker, stream plain dicts.

    A successful cell yields ``{"run": RunResult.to_dict(), "wall_seconds":
    float}``: the ``to_dict`` form keeps the result pickle small and
    JSON-shaped (the same representation the sweep checkpoint uses) and the
    parent rebuilds full :class:`RunResult` objects via ``from_dict`` — a
    lossless round trip by contract.  A failed cell yields ``{"error":
    CellFailure.to_dict(), "wall_seconds": float}``
    instead — the worker never dies on a poisoned cell, only on being killed.
    ``wall_seconds`` is measured here, in the worker, so per-cell timing
    survives chunked submission.
    """
    runner = ExperimentRunner()
    payloads: List[Dict[str, Any]] = []
    for scenario, key in zip(scenarios, keys):
        started = time.perf_counter()
        try:
            result = run_cell_guarded(runner, scenario, key, policy)
        except CellExecutionError as exc:
            payloads.append(
                {
                    "error": exc.failure().to_dict(),
                    "wall_seconds": time.perf_counter() - started,
                }
            )
            continue
        payloads.append({"run": result.to_dict(), "wall_seconds": time.perf_counter() - started})
    return payloads


class ParallelExecutor:
    """Fans cells out over a process pool of warm workers (``--jobs N``, N > 1)."""

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"ParallelExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        #: Pools the most recent :meth:`run_scenarios` call had to rebuild.
        self.pool_rebuilds = 0

    def run_scenarios(
        self,
        scenarios: Sequence[ScenarioSpec],
        keys: Sequence[str],
        runner: ExperimentRunner,
        policy: ResiliencePolicy,
        on_result: CellCallback,
        on_error: CellErrorCallback,
    ) -> None:
        """Execute ``scenarios`` concurrently; callbacks fire in completion order.

        ``runner`` must be a plain :class:`ExperimentRunner`: workers build
        their own, so a subclass would be silently replaced.  Survives worker
        death: when the pool breaks (a worker was killed), it is rebuilt and
        only the chunks that never finished are resubmitted, up to
        :data:`MAX_POOL_REBUILDS` times.  Because every cell derives its
        randomness from its own seed, a resubmitted chunk reproduces exactly
        what the dead worker would have produced.
        """
        if type(runner) is not ExperimentRunner:
            raise ValueError(
                f"parallel workers run cells on a plain ExperimentRunner and cannot "
                f"use {type(runner).__name__}; run it with jobs=1"
            )
        self.pool_rebuilds = 0
        # Chunked submission: one future per chunk (not per cell) amortises
        # pool dispatch and result-pickling overhead over many cells.
        chunk_size = max(1, -(-len(scenarios) // (self.jobs * _CHUNKS_PER_WORKER)))
        pending: Dict[int, List[ScenarioSpec]] = {
            start: list(scenarios[start : start + chunk_size])
            for start in range(0, len(scenarios), chunk_size)
        }

        def consume(start: int, payloads: List[Dict[str, Any]]) -> None:
            for offset, payload in enumerate(payloads):
                index = start + offset
                error = payload.get("error")
                if error is not None:
                    on_error(index, CellFailure.from_dict(error))
                    continue
                on_result(index, RunResult.from_dict(payload["run"]), payload["wall_seconds"])

        while pending:
            broken = False
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending))
            ) as pool:
                futures = {
                    pool.submit(_run_chunk, chunk, keys[start : start + len(chunk)], policy): start
                    for start, chunk in sorted(pending.items())
                }
                try:
                    for future in concurrent.futures.as_completed(futures):
                        start = futures[future]
                        try:
                            payloads = future.result()
                        except BrokenProcessPool:
                            # A worker died; its chunk stays pending.  Keep
                            # draining — chunks that finished before the
                            # break still hold results.
                            broken = True
                            continue
                        del pending[start]
                        consume(start, payloads)
                except KeyboardInterrupt:
                    # Flush chunks that DID complete before the interrupt so
                    # their cells reach on_result (and the checkpoint
                    # journal) before the interrupt propagates.
                    for future, start in futures.items():
                        if start in pending and future.done() and not future.cancelled():
                            try:
                                payloads = future.result()
                            except Exception:
                                continue
                            del pending[start]
                            consume(start, payloads)
                    raise
            if broken:
                self.pool_rebuilds += 1
                if self.pool_rebuilds > MAX_POOL_REBUILDS:
                    raise PoolRecoveryError(
                        f"worker pool broke {self.pool_rebuilds} time(s), exceeding the "
                        f"rebuild cap of {MAX_POOL_REBUILDS}; "
                        f"{len(pending)} chunk(s) never finished — a worker "
                        f"is dying repeatedly (OOM kill? native crash?)"
                    )


#: Either executor satisfies the same structural interface.
SweepExecutor = Union[SerialExecutor, ParallelExecutor]


def make_executor(jobs: int) -> SweepExecutor:
    """Executor for ``--jobs``: 1 selects the serial in-process path."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)
