"""Failure-rate sweeps (the paper's experiment proper).

A sweep is the cross product *systems x topology sizes x failure rates x
replications*.  Every run's master seed is derived deterministically from the
sweep's base seed and the run's cell coordinates
(:func:`~repro.experiments.scenario.run_seed`), so

* the same sweep specification always produces byte-identical results, and
* extending a sweep (more systems, rates or replications) never changes the
  results of the runs it already contained.

Execution is cell-based: :meth:`SweepSpec.expand` turns the grid into
:class:`SweepCell` tasks (one per replication, each a pure function of the
spec), an executor from :mod:`repro.experiments.executors` runs them — in
process or across a worker pool — and :func:`sweep` re-assembles the results
in grid order, so parallel output is byte-identical to serial output.

Sweeps can be checkpointed: pass ``checkpoint="path.jsonl"`` and every
finished cell is appended to the journal immediately (O(1) per cell);
re-running the same sweep with the same checkpoint path skips the cells the
journal already contains and produces exactly the output an uninterrupted
sweep would have produced.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.metrics import MetricSummary, RunResult
from repro.experiments.executors import SerialExecutor, SweepExecutor
from repro.experiments.resilience import (
    DEFAULT_POLICY,
    CellFailure,
    FailureBudgetExceededError,
    ResiliencePolicy,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import (
    DEFAULT_CHANGE_TIME,
    DEFAULT_SIM_DURATION,
    ScenarioSpec,
    cell_key,
    run_seed,
)
from repro.obs import journal
from repro.obs.analyze import TELEMETRY_JOURNAL
from repro.obs.progress import SweepProgress
from repro.obs.sinks import trace_filename
from repro.protocols.registry import SYSTEMS
from repro.tokens import canonical_token

#: Format version of the checkpoint file (bumped on incompatible changes).
#: Version 2: cell keys carry the topology size (the ``users`` axis) and the
#: grid header records the full users grid.
#: Version 3: sweeps carry a scenario selection; non-default scenarios
#: append their canonical token to the cell key and the grid header, so a
#: journal written by one scenario can never be resumed by another — and
#: journals from the pre-scenario format fail loudly on this version check
#: instead of silently colliding.
#: Version 4: the system axis accepts parameterised ``name@k=v,...`` tokens
#: (``jini@k=8,mode=gossip``); the canonical token is the cell key's system
#: field, bare names stay bare (legacy keys are unchanged), and the registry
#: fingerprint evaluates the closed-form m' at the reference N instead of
#: recording an N=5 constant.
#: Version 5: journals carry typed ``cell_error`` quarantine records
#: ({"key": ..., "cell_error": CellFailure.to_dict()}) alongside finished
#: cells; loaders that only know ``run`` records would silently drop them,
#: so the version gates them out.  Errored cells stay *pending* on resume —
#: they run again, which is what lets an interrupted chaotic sweep converge
#: to the undisturbed output.  Records written while the harness still
#: retried cells in process carry a retry count, which the reader ignores.
CHECKPOINT_VERSION = 5


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a single replication of one grid cell.

    A cell is pure: its scenario (including the derived master seed) depends
    only on the sweep spec and the cell coordinates, never on execution
    order, which is what makes cells safe to run in parallel or to skip on
    resume.
    """

    system: str
    failure_rate: float
    run_index: int
    scenario: ScenarioSpec
    n_users: int = 5

    @property
    def key(self) -> str:
        """Stable checkpoint identity (see :func:`~repro.experiments.scenario.cell_key`)."""
        return cell_key(
            self.system,
            self.failure_rate,
            self.run_index,
            self.n_users,
            scenario=self.scenario.scenario_token,
        )


@dataclass(frozen=True)
class SweepSpec:
    """The full experiment grid."""

    systems: Sequence[str] = ("frodo3",)
    #: Failure rates as fractions in [0, 1] (the paper sweeps 0 % .. 80 %).
    failure_rates: Sequence[float] = (0.0,)
    #: Replications per (system, users, rate) cell.
    runs_per_cell: int = 20
    #: Base seed every per-run seed is derived from.
    base_seed: int = 0
    #: Topology size when ``users`` is not given (Table 4 uses 5).
    n_users: int = 5
    #: Optional topology-size grid (the ``--users`` axis).  ``None`` means a
    #: single size, :attr:`n_users`.  Seeds are shared across sizes of the
    #: same (system, rate, replication) — :func:`run_seed` deliberately does
    #: not hash the size, so adding sizes to a sweep never perturbs the seeds
    #: (and therefore results) of the sizes it already contained.
    users: Optional[Sequence[int]] = None
    change_time: float = DEFAULT_CHANGE_TIME
    deadline: float = DEFAULT_SIM_DURATION
    #: Scenario family applied to every cell (``scenario`` is taken by the
    #: per-cell spec factory method below).  The default, ``table4``, is the
    #: paper's model and keeps sweep output byte-identical to the
    #: pre-scenario harness.
    scenario_name: str = "table4"
    #: Options of the scenario family (e.g. ``{"rate": 0.1}`` for ``churn``).
    scenario_options: Dict[str, Any] = field(default_factory=dict)

    @property
    def scenario_token(self) -> str:
        """Canonical ``name@k=v,...`` token of the sweep's scenario selection."""
        return canonical_token(self.scenario_name, self.scenario_options)

    @property
    def users_grid(self) -> Tuple[int, ...]:
        """The topology sizes the sweep covers, in execution order."""
        if self.users:
            return tuple(int(n) for n in self.users)
        return (self.n_users,)

    def validate(self) -> "SweepSpec":
        """Check the whole grid against the registry before spending any cycles.

        Every axis is checked in full: each failure rate must lie in [0, 1],
        and no rate, topology size or system may appear twice (systems
        compare by canonical token), because a repeated coordinate would
        run one cell key twice.  Each system's first cell spec is validated,
        which runs the system's and the scenario's range checks.
        """
        if not self.systems:
            raise ValueError("sweep needs at least one system")
        if not self.failure_rates:
            raise ValueError("sweep needs at least one failure rate")
        if self.runs_per_cell < 1:
            raise ValueError("runs_per_cell must be >= 1")
        for rate in self.failure_rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"failure rates must be in [0, 1], got {rate!r}")
        if len(set(self.failure_rates)) != len(self.failure_rates):
            raise ValueError(f"duplicate failure rates {tuple(self.failure_rates)!r}")
        if len(set(self.users_grid)) != len(self.users_grid):
            raise ValueError(f"duplicate sizes in users grid {self.users_grid!r}")
        for n in self.users_grid:
            if n < 1:
                raise ValueError(f"users grid sizes must be >= 1, got {n!r}")
        # Raises UnknownNameError / ValueError with the known names;
        # accepts bare names and parameterised tokens alike.
        tokens = [SYSTEMS.resolve(system).token for system in self.systems]
        if len(set(tokens)) != len(tokens):
            raise ValueError(f"duplicate systems {tuple(tokens)!r}")
        for system in self.systems:
            self.scenario(system, self.failure_rates[0], 0).validate()
        return self

    def scenario(
        self,
        system: str,
        failure_rate: float,
        run_index: int,
        n_users: Optional[int] = None,
    ) -> ScenarioSpec:
        """The :class:`ScenarioSpec` of one cell replication."""
        return ScenarioSpec(
            system=system,
            failure_rate=failure_rate,
            seed=run_seed(self.base_seed, system, failure_rate, run_index),
            n_users=self.n_users if n_users is None else n_users,
            change_time=self.change_time,
            deadline=self.deadline,
            scenario=self.scenario_name,
            scenario_options=dict(self.scenario_options),
        )

    def cells(self) -> List[Tuple[str, int, float]]:
        """All (system, users, failure rate) cells in execution order."""
        return [
            (system, n, rate)
            for system in self.systems
            for n in self.users_grid
            for rate in self.failure_rates
        ]

    def expand(self) -> List[SweepCell]:
        """The grid as per-replication :class:`SweepCell` tasks, in grid order."""
        return [
            SweepCell(
                system=system,
                failure_rate=rate,
                run_index=run_index,
                scenario=self.scenario(system, rate, run_index, n),
                n_users=n,
            )
            for system, n, rate in self.cells()
            for run_index in range(self.runs_per_cell)
        ]

    def grid_dict(self) -> Dict[str, Any]:
        """The grid parameters as plain data (JSON output and checkpoint identity).

        The scenario token joins the dict only for non-default scenarios:
        the default ``table4`` sweep's JSON output must stay byte-identical
        to the pre-scenario harness (a pinned fixture enforces this).
        """
        grid = {
            "systems": list(self.systems),
            "failure_rates": [float(rate) for rate in self.failure_rates],
            "runs_per_cell": self.runs_per_cell,
            "base_seed": self.base_seed,
            "n_users": self.n_users,
            "users": list(self.users_grid),
            "change_time": self.change_time,
            "deadline": self.deadline,
        }
        token = self.scenario_token
        if token != "table4":
            grid["scenario"] = token
        return grid

    @property
    def total_runs(self) -> int:
        """Number of simulation runs the sweep will execute."""
        return (
            len(self.systems)
            * len(self.users_grid)
            * len(self.failure_rates)
            * self.runs_per_cell
        )


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep produced: per-run results plus per-cell summaries."""

    spec: SweepSpec
    runs: List[RunResult]
    summaries: List[MetricSummary]
    #: Cells quarantined under the failure budget (empty for a clean sweep).
    #: Their runs/summaries are *gaps*, never fabricated values; the report
    #: layer surfaces this list so partial output is explicit.
    failures: List[CellFailure] = field(default_factory=list)

    def cell_runs(
        self, system: str, failure_rate: float, n_users: Optional[int] = None
    ) -> List[RunResult]:
        """The replications of one cell (all sizes unless ``n_users`` is given)."""
        return [
            run
            for run in self.runs
            if run.system == system
            and run.failure_rate == failure_rate
            and (n_users is None or run.n_users == n_users)
        ]

    def summary_for(
        self, system: str, failure_rate: float, n_users: Optional[int] = None
    ) -> MetricSummary:
        """The metric summary of one cell (first matching size unless ``n_users`` is given)."""
        for summary in self.summaries:
            if (
                summary.system == system
                and summary.failure_rate == failure_rate
                and (n_users is None or summary.n_users == n_users)
            ):
                return summary
        raise KeyError(f"no summary for ({system!r}, {failure_rate!r}, users={n_users!r})")


# --------------------------------------------------------------------------- checkpoints
# The checkpoint is an append-only journal (:mod:`repro.obs.journal`): a
# header with the format version and the grid parameters, then one finished
# ({"key": ..., "run": ...}) or quarantined ({"key": ..., "cell_error": ...})
# cell per line.  Appending keeps per-cell persistence at O(1) (a full-file
# rewrite per cell would make checkpointing O(n^2) over a sweep and throttle
# the parallel coordinator); the journal drops a torn final append on load.
class CheckpointMismatchError(ValueError):
    """The checkpoint on disk was written by a different sweep specification."""


def _checkpoint_header(spec: SweepSpec) -> Dict[str, Any]:
    return {
        "version": CHECKPOINT_VERSION,
        "spec": spec.grid_dict(),
        # A constant: every v5 journal was written with this value, so those
        # journals resume, and one written with builder options (a
        # deployment this harness cannot build) is refused.
        "builder_options": "[]",
        # Each system's closed-form m' at the reference N (5): a journal
        # refuses resume once a system's closed form changed.
        "registry": [[entry.name, entry.m_prime_at(5)] for entry in SYSTEMS],
    }


def _decode_cell(record: Dict[str, Any]) -> Tuple[str, Any]:
    if "cell_error" in record:
        return record["key"], CellFailure.from_dict(record["cell_error"])
    return record["key"], RunResult.from_dict(record["run"])


def save_checkpoint(path: str, spec: SweepSpec, completed: Dict[str, RunResult]) -> None:
    """Atomically rewrite the whole journal (compaction; appends do the hot path).

    Only finished cells survive compaction: ``cell_error`` records are
    deliberately dropped, because the cells they describe are pending again
    and will either finish (a ``run`` record) or fail afresh (a new error
    record) in the resuming sweep.
    """
    lines = (
        journal.line({"key": key, "run": run.to_dict()}) for key, run in sorted(completed.items())
    )
    journal.write(path, _checkpoint_header(spec), lines)


def load_checkpoint(
    path: str,
    spec: SweepSpec,
    errors_out: Optional[List[CellFailure]] = None,
) -> Dict[str, RunResult]:
    """Load the finished cells of a previous partial sweep.

    Returns an empty mapping when ``path`` does not exist or is empty (a
    fresh sweep that will start checkpointing there).  A torn final line
    (interrupted append) is dropped.  ``cell_error`` quarantine records are
    collected into ``errors_out`` (when given) but never mark a cell
    completed — errored cells run again on resume.  Raises
    :class:`CheckpointMismatchError` when the journal belongs to a different
    grid and :class:`ValueError` when it is not a checkpoint journal at all.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return {}
    expected = _checkpoint_header(spec)
    hint = (
        f"; old journals cannot be resumed — re-run the sweep with a fresh --resume path "
        f"(or delete {path!r}) to regenerate it"
    )
    try:
        header = journal.read_header(
            path, "sweep checkpoint", CHECKPOINT_VERSION, lambda header: "spec" in header, hint
        )
    except ValueError:
        # A crash during the very first append tore the header itself.  Only
        # a prefix of this sweep's own header counts as a fresh journal:
        # resume compacts the file, so a foreign one must never be overwritten.
        own = journal.line(expected)
        with open(path, "r", encoding="utf-8") as handle:
            if own.startswith(handle.read(len(own))):
                return {}
        raise
    if any(header.get(field) != expected[field] for field in ("spec", "builder_options")):
        raise CheckpointMismatchError(
            f"checkpoint {path!r} was written by a different sweep spec "
            f"({header['spec']!r}); refusing to mix results"
        )
    if header.get("registry") != expected["registry"]:
        raise CheckpointMismatchError(
            f"checkpoint {path!r} was written against a different deployment "
            f"registry ({header.get('registry')!r}); refusing to mix results"
        )
    completed: Dict[str, RunResult] = {}
    for key, value in journal.records(path, _decode_cell):
        if isinstance(value, CellFailure):
            if errors_out is not None:
                errors_out.append(value)
        else:
            completed[key] = value
    return completed


# --------------------------------------------------------------------------- telemetry journal
#: Format tag of the sweep telemetry journal header line.
TELEMETRY_FORMAT = "repro-telemetry"

#: Version of the telemetry journal.  Version 2: cells are no longer retried
#: in process, so cell lines lost their retry count and the header's
#: ``resilience`` summary is ``{pool_rebuilds, quarantined}``.
TELEMETRY_JOURNAL_VERSION = 2


def _write_telemetry_journal(
    path: str,
    spec: SweepSpec,
    cells: Sequence[SweepCell],
    completed: Dict[str, RunResult],
    walls: Dict[str, float],
    errors: Dict[str, str],
    resilience: Optional[Dict[str, Any]],
) -> None:
    """Write the per-cell telemetry journal of a finished sweep.

    One NDJSON line per cell, in grid order: the cell coordinates, the wall
    time measured by the executor (``null`` for cells resumed from a
    checkpoint — they were not executed this time), the deterministic
    :mod:`~repro.obs.telemetry` counters carried in the run's details, and
    the error type of a quarantined cell (``null`` otherwise — quarantined
    cells keep their line so gaps are explicit, with ``telemetry: null``).
    A sweep that had to quarantine cells or rebuild pools additionally
    carries a ``resilience`` summary in the header.
    """
    header: Dict[str, Any] = {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_JOURNAL_VERSION,
        "grid": spec.grid_dict(),
    }
    if resilience is not None:
        header["resilience"] = resilience

    def lines() -> Iterator[str]:
        for cell in cells:
            run = completed.get(cell.key)
            record = {
                "key": cell.key,
                "system": cell.system,
                "users": cell.n_users,
                "failure_rate": cell.failure_rate,
                "run_index": cell.run_index,
                "wall_seconds": walls.get(cell.key),
                "telemetry": run.details.get("telemetry") if run is not None else None,
                "error": errors.get(cell.key),
            }
            yield journal.line(record)

    journal.write(path, header, lines())


# --------------------------------------------------------------------------- driver
def sweep(
    spec: SweepSpec,
    *,
    runner: Optional[ExperimentRunner] = None,
    executor: Optional[SweepExecutor] = None,
    checkpoint: Optional[str] = None,
    trace_dir: Optional[str] = None,
    progress: Optional[SweepProgress] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> SweepResult:
    """Execute the full grid and aggregate each cell into a :class:`MetricSummary`.

    Every cell runs the registered system of its token through
    ``runner`` (default: a plain :class:`ExperimentRunner`; a subclass, for
    example one that times :meth:`ExperimentRunner.setup`, runs serially
    only, and a parallel executor rejects it before any cell runs).
    ``executor`` selects where cells run (default: serial, in process);
    ``checkpoint`` enables resume — completed cells found in the file are
    skipped, new completions are persisted after every cell, and the
    aggregated result is byte-identical to an uninterrupted sweep.  Each
    summary's m' is the one its runs recorded (the registry's closed form at
    the cell's topology size).

    Observability (both purely additive — they never change the results):

    * ``trace_dir`` streams every executed cell's full event trace to
      ``trace_dir/<cell-key>.ndjson`` with bounded memory, and writes a
      ``telemetry.ndjson`` journal (per-cell counters + wall time, grid
      order) next to the traces when the sweep finishes.
    * ``progress`` receives live cell-completion updates (typically a
      :class:`~repro.obs.progress.SweepProgress` printing to stderr; any
      object with its ``start``/``cell_done``/``cell_failed``/``finish``
      methods will do).

    ``policy`` adds fault tolerance (:mod:`repro.experiments.resilience`):
    per-cell timeouts and a failure budget — up to ``policy.max_cell_failures``
    cells may fail, each quarantined as a typed ``cell_error`` journal record
    and reported in ``SweepResult.failures`` with its runs/summaries left as
    explicit gaps; one failure more raises
    :class:`~repro.experiments.resilience.FailureBudgetExceededError`.  With
    the default policy the first failing cell aborts the sweep (after
    writing its quarantine record when checkpointing).  A failed cell runs
    again only when the sweep is resumed from its checkpoint.
    """
    if runner is None:
        runner = ExperimentRunner()
    spec.validate()
    policy = (policy if policy is not None else DEFAULT_POLICY).validate()
    if executor is None:
        executor = SerialExecutor()

    cells = spec.expand()
    completed: Dict[str, RunResult] = {}
    header: Dict[str, Any] = {}
    if checkpoint is not None:
        header = _checkpoint_header(spec)
        completed = load_checkpoint(checkpoint, spec)
        if os.path.exists(checkpoint):
            # Compact the journal before appending: this truncates a torn
            # final line left by an interrupted append, so new records never
            # extend a partial line (which would merge into one corrupt record).
            save_checkpoint(checkpoint, spec, completed)
    pending = [cell for cell in cells if cell.key not in completed]

    if trace_dir is not None:
        try:
            os.makedirs(trace_dir, exist_ok=True)
        except OSError as exc:
            # Observability must never kill the run it observes: an
            # unwritable trace dir degrades to no tracing, loudly but once.
            print(
                f"warning: cannot create trace dir {trace_dir!r} ({exc}); "
                f"tracing disabled for this sweep",
                file=sys.stderr,
            )
            trace_dir = None
    if trace_dir is not None:
        scenarios = [
            replace(cell.scenario, trace_path=os.path.join(trace_dir, trace_filename(cell.key)))
            for cell in pending
        ]
    else:
        scenarios = [cell.scenario for cell in pending]

    def journal_cell(record: Dict[str, Any]) -> None:
        # A cell_error record never marks its cell completed: on resume the
        # cell is pending again and compaction drops the stale record.
        if checkpoint is not None:
            journal.append(checkpoint, header, journal.line(record))

    # Wall times are observational only: they flow to the progress reporter
    # and the telemetry journal, never into RunResults (which must stay
    # byte-identical across hosts, executors, and observability settings).
    walls: Dict[str, float] = {}

    def on_result(pending_index: int, result: RunResult, wall_seconds: float) -> None:
        key = pending[pending_index].key
        completed[key] = result
        if checkpoint is not None:  # to_dict() deep-copies: only a checkpoint reads it
            journal_cell({"key": key, "run": result.to_dict()})
        walls[key] = wall_seconds
        if progress is not None:
            progress.cell_done(key, wall_seconds)

    failures: List[CellFailure] = []

    def on_error(pending_index: int, failure: CellFailure) -> None:
        failures.append(failure)
        journal_cell({"key": failure.key, "cell_error": failure.to_dict()})
        if progress is not None:
            progress.cell_failed(failure.key, failure.error)
        if len(failures) > policy.max_cell_failures:
            resume_hint = (
                f"; completed cells are checkpointed — fix the cause and re-run "
                f"with --resume {checkpoint}"
                if checkpoint is not None
                else ""
            )
            raise FailureBudgetExceededError(
                f"{len(failures)} cell(s) failed, exceeding the failure budget of "
                f"{policy.max_cell_failures} (--max-cell-failures): "
                + "; ".join(f"{f.key} [{f.error}: {f.message}]" for f in failures)
                + resume_hint
            )

    if progress is not None:
        progress.start(len(cells), resumed=len(cells) - len(pending))
    executor.run_scenarios(
        scenarios, [cell.key for cell in pending], runner, policy, on_result, on_error
    )
    if progress is not None:
        progress.finish()
    if trace_dir is not None:
        # Host-dependent, like the walls: what went wrong on this execution.
        resilience = None
        if executor.pool_rebuilds or failures:
            resilience = {
                "pool_rebuilds": executor.pool_rebuilds,
                "quarantined": sorted(failure.key for failure in failures),
            }
        _write_telemetry_journal(
            os.path.join(trace_dir, TELEMETRY_JOURNAL),
            spec,
            cells,
            completed,
            walls,
            {failure.key: failure.error for failure in failures},
            resilience,
        )

    # Ordered aggregation: grid order, independent of execution/completion
    # order and of which cells were resumed from the checkpoint.  Quarantined
    # cells are *gaps*: their runs are absent and a cell whose every
    # replication failed gets no summary row at all, rather than a fabricated
    # value.
    run_rows = [completed.get(cell.key) for cell in cells]
    runs = [run for run in run_rows if run is not None]
    summaries: List[MetricSummary] = []
    for start in range(0, len(run_rows), spec.runs_per_cell):
        cell_runs = [run for run in run_rows[start : start + spec.runs_per_cell] if run is not None]
        if not cell_runs:
            continue
        summaries.append(
            MetricSummary.from_runs(cell_runs, m_prime=cell_runs[0].details["m_prime"])
        )
    return SweepResult(
        spec=spec,
        runs=runs,
        summaries=summaries,
        failures=sorted(failures, key=lambda failure: failure.key),
    )
