"""Scenario specification (Section 5 of the paper).

A :class:`ScenarioSpec` fully determines one simulation run: which system to
deploy (a :mod:`repro.protocols.registry` name), how many Users, the
interface-failure rate lambda, the master seed all random streams derive
from, the time of the service change and the measurement deadline.  Two runs
with equal specs produce identical results, event for event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.sim.rng import derive_seed

#: Run length used throughout Section 5 of the paper, in seconds.
DEFAULT_SIM_DURATION = 5400.0
#: Default time of the service change: late enough that discovery and
#: subscription are settled, early enough to leave a failure-exposed
#: propagation window before the deadline.  Deliberately off the periodic
#: timer grids (renewals every 900 s, Registry announcements every 1200 s):
#: a change coinciding with a renewal tick races SRC2 into sending redundant
#: update requests, inflating the zero-failure baseline above m'.
DEFAULT_CHANGE_TIME = 2000.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that defines one experiment run."""

    #: Registry name of the deployed system ("frodo3", "frodo2", ...).
    system: str
    #: The paper's lambda: fraction of the run each node's interface is down.
    failure_rate: float = 0.0
    #: Master seed; every random stream of the run derives from it.
    seed: int = 0
    #: Number of measured Users (topology size, Table 4 uses 5).
    n_users: int = 5
    #: Simulation time of the service change (C in the metrics).
    change_time: float = DEFAULT_CHANGE_TIME
    #: Measurement deadline / end of the run (D in the metrics).
    deadline: float = DEFAULT_SIM_DURATION
    #: Keep the structured trace in memory (debugging only; sweeps disable it).
    trace: bool = False
    #: Stream the trace to this NDJSON file instead of accumulating it in
    #: memory (implies tracing on).  Purely observational: the path never
    #: feeds the seed derivation, so traced and untraced runs are identical.
    trace_path: Optional[str] = None
    #: Scenario-family name from :data:`repro.experiments.scenarios.SCENARIOS`.
    #: The default, ``"table4"``, is the paper's model: one outage per node,
    #: one service change.
    scenario: str = "table4"
    #: Options of the scenario family (e.g. ``{"rate": 0.1}`` for ``churn``).
    scenario_options: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ValueError` on inconsistent parameters."""
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {self.failure_rate!r}")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.change_time <= 0:
            raise ValueError("change_time must be positive")
        if self.deadline <= self.change_time:
            raise ValueError("deadline must be after the change time")
        # Imported lazily: the scenario registry builds on this module.
        from repro.experiments.scenarios import SCENARIOS

        SCENARIOS.get(self.scenario).validate_options(self.scenario_options)
        return self

    @property
    def scenario_token(self) -> str:
        """Canonical ``name@k=v,...`` form of the scenario selection."""
        from repro.experiments.scenarios import scenario_token

        return scenario_token(self.scenario, self.scenario_options)

    def describe(self) -> str:
        """Short human-readable summary used in logs."""
        return (
            f"{self.system} lambda={self.failure_rate:.0%} seed={self.seed} "
            f"users={self.n_users} change@{self.change_time:g}s deadline={self.deadline:g}s"
        )


def run_seed(base_seed: int, system: str, failure_rate: float, run_index: int) -> int:
    """Derive the master seed of one replication in a sweep.

    The derivation hashes the full cell coordinates, so adding systems, rates
    or replications to a sweep never perturbs the seeds of existing runs.
    """
    return derive_seed(base_seed, "run", system, repr(float(failure_rate)), int(run_index))


def cell_key(
    system: str,
    failure_rate: float,
    run_index: int,
    n_users: int = 5,
    scenario: str = "table4",
) -> str:
    """Stable string identity of one sweep cell (v4: system x users x rate x replication x scenario).

    Like :func:`run_seed` the key depends only on the cell coordinates, never
    on grid position.  (Checkpoint journals additionally pin the full grid:
    resume requires the identical sweep spec, not merely matching keys.)
    The rate uses ``repr`` (not a formatted percentage) so distinct floats can
    never collide.

    ``system`` is the canonical *system token* (v4): a parameterised
    selection like ``jini@k=8,mode=gossip`` carries its token verbatim, a
    legacy bare name ("jini2") stays bare — so every pre-v4 key, seed and
    trace file name is unchanged.  The CLI canonicalises tokens before they
    reach the spec, so equal selections always produce equal keys.

    ``scenario`` is the canonical scenario token
    (:func:`~repro.experiments.scenarios.scenario_token`).  The default
    ``table4`` scenario keeps the bare v2 shape — existing trace file names
    and journal keys for the paper's model are unchanged — while every other
    scenario appends ``!<token>``, so a churn journal can never silently
    collide with a table4 journal.
    """
    key = f"{system}~{int(n_users)}u@{float(failure_rate)!r}#{int(run_index)}"
    if scenario != "table4":
        key += f"!{scenario}"
    return key
