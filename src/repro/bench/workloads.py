"""The benchmark workload catalogue.

A workload is a named :class:`~repro.experiments.sweep.SweepSpec` that the
harness times end to end (grid expansion, cell execution, aggregation).  The
standard catalogue covers

* one ``system:<name>`` workload per registered system — a small per-system
  failure grid, so per-protocol cost regressions are attributable,
* ``grid:<N>-system`` (``grid:5-system`` for the standard registry) — the
  paper's full Table-4 comparison (all registered systems x failure-rate
  grid x replications), the hot path the parallel executor exists for,
* ``system:<name>@N`` — large-topology cells (N = 100 for every system,
  N = 1000 / 10000 for frodo3), which time the simulator core itself rather
  than executor overhead, and
* ``users-scaling`` — one sweep whose ``users`` axis spans topology sizes,
  timing the N-as-grid-dimension path end to end, and
* ``scenario:<name>`` — one small grid per non-default disruption-scenario
  family (churn, cascade, lossy, ...), so the cost of the scenario layer's
  extra events (leave/rejoin, loss windows, extra changes) is attributable
  per family, and
* ``federation:jini@k=<K>`` — the federated-registry topologies at
  K in {2, 4, 8} (push replication plus one gossip grid), timing the
  inter-registry layer (K lookup services, adjacency fan-out, anti-entropy
  rounds) rather than the single-registry protocols.

``quick=True`` shrinks replication counts, the rate grid and the largest
topology sizes for CI; the cell *shape* (which systems, which kind of grid)
is the same in both variants so quick numbers stay comparable run over run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.sweep import SweepSpec
from repro.protocols.registry import DeploymentRegistry, SYSTEMS

#: Failure-rate grids (fractions): CI-quick vs the paper-shaped full grid.
QUICK_RATES = (0.0, 0.2)
FULL_RATES = (0.0, 0.2, 0.4, 0.6, 0.8)

#: Replications per (system, rate) cell in each variant.
QUICK_RUNS = 2
FULL_RUNS = 5

#: Base seed shared by all bench workloads (results must be reproducible so
#: the serial-vs-parallel identity check is meaningful).
BENCH_BASE_SEED = 1906


@dataclass(frozen=True)
class BenchWorkload:
    """One named, timed sweep workload."""

    name: str
    spec: SweepSpec

    @property
    def cells(self) -> int:
        """Number of per-replication cells the workload executes."""
        return self.spec.total_runs

    @property
    def users(self) -> List[int]:
        """The topology sizes the workload covers (BENCH_sweep.json schema 2)."""
        return list(self.spec.users_grid)


def standard_workloads(
    quick: bool = False,
    registry: DeploymentRegistry = SYSTEMS,
) -> List[BenchWorkload]:
    """The standard catalogue: per-system grids plus the five-system grid."""
    rates: Sequence[float] = QUICK_RATES if quick else FULL_RATES
    runs = QUICK_RUNS if quick else FULL_RUNS
    names = registry.names()
    workloads = [
        BenchWorkload(
            name=f"system:{system}",
            spec=SweepSpec(
                systems=(system,),
                failure_rates=tuple(rates),
                runs_per_cell=runs,
                base_seed=BENCH_BASE_SEED,
            ),
        )
        for system in names
    ]
    workloads.append(
        BenchWorkload(
            name=f"grid:{len(names)}-system",
            spec=SweepSpec(
                systems=tuple(names),
                failure_rates=tuple(rates),
                runs_per_cell=runs,
                base_seed=BENCH_BASE_SEED,
            ),
        )
    )
    workloads.extend(_scale_workloads(quick, names))
    workloads.extend(_scenario_workloads(quick))
    workloads.extend(_federation_workloads(quick))
    return workloads


def _federation_workloads(quick: bool) -> List[BenchWorkload]:
    """Federated-registry workloads: ``federation:jini@k={2,4,8}``.

    Small grids over the canonical system tokens — the point is timing the
    inter-registry layer as K grows (push fan-out at every K, plus one
    partitioned-gossip grid at K=4), not re-timing single-registry Jini.
    Identical in quick and full variants; they are already CI-sized.
    """
    tokens = (
        "jini@k=2",
        "jini@k=4",
        "jini@k=8",
        "jini@assign=partition,k=4,mode=gossip,topology=ring",
    )
    return [
        BenchWorkload(
            name=f"federation:{token}",
            spec=SweepSpec(
                systems=(token,),
                failure_rates=(0.0, 0.2),
                runs_per_cell=QUICK_RUNS,
                base_seed=BENCH_BASE_SEED,
            ),
        )
        for token in tokens
    ]


def _scenario_workloads(quick: bool) -> List[BenchWorkload]:
    """One small frodo3 grid per non-default scenario family.

    Frodo3 keeps the cells cheap; the point is timing the scenario layer
    (plan building, churn restarts, loss-window draws, extra changes), not
    re-timing the protocols.  The grids are identical in quick and full
    variants — they are already CI-sized.
    """
    from repro.experiments.scenarios import SCENARIOS

    def _systems_for(name: str) -> tuple:
        # Partition cuts inter-registry links, which only federated systems
        # have: a frodo3 grid would time a no-op.  Pull mode exercises the
        # TTL stale-entry fallback, the family's most interesting path.
        if name == "partition":
            return ("jini@k=4,mode=pull",)
        return ("frodo3",)

    return [
        BenchWorkload(
            name=f"scenario:{name}",
            spec=SweepSpec(
                systems=_systems_for(name),
                failure_rates=(0.0, 0.2),
                runs_per_cell=QUICK_RUNS,
                base_seed=BENCH_BASE_SEED,
                scenario_name=name,
            ),
        )
        for name in SCENARIOS.names()
        if name != "table4"
    ]


def _scale_workloads(quick: bool, names: Sequence[str]) -> List[BenchWorkload]:
    """Large-topology workloads (the ``--users`` axis of the bench catalogue).

    These time the simulator core at scale: a handful of cells each, because
    one N=1000 cell already executes ~1M events.  ``system:frodo3@10000`` is
    excluded from ``quick`` runs (about 30 s per cell); everything else is sized
    to stay CI-friendly.
    """
    # Identical spec in both variants (the rate-0 cell is the cheap one):
    # CI's quick numbers are then directly comparable to the committed full
    # baseline for every ``@N`` workload.
    workloads = [
        BenchWorkload(
            name=f"system:{system}@100",
            spec=SweepSpec(
                systems=(system,),
                failure_rates=(0.0, 0.2),
                runs_per_cell=1,
                base_seed=BENCH_BASE_SEED,
                n_users=100,
            ),
        )
        for system in names
    ]
    workloads.append(
        BenchWorkload(
            name="system:frodo3@1000",
            spec=SweepSpec(
                systems=("frodo3",),
                failure_rates=(0.2,),
                runs_per_cell=1,
                base_seed=BENCH_BASE_SEED,
                n_users=1000,
            ),
        )
    )
    if not quick:
        workloads.append(
            BenchWorkload(
                name="system:frodo3@10000",
                spec=SweepSpec(
                    systems=("frodo3",),
                    failure_rates=(0.2,),
                    runs_per_cell=1,
                    base_seed=BENCH_BASE_SEED,
                    n_users=10000,
                ),
            )
        )
    workloads.append(
        BenchWorkload(
            name="users-scaling",
            spec=SweepSpec(
                systems=("frodo3",),
                failure_rates=(0.2,),
                runs_per_cell=1,
                base_seed=BENCH_BASE_SEED,
                users=(5, 100, 1000) if not quick else (5, 100),
            ),
        )
    )
    return workloads


def find_workload(name: str, workloads: Sequence[BenchWorkload]) -> BenchWorkload:
    """Look a workload up by name; raises :class:`ValueError` with the catalogue."""
    for workload in workloads:
        if workload.name == name:
            return workload
    known = ", ".join(workload.name for workload in workloads)
    raise ValueError(f"unknown bench workload {name!r}; available: {known}")
