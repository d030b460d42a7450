"""Composable scenario library: named disruption-plan families.

The paper's Section 5 model — one interface outage per node, one service
change per run — is just one point in the space of disruptions FRODO's
purge/rediscovery techniques should be stress-tested against.  This module
generalises the experiment harness: a *scenario family* is a named recipe
that turns one :class:`~repro.experiments.scenario.ScenarioSpec` plus the
built deployment into a :class:`~repro.net.failures.DisruptionPlan` (typed
outage/churn/loss/extra-change events), and the
:class:`~repro.experiments.runner.ExperimentRunner` applies whatever plan
the spec's family produces.

Families register by name in the module-level :data:`SCENARIOS` registry
(mirroring :mod:`repro.protocols.registry`) and are selectable from the CLI
as ``--scenario name@key=value,...``.

Determinism rules
-----------------
* The default ``table4`` family draws its outage plan from the run's
  ``failures`` RNG stream exactly as the pre-scenario harness did, so its
  runs are byte-identical to the paper's model.
* Every other family draws its extra events from dedicated
  ``("scenario", <family>)`` streams.  Streams are independently seeded from
  the run's master seed, so (a) two runs of the same spec are event-for-event
  identical regardless of process/host/executor, and (b) families that keep
  the baseline outage plan (churn, lossy, multichange) share the *same*
  per-node outages as ``table4`` at equal seeds — paired comparisons.

Conformance invariants
----------------------
Each family carries a ``check(spec, result)`` hook returning a list of
violated-invariant descriptions (empty when conformant).  All families share
the generic recovery invariant: when the last disruption (outage end, loss
window end, churn rejoin — and the last service change) leaves a
failure-free window of at least :data:`RECOVERY_BOUND` seconds before the
deadline, every measured User must have regained consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.metrics import RunResult
from repro.experiments.scenario import ScenarioSpec
from repro.net.failures import (
    DisruptionPlan,
    FailureModelConfig,
    InterfaceOutage,
    LinkCut,
    LossWindow,
    NodeChurn,
    build_interface_failure_plan,
)
from repro.experiments.tokens import canonical_token, parse_token, validate_options
from repro.protocols.base import ProtocolDeployment
from repro.sim.rng import RngRegistry

#: Builder signature: spec + built deployment + the run's RNG registry +
#: merged options -> the run's disruption plan.
PlanBuilder = Callable[
    [ScenarioSpec, ProtocolDeployment, RngRegistry, Dict[str, Any]], DisruptionPlan
]

#: Conformance hook signature: returns violated-invariant descriptions.
ConformanceCheck = Callable[[ScenarioSpec, RunResult], List[str]]

#: Upper bound, in seconds, on purge + rediscovery + update propagation for
#: every modelled system once disruptions have ceased: the slowest periodic
#: recovery channels are the 900 s lease renewals and the 1200 s Registry
#: re-announcements, and a rejoining/restarted node bootstraps within one
#: announcement round.  Two such periods plus propagation slack is a safe
#: bound; the conformance battery exercises it across every family x system.
RECOVERY_BOUND = 3000.0

#: Disruptions never start before this time (discovery must settle first,
#: matching the paper's 100 s failure-free onset — churn waits a bit longer
#: so subscriptions exist before nodes start leaving).
EARLIEST_DISRUPTION = 200.0


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not registered."""

    def __init__(self, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown scenario {self.name!r}; "
            f"registered scenarios: {', '.join(self.known) or '(none)'}"
        )


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered scenario family: plan builder + options + invariants."""

    name: str
    builder: PlanBuilder
    #: Option names with their default values; unknown options are rejected.
    defaults: Dict[str, Any] = field(default_factory=dict)
    description: str = ""
    #: Family-specific conformance hook (the generic recovery invariant
    #: always runs in addition).
    checker: Optional[ConformanceCheck] = None

    def validate_options(self, options: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``options`` over the defaults, rejecting unknown names and
        mistyped values (:func:`~repro.experiments.tokens.validate_options`)."""
        return validate_options("scenario", self.name, self.defaults, options)

    def build(
        self, spec: ScenarioSpec, deployment: ProtocolDeployment, rng: RngRegistry
    ) -> DisruptionPlan:
        """The disruption plan of one run (deterministic in the spec's seed)."""
        options = self.validate_options(spec.scenario_options)
        return self.builder(spec, deployment, rng, options)

    def check(self, spec: ScenarioSpec, result: RunResult) -> List[str]:
        """Violated conformance invariants of one finished run (empty = pass)."""
        problems = _recovery_invariant(spec, result)
        if self.checker is not None:
            problems.extend(self.checker(spec, result))
        return problems


class ScenarioRegistry:
    """Name -> scenario-family mapping (mirrors the deployment registry)."""

    def __init__(self) -> None:
        self._entries: Dict[str, ScenarioFamily] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScenarioFamily]:
        return iter(self._entries.values())

    def register(self, family: ScenarioFamily) -> ScenarioFamily:
        """Register ``family`` under its name; a duplicate name raises."""
        if not family.name:
            raise ValueError("scenario name must be non-empty")
        if family.name in self._entries:
            raise ValueError(f"scenario {family.name!r} already registered")
        self._entries[family.name] = family
        return family

    def get(self, name: str) -> ScenarioFamily:
        """Look up a family; raises :class:`UnknownScenarioError` with the known names."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownScenarioError(name, self.names()) from None

    def names(self) -> List[str]:
        """All registered scenario names, sorted."""
        return sorted(self._entries.keys())


#: The default registry every standard scenario family registers into.
SCENARIOS = ScenarioRegistry()


# --------------------------------------------------------------------------- CLI tokens
def scenario_token(name: str, options: Mapping[str, Any]) -> str:
    """Canonical ``name@key=value,...`` token of a scenario selection.

    Options are sorted by name and values formatted canonically (floats via
    ``repr``), so equal selections always produce equal tokens — the property
    cell keys and checkpoint identities rely on.  A selection without
    options is just the bare name.  (The grammar is shared with ``--system``
    tokens; see :mod:`repro.experiments.tokens`.)
    """
    return canonical_token(name, options)


def parse_scenario(text: str) -> Tuple[str, Dict[str, Any]]:
    """Parse a CLI scenario token: ``churn@rate=0.1,gap=600`` -> name + options.

    Values parse as ``true``/``false``, int, float, or fall back to string.
    The name is *not* resolved against the registry here — callers validate
    via :meth:`ScenarioRegistry.get` so the error carries the known names.
    """
    return parse_token(text, label="scenario")


# --------------------------------------------------------------------------- shared pieces
def _baseline_outages(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    fit_to_deadline: bool = False,
) -> Tuple[InterfaceOutage, ...]:
    """The paper's per-node outage plan, drawn from the ``failures`` stream.

    This is byte-for-byte the draw the pre-scenario harness made, so every
    family built on top of it shares its outages with ``table4`` at equal
    seeds (paired comparisons across scenarios).
    """
    config = FailureModelConfig(
        sim_duration=spec.deadline,
        latest_onset=spec.deadline,
        fit_to_deadline=fit_to_deadline,
    )
    plan = build_interface_failure_plan(
        deployment.node_ids(), spec.failure_rate, rng.stream("failures"), config=config
    )
    return tuple(plan)


def _failure_section(result: RunResult) -> Dict[str, Any]:
    telemetry = result.details.get("telemetry")
    if isinstance(telemetry, dict):
        failures = telemetry.get("failures")
        if isinstance(failures, dict):
            return failures
    return {}


def _recovery_invariant(spec: ScenarioSpec, result: RunResult) -> List[str]:
    """Effectiveness must be 1.0 when the recovery window is comfortable.

    The invariant only claims full coverage when (a) every churned node came
    back (a User absent at the deadline legitimately never updates) and
    (b) at least :data:`RECOVERY_BOUND` disruption-free seconds separate the
    last disruption/change from the deadline.
    """
    failures = _failure_section(result)
    departed = set(failures.get("departed", ()))
    rejoined = set(failures.get("rejoined", ()))
    if departed - rejoined:
        return []
    last_disruption = max(
        result.change_time,
        float(failures.get("last_outage_end", 0.0)),
        float(failures.get("last_loss_end", 0.0)),
        float(failures.get("last_churn_end", 0.0)),
        float(failures.get("last_cut_end", 0.0)),
    )
    if result.deadline - last_disruption < RECOVERY_BOUND:
        return []
    updated = result.users_updated()
    if updated != result.n_users:
        return [
            f"recovery invariant violated: {updated}/{result.n_users} users updated "
            f"although the last disruption ended at {last_disruption:g}s, "
            f"{result.deadline - last_disruption:g}s (>= {RECOVERY_BOUND:g}s) "
            f"before the deadline"
        ]
    return []


def _fitted_onset(rng: Any, duration: float, deadline: float) -> float:
    """Uniform onset that keeps ``[start, start + duration]`` inside the run."""
    return rng.uniform(
        EARLIEST_DISRUPTION, max(EARLIEST_DISRUPTION, deadline - duration)
    )


# --------------------------------------------------------------------------- families
def _build_table4(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    return DisruptionPlan(outages=_baseline_outages(spec, deployment, rng))


def _check_table4(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    if failures.get("n_churn", 0) or failures.get("n_loss_windows", 0):
        problems.append("table4 must not schedule churn or loss windows")
    if failures.get("skipped_ops", 0):
        problems.append("table4 must never skip a failure operation (no churn)")
    return problems


def _build_overlap(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    per_node = int(options["n"])
    if per_node < 2:
        raise ValueError(f"overlap@n must be >= 2, got {per_node!r}")
    if spec.failure_rate == 0.0:
        return DisruptionPlan()
    stream = rng.stream("scenario", "overlap")
    duration = spec.failure_rate * spec.deadline / per_node
    modes = ("tx", "rx", "both")
    outages: List[InterfaceOutage] = []
    for node in deployment.node_ids():
        for _ in range(per_node):
            start = _fitted_onset(stream, duration, spec.deadline)
            mode = stream.choice(modes)
            outages.append(
                InterfaceOutage(node=node, start=start, duration=duration, mode=mode)
            )
    return DisruptionPlan(outages=tuple(outages))


def _check_overlap(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    per_node = int(spec.scenario_options.get("n", 2))
    n_outages = int(failures.get("n_outages", 0))
    if spec.failure_rate > 0 and (n_outages == 0 or n_outages % per_node):
        problems.append(
            f"overlap must schedule a multiple of n={per_node} outages, got {n_outages}"
        )
    # Windows are fitted, so merged realized downtime can never exceed the
    # nominal budget (it undershoots exactly when windows overlap).
    realized = float(failures.get("realized_fraction_mean", 0.0))
    if realized > spec.failure_rate + 1e-9:
        problems.append(
            f"overlap realized downtime fraction {realized:.4f} exceeds "
            f"nominal lambda {spec.failure_rate:.4f}"
        )
    return problems


def _build_churn(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    rate = float(options["rate"])
    gap = float(options["gap"])
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"churn@rate must be in [0, 1], got {rate!r}")
    if gap <= 0:
        raise ValueError(f"churn@gap must be positive, got {gap!r}")
    outages = _baseline_outages(spec, deployment, rng)
    users = [node.node_id for node in deployment.users]
    if rate == 0.0 or not users:
        return DisruptionPlan(outages=outages)
    latest_leave = spec.deadline - gap - RECOVERY_BOUND / 2
    if latest_leave <= EARLIEST_DISRUPTION:
        raise ValueError(
            f"churn@gap={gap:g} leaves no room for a leave/rejoin cycle before "
            f"the {spec.deadline:g}s deadline"
        )
    stream = rng.stream("scenario", "churn")
    count = min(len(users), max(1, round(rate * len(users))))
    churn: List[NodeChurn] = []
    for node in stream.sample(users, count):
        leave = stream.uniform(EARLIEST_DISRUPTION, latest_leave)
        churn.append(NodeChurn(node=node, leave=leave, rejoin=leave + gap).validate())
    return DisruptionPlan(outages=outages, churn=tuple(churn))


def _check_churn(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    departed = list(failures.get("departed", ()))
    rejoined = list(failures.get("rejoined", ()))
    if sorted(departed) != sorted(rejoined):
        problems.append(
            f"churn events always rejoin, yet departed={departed!r} != rejoined={rejoined!r}"
        )
    return problems


def _build_correlated(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    groups = int(options["groups"])
    if groups < 1:
        raise ValueError(f"correlated@groups must be >= 1, got {groups!r}")
    if spec.failure_rate == 0.0:
        return DisruptionPlan()
    stream = rng.stream("scenario", "correlated")
    nodes = deployment.node_ids()
    order = list(nodes)
    stream.shuffle(order)
    duration = spec.failure_rate * spec.deadline
    outages: List[InterfaceOutage] = []
    for group_index in range(min(groups, len(order))):
        members = order[group_index::groups]
        start = _fitted_onset(stream, duration, spec.deadline)
        # One draw fails the whole group: every member shares the window.
        outages.extend(
            InterfaceOutage(node=node, start=start, duration=duration, mode="both")
            for node in members
        )
    return DisruptionPlan(outages=tuple(outages))


def _check_correlated(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    if spec.failure_rate > 0:
        groups = int(spec.scenario_options.get("groups", 2))
        downtimes = failures.get("realized_downtime", {})
        distinct = len(set(downtimes.values()))
        if distinct > groups:
            problems.append(
                f"correlated failures must share group windows: "
                f"{distinct} distinct downtimes for {groups} group(s)"
            )
    return problems


def _build_cascade(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    lag = float(options["lag"])
    if lag <= 0:
        raise ValueError(f"cascade@lag must be positive, got {lag!r}")
    if spec.failure_rate == 0.0:
        return DisruptionPlan()
    stream = rng.stream("scenario", "cascade")
    order = deployment.node_ids()
    stream.shuffle(order)
    duration = spec.failure_rate * spec.deadline
    # The root failure's onset is fitted so the *last* dependent failure in
    # the chain still ends by the deadline whenever the geometry allows it.
    span = duration + lag * (len(order) - 1)
    root_start = _fitted_onset(stream, span, spec.deadline)
    outages = tuple(
        InterfaceOutage(
            node=node, start=root_start + index * lag, duration=duration, mode="both"
        )
        for index, node in enumerate(order)
    )
    return DisruptionPlan(outages=outages)


def _check_cascade(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    if spec.failure_rate > 0 and not failures.get("n_outages", 0):
        problems.append("cascade with lambda > 0 must schedule outages")
    if failures.get("skipped_ops", 0):
        problems.append("cascade schedules no churn, so no operation can be skipped")
    return problems


def _build_lossy(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    p = float(options["p"])
    windows = int(options["windows"])
    span = float(options["span"])
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"lossy@p must be in [0, 1], got {p!r}")
    if windows < 1:
        raise ValueError(f"lossy@windows must be >= 1, got {windows!r}")
    if span <= 0:
        raise ValueError(f"lossy@span must be positive, got {span!r}")
    outages = _baseline_outages(spec, deployment, rng)
    if p == 0.0:
        return DisruptionPlan(outages=outages)
    stream = rng.stream("scenario", "lossy")
    loss_windows = tuple(
        LossWindow(
            start=_fitted_onset(stream, span, spec.deadline),
            duration=span,
            drop_probability=p,
        ).validate()
        for _ in range(windows)
    )
    return DisruptionPlan(outages=outages, loss_windows=loss_windows)


def _check_lossy(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    p = float(spec.scenario_options.get("p", 0.2))
    expected = int(spec.scenario_options.get("windows", 3)) if p > 0 else 0
    if int(failures.get("n_loss_windows", 0)) != expected:
        problems.append(
            f"lossy must schedule exactly {expected} loss window(s), "
            f"got {failures.get('n_loss_windows', 0)}"
        )
    return problems


def _build_restart(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    at = float(options["at"])
    outage = float(options["outage"])
    if not 0 < at < spec.deadline:
        raise ValueError(f"restart@at must fall inside the run, got {at!r}")
    if outage <= 0:
        raise ValueError(f"restart@outage must be positive, got {outage!r}")
    if at + outage >= spec.deadline:
        raise ValueError(
            f"restart@at={at:g} + outage={outage:g} must end before the "
            f"{spec.deadline:g}s deadline"
        )
    # Restart the infrastructure: the Registries where the system has them,
    # otherwise its auxiliary nodes (FRODO's Central), otherwise the primary
    # Manager — every system has *something* whose restart triggers a
    # flash-crowd of rediscovery traffic.
    targets = deployment.registries or deployment.other_nodes or deployment.managers[:1]
    churn = tuple(
        NodeChurn(node=node.node_id, leave=at, rejoin=at + outage).validate()
        for node in targets
    )
    return DisruptionPlan(outages=_baseline_outages(spec, deployment, rng), churn=churn)


def _check_restart(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    if not failures.get("n_churn", 0):
        problems.append("restart must churn at least one infrastructure node")
    departed = list(failures.get("departed", ()))
    rejoined = list(failures.get("rejoined", ()))
    if sorted(departed) != sorted(rejoined):
        problems.append(
            f"restarted nodes must come back: departed={departed!r} != rejoined={rejoined!r}"
        )
    return problems


def _build_multichange(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    changes = int(options["changes"])
    spacing = float(options["spacing"])
    if changes < 2:
        raise ValueError(f"multichange@changes must be >= 2, got {changes!r}")
    if spacing <= 0:
        raise ValueError(f"multichange@spacing must be positive, got {spacing!r}")
    last = spec.change_time + (changes - 1) * spacing
    if last >= spec.deadline:
        raise ValueError(
            f"multichange: the last of {changes} changes lands at {last:g}s, "
            f"at or past the {spec.deadline:g}s deadline"
        )
    extra = tuple(spec.change_time + i * spacing for i in range(1, changes))
    return DisruptionPlan(
        outages=_baseline_outages(spec, deployment, rng), extra_change_times=extra
    )


def _check_multichange(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    changes = int(spec.scenario_options.get("changes", 3))
    # The initial description is version 1 and every change bumps by one.
    version = result.details.get("changed_version")
    if isinstance(version, int) and version != changes + 1:
        problems.append(
            f"multichange triggered {changes} changes so the authoritative "
            f"version must reach {changes + 1}, got {version}"
        )
    spacing = float(spec.scenario_options.get("spacing", 400.0))
    expected_last = spec.change_time + (changes - 1) * spacing
    if abs(result.change_time - expected_last) > 1e-6:
        problems.append(
            f"metrics must follow the last change at {expected_last:g}s, "
            f"but the measured change time is {result.change_time:g}s"
        )
    return problems


#: The registry-graph disruption shapes of the ``partition`` family.
PARTITION_MODES: Tuple[str, ...] = ("split", "link", "crash")


def _build_partition(
    spec: ScenarioSpec,
    deployment: ProtocolDeployment,
    rng: RngRegistry,
    options: Dict[str, Any],
) -> DisruptionPlan:
    mode = str(options["mode"])
    start = float(options["start"])
    duration = float(options["duration"])
    if mode not in PARTITION_MODES:
        raise ValueError(
            f"partition@mode must be one of {', '.join(PARTITION_MODES)}, got {mode!r}"
        )
    if start < EARLIEST_DISRUPTION:
        raise ValueError(
            f"partition@start must be >= {EARLIEST_DISRUPTION:g}, got {start!r}"
        )
    if duration <= 0:
        raise ValueError(f"partition@duration must be positive, got {duration!r}")
    if start + duration >= spec.deadline:
        raise ValueError(
            f"partition@start={start:g} + duration={duration:g} must heal before "
            f"the {spec.deadline:g}s deadline"
        )
    outages = _baseline_outages(spec, deployment, rng)
    ids = deployment.registry_ids() if hasattr(deployment, "registry_ids") else []
    if len(ids) < 2:
        # Single-registry and non-federated systems have no inter-registry
        # links to sever: partition degrades to the table4 plan, which keeps
        # the cross-system conformance battery meaningful.
        return DisruptionPlan(outages=outages)
    if mode == "crash":
        stream = rng.stream("scenario", "partition")
        node = stream.choice(ids)
        churn = (NodeChurn(node=node, leave=start, rejoin=start + duration).validate(),)
        return DisruptionPlan(outages=outages, churn=churn)
    if mode == "split":
        # Bipartition the registry graph: sever every near/far pair.  Pairs
        # that are not adjacency edges matter too — pull mode's home
        # fallback crosses the graph regardless of topology.
        half = (len(ids) + 1) // 2
        cuts = tuple(
            LinkCut(a=a, b=b, start=start, duration=duration).validate()
            for a in ids[:half]
            for b in ids[half:]
        )
        return DisruptionPlan(outages=outages, link_cuts=cuts)
    # mode == "link": sever one randomly drawn adjacency edge.
    edges = deployment.federation_edges()
    if not edges:
        return DisruptionPlan(outages=outages)
    stream = rng.stream("scenario", "partition")
    a, b = stream.choice(edges)
    cut = LinkCut(a=a, b=b, start=start, duration=duration).validate()
    return DisruptionPlan(outages=outages, link_cuts=(cut,))


def _check_partition(spec: ScenarioSpec, result: RunResult) -> List[str]:
    problems: List[str] = []
    failures = _failure_section(result)
    mode = str(spec.scenario_options.get("mode", "split"))
    start = float(spec.scenario_options.get("start", 1800.0))
    heal = start + float(spec.scenario_options.get("duration", 600.0))
    n_cuts = int(failures.get("n_link_cuts", 0))
    if mode == "crash":
        if n_cuts:
            problems.append(f"partition@mode=crash must not cut links, got {n_cuts}")
        departed = list(failures.get("departed", ()))
        rejoined = list(failures.get("rejoined", ()))
        if sorted(departed) != sorted(rejoined):
            problems.append(
                f"the crashed registry must restart: "
                f"departed={departed!r} != rejoined={rejoined!r}"
            )
    elif failures.get("n_churn", 0):
        problems.append(f"partition@mode={mode} must not churn nodes")
    federation = result.details.get("federation")
    if not isinstance(federation, dict):
        return problems
    k = int(federation.get("k", 0))
    ids = list(federation.get("registry_ids", ()))
    half = (k + 1) // 2
    if mode == "split" and k >= 2 and n_cuts != half * (k - half):
        problems.append(
            f"partition@mode=split over k={k} must cut "
            f"{half * (k - half)} link(s), got {n_cuts}"
        )
    if mode == "link" and n_cuts > 1:
        problems.append(f"partition@mode=link cuts at most one link, got {n_cuts}")
    # Stale-entry fallback bound: while the federation is split, the far
    # side can only serve its TTL-bounded stale entry — a change published
    # during the cut must not reach a far-side registry before the heal.
    # (Push mode is exempt: its multi-homed Manager updates every registry
    # directly, so registry-to-registry cuts cannot isolate the far side.)
    staleness = federation.get("staleness", {})
    if (
        mode == "split"
        and federation.get("mode") in ("pull", "gossip")
        and k >= 2
        and start - 1e-9 <= result.change_time < heal
    ):
        for registry_id in ids[half:]:
            window = staleness.get(registry_id)
            if window is not None and result.change_time + window < heal - 1e-9:
                problems.append(
                    f"partition leak: far-side registry {registry_id} stored the "
                    f"change at {result.change_time + window:g}s, before the "
                    f"{heal:g}s heal"
                )
    # Post-heal reconvergence: once the heal (and every other disruption)
    # leaves a comfortable failure-free tail, every registry must hold the
    # authoritative version again and the convergence time must be defined.
    if mode != "crash":
        tail_start = max(
            heal,
            result.change_time,
            float(failures.get("last_outage_end", 0.0)),
            float(failures.get("last_loss_end", 0.0)),
            float(failures.get("last_churn_end", 0.0)),
            float(failures.get("last_cut_end", 0.0)),
        )
        if result.deadline - tail_start >= RECOVERY_BOUND:
            change_version = federation.get("change_version")
            versions = federation.get("registry_versions", {})
            lagging = sorted(
                registry_id
                for registry_id, version in versions.items()
                if version != change_version
            )
            if lagging:
                problems.append(
                    f"partition reconvergence: registries {', '.join(lagging)} "
                    f"still hold a stale version although the post-heal tail "
                    f"exceeds {RECOVERY_BOUND:g}s"
                )
            if federation.get("convergence_time") is None:
                problems.append(
                    "partition reconvergence: convergence_time is undefined "
                    "although the post-heal tail exceeds the recovery bound"
                )
    return problems


def _register_standard_scenarios() -> None:
    SCENARIOS.register(
        ScenarioFamily(
            name="table4",
            builder=_build_table4,
            defaults={},
            description=(
                "The paper's Section 5 model: one outage per node, one service "
                "change (byte-identical to the pre-scenario harness)"
            ),
            checker=_check_table4,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="overlap",
            builder=_build_overlap,
            defaults={"n": 2},
            description=(
                "n outages per node of lambda*D/n seconds each, independently placed "
                "— windows repeat and overlap (depth-counted interfaces)"
            ),
            checker=_check_overlap,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="churn",
            builder=_build_churn,
            defaults={"rate": 0.1, "gap": 600.0},
            description=(
                "table4 outages plus a fraction `rate` of Users leaving mid-run "
                "and rejoining `gap` seconds later with a fresh bootstrap"
            ),
            checker=_check_churn,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="correlated",
            builder=_build_correlated,
            defaults={"groups": 2},
            description=(
                "nodes partitioned into `groups` groups; one draw fails a whole "
                "group for the same lambda*D window (mode both)"
            ),
            checker=_check_correlated,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="cascade",
            builder=_build_cascade,
            defaults={"lag": 30.0},
            description=(
                "a root node failure cascades: each next node fails `lag` "
                "seconds after the previous one, each for lambda*D seconds"
            ),
            checker=_check_cascade,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="lossy",
            builder=_build_lossy,
            defaults={"p": 0.2, "windows": 3, "span": 300.0},
            description=(
                "table4 outages plus `windows` loss windows of `span` seconds "
                "dropping each delivery with probability `p`"
            ),
            checker=_check_lossy,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="partition",
            builder=_build_partition,
            defaults={"mode": "split", "start": 1800.0, "duration": 600.0},
            description=(
                "table4 outages plus a federation partition at `start`: "
                "`mode` split severs every link between the two registry "
                "halves, link severs one adjacency edge, crash restarts one "
                "registry; everything heals after `duration` seconds "
                "(non-federated systems degrade to plain table4)"
            ),
            checker=_check_partition,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="restart",
            builder=_build_restart,
            defaults={"at": 2500.0, "outage": 60.0},
            description=(
                "table4 outages plus an infrastructure restart at `at`: the "
                "Registries (or Central/Manager) leave and rejoin `outage` "
                "seconds later, triggering flash-crowd rediscovery"
            ),
            checker=_check_restart,
        )
    )
    SCENARIOS.register(
        ScenarioFamily(
            name="multichange",
            builder=_build_multichange,
            defaults={"changes": 3, "spacing": 400.0},
            description=(
                "table4 outages plus `changes` service changes `spacing` "
                "seconds apart (metrics follow the last change)"
            ),
            checker=_check_multichange,
        )
    )


_register_standard_scenarios()
