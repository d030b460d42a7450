"""End-to-end execution of one experiment run (Section 5, Steps 1-5).

The :class:`ExperimentRunner` is the one way a cell runs, in process or in
a pool worker.  It assembles the full stack for one
:class:`~repro.experiments.scenario.ScenarioSpec`:

1. a fresh :class:`~repro.sim.engine.Simulator` and a per-run
   :class:`~repro.sim.rng.RngRegistry` derived from the spec's master seed,
2. the shared :class:`~repro.net.network.Network` with the default
   configuration,
3. the deployment, built by system token through
   :data:`~repro.protocols.registry.SYSTEMS` (Step 1: topology of Table 4),
4. the interface-failure plan from :mod:`repro.net.failures` (Step 2),
5. the service change at ``change_time`` (Step 3) and the run to the
   measurement deadline (Steps 4-5),

then extracts a :class:`~repro.core.metrics.RunResult` from the consistency
tracker and the network's message statistics.  The run's m' comes from one
place, the registry's closed form at the spec's topology size; no
deployment computes it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.core.consistency import ConsistencyTracker
from repro.core.metrics import RunResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.scenarios import SCENARIOS
from repro.net.failures import DisruptionPlan, FailureInjector
from repro.net.network import Network
from repro.obs.sinks import MemorySink, NDJSONSink
from repro.obs.telemetry import collect_run_telemetry
from repro.protocols.base import ProtocolDeployment
from repro.protocols.registry import SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Tracer


@dataclass
class RunContext:
    """The fully assembled stack of one run (exposed for tests and debugging)."""

    spec: ScenarioSpec
    sim: Simulator
    rng: RngRegistry
    network: Network
    tracker: ConsistencyTracker
    deployment: ProtocolDeployment
    injector: FailureInjector
    plan: DisruptionPlan


class ExperimentRunner:
    """Builds and executes single runs of the registered systems."""

    # ------------------------------------------------------------------ assembly
    @staticmethod
    def _build_tracer(spec: ScenarioSpec) -> Tracer:
        """The tracer for one run: streaming, in-memory, or disabled.

        ``spec.trace_path`` wins: the trace streams to an NDJSON file with
        bounded memory (the sink is closed by :meth:`execute`'s teardown).
        The header's ``meta`` carries the run identity so a capture is
        self-describing; all values are deterministic.
        """
        if spec.trace_path:
            meta = {
                "system": spec.system,
                "failure_rate": spec.failure_rate,
                "seed": spec.seed,
                "users": spec.n_users,
                "change_time": spec.change_time,
                "deadline": spec.deadline,
            }
            if spec.scenario != "table4":
                # Only non-default scenarios tag the header: table4 trace
                # files stay byte-identical to pre-scenario captures.
                meta["scenario"] = spec.scenario_token
            return Tracer(NDJSONSink(spec.trace_path, meta=meta))
        return Tracer(MemorySink() if spec.trace else None)

    def setup(self, spec: ScenarioSpec) -> RunContext:
        """Construct the stack for ``spec`` without running it."""
        spec.validate()
        rng = RngRegistry(spec.seed)
        sim = Simulator(tracer=self._build_tracer(spec))
        network = Network(sim, rng)
        tracker = ConsistencyTracker()
        deployment = SYSTEMS.build(spec.system, sim, network, tracker, n_users=spec.n_users)

        # The spec's scenario family turns the built deployment into this
        # run's disruption plan (the default ``table4`` family reproduces
        # the paper's one-outage-per-node draw byte-for-byte).
        family, options, _ = SCENARIOS.resolve(spec.scenario_token)
        plan = family.build(spec, deployment, rng, options)
        nodes = {node.node_id: node for node in deployment.all_nodes}
        injector = FailureInjector(
            sim,
            network,
            plan.outages,
            churn=plan.churn,
            loss_windows=plan.loss_windows,
            link_cuts=plan.link_cuts,
            deadline=spec.deadline,
            node_resolver=nodes.get,
        )
        return RunContext(
            spec=spec,
            sim=sim,
            rng=rng,
            network=network,
            tracker=tracker,
            deployment=deployment,
            injector=injector,
            plan=plan,
        )

    # ------------------------------------------------------------------ execution
    def run(self, spec: ScenarioSpec) -> RunResult:
        """Execute one run and return its :class:`~repro.core.metrics.RunResult`.

        Collector policy: automatic garbage collection is off for the whole
        cell (:meth:`setup` and :meth:`execute`), and the caller's setting
        is restored afterwards.  After the cell, one explicit collection
        reclaims its object graph, which is full of reference cycles (node
        and its bound-method endpoint handler, timers, leases) that only the
        cyclic collector frees; everything that survives (the results kept
        so far, imported modules) is then frozen out of later collections,
        which scan only the next run's objects.

        This is safe because a running cell creates no cyclic garbage:
        everything it discards while running dies by reference count, so
        memory cannot grow behind the disabled collector.
        ``tests/test_work_counts.py::test_running_cells_create_no_cyclic_garbage``
        guards that invariant for every system and scenario family.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self.execute(self.setup(spec))
        finally:
            gc.collect()
            gc.freeze()
            if enabled:
                gc.enable()

    def execute(self, context: RunContext) -> RunResult:
        """Run an assembled :class:`RunContext` to the deadline and collect results.

        The ``finally`` block is the explicit per-run reset: it stops every
        node and the injector *and closes the tracer sink*, so no run-scoped
        state — open trace files included — survives into the next run of a
        warm (reused) runner, whether in-process or in a pool worker.
        """
        spec = context.spec
        try:
            context.deployment.start()
            context.injector.start()
            context.sim.schedule_at(spec.change_time, context.deployment.trigger_service_change)
            for change_time in context.plan.extra_change_times:
                context.sim.schedule_at(change_time, context.deployment.trigger_service_change)
            context.sim.run(until=spec.deadline)
            return self.collect(context)
        finally:
            context.deployment.stop()
            context.injector.stop()
            context.sim.tracer.close()

    def collect(self, context: RunContext) -> RunResult:
        """Extract the :class:`~repro.core.metrics.RunResult` after the run finished."""
        spec = context.spec
        changed_version = context.tracker.authoritative_version
        change_time = context.tracker.change_time(changed_version)
        if change_time is None:
            raise RuntimeError(
                f"run {spec.describe()} never recorded a service change; "
                "the deployment's trigger_service_change hook is broken"
            )
        stats = context.deployment.collect_run_stats(change_time)
        system, options, _ = SYSTEMS.resolve(spec.system)
        details = {
            "m_prime": system.m_prime_at(spec.n_users, options),
            "n_outages": len(context.injector.plan),
            "executed_events": context.sim.executed_events,
            "changed_version": changed_version,
            "update_counts_by_kind": stats.update_counts_by_kind,
            # RunTelemetry: deterministic engine/network counters (see
            # repro.obs.telemetry for the field glossary).  Persisted
            # with the run through checkpoints and --per-run output.
            "telemetry": collect_run_telemetry(context.sim, context.network, context.injector),
        }
        # Deployment-specific additions (e.g. federation consistency
        # metrics); the default hook contributes nothing.
        details.update(context.deployment.extra_details(change_time))
        return RunResult(
            system=spec.system,
            failure_rate=spec.failure_rate,
            seed=spec.seed,
            change_time=change_time,
            deadline=spec.deadline,
            user_update_times=dict(
                sorted(context.tracker.update_times(changed_version).items())
            ),
            update_message_count=stats.update_message_count,
            total_discovery_messages=stats.total_discovery_messages,
            transport_message_count=stats.transport_message_count,
            details=details,
        )


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Execute one scenario with a fresh runner.

    Everything the run needs is in ``spec`` (including the derived seed), so
    the function is safe to call from any process.  Sweeps do not use it:
    the serial executor runs cells on the sweep's runner, and each parallel
    worker runs its chunks (``_run_chunk``) on a plain runner.
    """
    return ExperimentRunner().run(spec)

