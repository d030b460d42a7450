"""Deployment interface shared by all protocol models.

A *deployment* is the set of nodes of one system instantiated on one network
(the topology of Table 4), plus the operations the experiment scenario needs:
start everything, trigger the service change, and enumerate the node ids for
failure injection.  The per-run message accounting the Update Metrics are
computed from is the network's send counter
(:class:`~repro.net.stats.MessageStats`), which the runner reads.

Deployments are constructed through :mod:`repro.protocols.registry`,
never by hard-coding a builder; the
:class:`~repro.experiments.runner.ExperimentRunner` drives every deployment
exclusively through this interface.  FRODO and UPnP builders return a plain
:class:`ProtocolDeployment`; only the Jini federation subclasses it, to
report cross-registry metrics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode
from repro.discovery.service import ServiceDescription
from repro.net.network import Network
from repro.sim.engine import Simulator


class ProtocolDeployment:
    """A concrete topology of one protocol ready to be simulated.

    A deployment does not know its m': the runner takes it from the
    registry's closed form (:mod:`repro.protocols.registry`).
    """

    def __init__(self, sim: Simulator, network: Network, tracker: ConsistencyTracker) -> None:
        self.sim = sim
        self.network = network
        self.tracker = tracker
        self.users: List[DiscoveryNode] = []
        self.managers: List[DiscoveryNode] = []
        self.registries: List[DiscoveryNode] = []
        self.other_nodes: List[DiscoveryNode] = []

    # ------------------------------------------------------------------ topology
    @property
    def all_nodes(self) -> List[DiscoveryNode]:
        """Every node of the deployment."""
        return [*self.registries, *self.managers, *self.users, *self.other_nodes]

    def node_ids(self) -> List[str]:
        """Identifiers of every node (the population for failure injection)."""
        return [node.node_id for node in self.all_nodes]

    @property
    def primary_manager(self) -> DiscoveryNode:
        """The Manager whose service changes in the experiment."""
        if not self.managers:
            raise RuntimeError("deployment has no manager")
        return self.managers[0]

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start every node (registries first, then managers, then users)."""
        for node in self.all_nodes:
            node.start()

    def stop(self) -> None:
        """Stop every node."""
        for node in self.all_nodes:
            node.stop()

    # ------------------------------------------------------------------ scenario hooks
    def trigger_service_change(self) -> ServiceDescription:
        """Change the primary Manager's service description (the paper's update event).

        Returns the new authoritative service description.
        """
        return self.primary_manager.change_service()  # type: ignore[attr-defined]

    def extra_details(self) -> Dict[str, object]:
        """Deployment-specific additions to the per-run ``details`` dict.

        Called by the runner after the run; the returned mapping is merged
        into :attr:`~repro.experiments.runner.RunResult.details`.
        The default contributes nothing, so legacy output is unchanged —
        federated deployments use this to report cross-registry consistency
        metrics.
        """
        return {}
