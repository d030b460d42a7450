"""Jini topology builder (Table 4) — the single constructor of the Jini family.

``build_jini`` instantiates K Lookup Services on a registry graph, one
service provider and N clients, with a propagation mode and a
user-assignment policy.  The parameter defaults are the paper's
single-registry model; ``jini@k=2`` is its two-registry redundancy variant,
where the provider registers with both and every client holds an event
registration at both, doubling the update traffic (m' = 14).  The
``jini1``/``jini2`` names are frozen aliases of ``jini@k=1``/``jini@k=2``.

All unicast control traffic runs over TCP (Table 3 failure response); every
multicast is transmitted redundantly (6 copies).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import Transports
from repro.discovery.service import ServiceDescription, default_query, default_service
from repro.net.multicast import MulticastService
from repro.net.network import Network
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.protocols.base import ProtocolDeployment
from repro.protocols.jini.config import JiniConfig
from repro.protocols.jini.manager import JiniServiceProvider
from repro.protocols.jini.monitor import FederationMonitor
from repro.protocols.jini.registrar import JiniLookupService
from repro.protocols.jini.topology import TOPOLOGIES, neighbor_indices
from repro.protocols.jini.user import JiniClient
from repro.sim.engine import Simulator

#: The propagation policies.
MODES: Tuple[str, ...] = ("push", "pull", "gossip")
#: The user-assignment policies.
ASSIGNS: Tuple[str, ...] = ("multi", "partition")

#: Typed option defaults of the ``jini`` system family (the ``defaults`` of
#: its :data:`~repro.protocols.registry.SYSTEMS` row, the one place they are
#: defined); they select the single-registry replicated model.
JINI_PARAM_DEFAULTS: Dict[str, object] = {
    "k": 1,
    "mode": "push",
    "topology": "mesh",
    "assign": "multi",
    "ttl": 600.0,
    "gossip_interval": 120.0,
    "report": True,
}


def check_jini_params(params: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` when a merged ``jini`` selection is out of range.

    Spec validation runs this on the options the registry resolved from a
    ``jini`` token, so a bad value is a spec error before any cell runs.
    """
    if params["k"] < 1:
        raise ValueError("k must be >= 1")
    if params["mode"] not in MODES:
        raise ValueError(f"unknown federation mode {params['mode']!r}; known: {', '.join(MODES)}")
    if params["assign"] not in ASSIGNS:
        raise ValueError(
            f"unknown user assignment {params['assign']!r}; known: {', '.join(ASSIGNS)}"
        )
    if params["topology"] not in TOPOLOGIES:
        raise ValueError(f"unknown topology {params['topology']!r}; known: {', '.join(TOPOLOGIES)}")
    if params["ttl"] <= 0:
        raise ValueError("ttl must be positive")
    if params["gossip_interval"] <= 0:
        raise ValueError("gossip_interval must be positive")


class JiniDeployment(ProtocolDeployment):
    """A Jini federation ready to simulate."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        monitor: FederationMonitor,
        report: bool,
    ) -> None:
        super().__init__(sim, network, tracker)
        self.monitor = monitor
        self.report = report

    def trigger_service_change(self) -> ServiceDescription:
        sd = super().trigger_service_change()
        self.monitor.record_change(sd.version, self.sim.now)
        return sd

    def registry_ids(self) -> List[str]:
        """Registry node ids in build order (index 0 is the home registry)."""
        return [registrar.node_id for registrar in self.registries]

    def federation_edges(self) -> List[Tuple[str, str]]:
        """The undirected adjacency edges of the registry graph, sorted.

        Each edge is a ``(a, b)`` id pair with ``a < b``; the partition
        scenario family draws single-link cuts from this list.
        """
        edges = {
            tuple(sorted((registrar.node_id, peer)))
            for registrar in self.registries
            for peer in registrar.peer_addrs
        }
        return sorted(edges)

    def extra_details(self, change_time: float) -> Dict[str, object]:
        if not self.report:
            return {}
        summary = self.monitor.summary(self.network.stats, self.registry_ids(), change_time)
        return {"federation": summary}


def build_jini(
    sim: Simulator,
    network: Network,
    tracker: ConsistencyTracker,
    k: int,
    mode: str,
    topology: str,
    assign: str,
    ttl: float,
    gossip_interval: float,
    report: bool,
    n_users: int = 5,
) -> JiniDeployment:
    """Instantiate a federation of ``k`` Jini Lookup Services.

    ``mode`` selects the propagation policy (push/pull/gossip), ``topology``
    the registry graph (mesh/star/ring/line), ``assign`` whether users are
    multi-homed or partitioned across registries; ``ttl`` is pull mode's
    freshness horizon and ``gossip_interval`` the anti-entropy period.
    ``report=False`` suppresses the ``federation`` details block (the
    ``jini1``/``jini2`` aliases pin it off to keep their per-run output
    unchanged).  Spec validation checked the values
    (:func:`check_jini_params`), and the registry supplies the defaults
    (:data:`JINI_PARAM_DEFAULTS`).  The construction order (registries,
    provider, clients) is part of the byte-identity contract of those
    aliases.
    """
    config = JiniConfig().validate()
    monitor = FederationMonitor(k, mode, topology, assign)
    deployment = JiniDeployment(sim, network, tracker, monitor, report)

    transports = Transports(
        udp=UdpTransport(network),
        tcp=TcpTransport(network),
        multicast=MulticastService(network, redundancy=config.multicast_copies),
    )

    registrars = [
        JiniLookupService(
            sim,
            network,
            f"jini-lus-{index + 1}",
            transports,
            config,
            mode=mode,
            ttl=ttl,
            gossip_interval=gossip_interval,
            monitor=monitor,
        )
        for index in range(k)
    ]
    deployment.registries.extend(registrars)

    # Wire the registry graph; registry 1 is the well-known home/fallback.
    home_addr = registrars[0].node_id
    adjacency = neighbor_indices(topology, k)
    for index, registrar in enumerate(registrars):
        registrar.link([registrars[peer].node_id for peer in adjacency[index]], home_addr)

    manager_id = "jini-manager"
    provider = JiniServiceProvider(
        sim,
        network,
        manager_id,
        transports,
        config,
        sd=default_service(manager_id),
        tracker=tracker,
        home=None if mode == "push" else home_addr,
    )
    deployment.managers.append(provider)

    for index in range(n_users):
        client = JiniClient(
            sim,
            network,
            f"jini-user-{index + 1}",
            transports,
            config,
            query=default_query(),
            tracker=tracker,
            home=None if assign == "multi" else registrars[index % k].node_id,
        )
        tracker.register_user(client.node_id)
        deployment.users.append(client)

    return deployment
