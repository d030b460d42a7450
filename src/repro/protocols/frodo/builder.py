"""FRODO topology builders (Table 4).

Two standard topologies are modelled:

* **3-party subscription** — one 300D node acting as the Registry (Central),
  one 3D Manager and five 3D Users.
* **2-party subscription** — one 300D Registry, one 300D Manager, five 300D
  Users and one 300D Backup.

Both use UDP for unicast and single-copy multicast (except the Registry
announcements, which are transmitted twice per period).
"""

from __future__ import annotations

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import Transports
from repro.discovery.service import default_query, default_service
from repro.net.multicast import FRODO_MULTICAST_COPIES, MulticastService
from repro.net.network import Network
from repro.net.udp import UdpTransport
from repro.protocols.base import ProtocolDeployment
from repro.protocols.frodo.central import FrodoCentral
from repro.protocols.frodo.config import FrodoConfig, SubscriptionMode
from repro.protocols.frodo.manager import FrodoManager
from repro.protocols.frodo.user import FrodoUser
from repro.sim.engine import Simulator


def build_frodo(
    sim: Simulator,
    network: Network,
    tracker: ConsistencyTracker,
    mode: SubscriptionMode,
    n_users: int = 5,
) -> ProtocolDeployment:
    """Instantiate the FRODO topology for the subscription ``mode``."""
    config = FrodoConfig(subscription_mode=mode).validate()
    deployment = ProtocolDeployment(sim, network, tracker)
    two_party = mode is SubscriptionMode.TWO_PARTY

    transports = Transports(
        udp=UdpTransport(network),
        tcp=None,
        multicast=MulticastService(network, redundancy=FRODO_MULTICAST_COPIES),
    )

    # ------------------------------------------------------------------ Registry / Backup
    central = FrodoCentral(sim, network, "frodo-registry", transports, config, capability=100)
    deployment.registries.append(central)

    if two_party and config.enable_backup:
        backup = FrodoCentral(sim, network, "frodo-backup", transports, config, capability=90)
        deployment.other_nodes.append(backup)

    # ------------------------------------------------------------------ Manager
    manager_id = "frodo-manager"
    manager = FrodoManager(
        sim,
        network,
        manager_id,
        transports,
        config,
        sd=default_service(manager_id),
        tracker=tracker,
    )
    deployment.managers.append(manager)

    # ------------------------------------------------------------------ Users
    for index in range(n_users):
        user = FrodoUser(
            sim,
            network,
            f"frodo-user-{index + 1}",
            transports,
            config,
            query=default_query(),
            tracker=tracker,
        )
        tracker.register_user(user.node_id)
        deployment.users.append(user)

    return deployment
