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

from typing import Dict, Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import Transports
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.multicast import FRODO_MULTICAST_COPIES, MulticastService
from repro.net.network import Network
from repro.net.udp import UdpTransport
from repro.protocols.base import ProtocolDeployment
from repro.protocols.frodo.central import FrodoCentral
from repro.protocols.frodo.config import FrodoConfig, SubscriptionMode
from repro.protocols.frodo.device_classes import DeviceClass
from repro.protocols.frodo.manager import FrodoManager
from repro.protocols.frodo.user import FrodoUser
from repro.sim.engine import Simulator


#: The printing service used throughout the paper as the running example.
def default_service(manager_id: str) -> ServiceDescription:
    """The paper's example service description (a colour printer)."""
    return ServiceDescription(
        service_id="printer-service",
        manager_id=manager_id,
        device_type="Printer",
        service_type="ColorPrinter",
        attributes={"PaperSize": "A4", "Location": "Study"},
        version=1,
    )


def default_query() -> ServiceQuery:
    """The Users' requirement: any printer."""
    return ServiceQuery(device_type="Printer")


class FrodoDeployment(ProtocolDeployment):
    """A FRODO topology ready to simulate."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        config: FrodoConfig,
    ) -> None:
        super().__init__(sim, network, tracker)
        self.config = config

    def trigger_service_change(
        self, attributes: Optional[Dict[str, object]] = None
    ) -> ServiceDescription:
        manager: FrodoManager = self.primary_manager  # type: ignore[assignment]
        return manager.change_service(attributes=attributes)


def build_frodo(
    sim: Simulator,
    network: Network,
    tracker: ConsistencyTracker,
    config: Optional[FrodoConfig] = None,
    n_users: int = 5,
) -> FrodoDeployment:
    """Instantiate the FRODO topology for the requested subscription mode."""
    config = (config if config is not None else FrodoConfig()).validate()
    deployment = FrodoDeployment(sim, network, tracker, config)
    two_party = config.subscription_mode is SubscriptionMode.TWO_PARTY

    transports = Transports(
        udp=UdpTransport(network),
        tcp=None,
        multicast=MulticastService(network, redundancy=FRODO_MULTICAST_COPIES),
    )

    # ------------------------------------------------------------------ Registry / Backup
    central = FrodoCentral(
        sim,
        network,
        "frodo-registry",
        transports,
        config,
        capability=100,
        tracker=tracker,
    )
    deployment.registries.append(central)

    if two_party and config.enable_backup:
        backup = FrodoCentral(
            sim,
            network,
            "frodo-backup",
            transports,
            config,
            capability=90,
            tracker=tracker,
        )
        deployment.other_nodes.append(backup)

    # ------------------------------------------------------------------ Manager
    manager_class = DeviceClass.DOLLAR_300D if two_party else DeviceClass.DOLLAR_3D
    manager_id = "frodo-manager"
    manager = FrodoManager(
        sim,
        network,
        manager_id,
        transports,
        config,
        sd=default_service(manager_id),
        device_class=manager_class,
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
