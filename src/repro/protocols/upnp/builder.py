"""UPnP topology builder (Table 4).

One root device (the Manager) and five control points (the Users).  UPnP is
2-party: there is no Registry node.  Unicast control traffic (description
fetches, GENA subscription and eventing) runs over TCP with the Table 3
failure response; SSDP search responses use UDP; every multicast is
transmitted redundantly (6 copies, Table 3).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import Transports
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.multicast import MulticastService
from repro.net.network import Network
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.protocols.base import ProtocolDeployment
from repro.protocols.upnp.config import UpnpConfig
from repro.protocols.upnp.manager import UpnpRootDevice
from repro.protocols.upnp.user import UpnpControlPoint
from repro.sim.engine import Simulator


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
    """The control points' requirement: any printer."""
    return ServiceQuery(device_type="Printer")


class UpnpDeployment(ProtocolDeployment):
    """A UPnP topology ready to simulate."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tracker: ConsistencyTracker,
        config: UpnpConfig,
    ) -> None:
        super().__init__(sim, network, tracker)
        self.config = config

    def trigger_service_change(
        self, attributes: Optional[Dict[str, object]] = None
    ) -> ServiceDescription:
        device: UpnpRootDevice = self.primary_manager  # type: ignore[assignment]
        return device.change_service(attributes=attributes)


def build_upnp(
    sim: Simulator,
    network: Network,
    tracker: ConsistencyTracker,
    config: Optional[UpnpConfig] = None,
    n_users: int = 5,
) -> UpnpDeployment:
    """Instantiate the UPnP topology (1 root device, ``n_users`` control points)."""
    config = (config if config is not None else UpnpConfig()).validate()
    deployment = UpnpDeployment(sim, network, tracker, config)

    transports = Transports(
        udp=UdpTransport(network),
        tcp=TcpTransport(network),
        multicast=MulticastService(network, redundancy=config.multicast_copies),
    )

    device_id = "upnp-device"
    device = UpnpRootDevice(
        sim,
        network,
        device_id,
        transports,
        config,
        sd=default_service(device_id),
        tracker=tracker,
    )
    deployment.managers.append(device)

    for index in range(n_users):
        user = UpnpControlPoint(
            sim,
            network,
            f"upnp-cp-{index + 1}",
            transports,
            config,
            query=default_query(),
            tracker=tracker,
        )
        tracker.register_user(user.node_id)
        deployment.users.append(user)

    return deployment
