"""UPnP topology builder (Table 4).

One root device (the Manager) and five control points (the Users).  UPnP is
2-party: there is no Registry node.  Unicast control traffic (description
fetches, GENA subscription and eventing) runs over TCP with the Table 3
failure response; SSDP search responses use UDP; every multicast is
transmitted redundantly (6 copies, Table 3).
"""

from __future__ import annotations

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import Transports
from repro.discovery.service import default_query, default_service
from repro.net.multicast import MulticastService
from repro.net.network import Network
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.protocols.base import ProtocolDeployment
from repro.protocols.upnp.config import UpnpConfig
from repro.protocols.upnp.manager import UpnpRootDevice
from repro.protocols.upnp.user import UpnpControlPoint
from repro.sim.engine import Simulator


def build_upnp(
    sim: Simulator,
    network: Network,
    tracker: ConsistencyTracker,
    n_users: int = 5,
) -> ProtocolDeployment:
    """Instantiate the UPnP topology (1 root device, ``n_users`` control points)."""
    config = UpnpConfig().validate()
    deployment = ProtocolDeployment(sim, network, tracker)

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
