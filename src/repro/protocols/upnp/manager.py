"""The UPnP root device (the Manager of the 2-party topology).

The root device advertises itself with periodic redundant ``ssdp:alive``
multicasts, answers M-SEARCH queries with a unicast response, serves its
description over TCP, and runs GENA eventing: subscribers are stored with a
lease, a service change sends each of them an invalidation event over TCP,
and — as in GENA — a subscriber whose event delivery fails (Remote Exception
after TCP's bounded connection retries) is dropped from the subscriber table.
A renewal from a dropped subscriber is answered with an error, which makes
the control point resubscribe (PR4).
"""

from __future__ import annotations

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.discovery.subscription import SubscriptionTable
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.tcp import RemoteException
from repro.protocols.upnp import messages as m
from repro.protocols.upnp.config import UpnpConfig
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class UpnpRootDevice(DiscoveryNode):
    """A UPnP root device hosting one service."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS
    multicast_copies = m.MULTICAST_COPIES

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: UpnpConfig,
        sd: ServiceDescription,
        tracker: ConsistencyTracker,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.sd = sd
        self.tracker = tracker
        self.subscriptions = SubscriptionTable(default_lease=config.subscription_lease)
        self._announce_timer = PeriodicTimer(sim, config.announce_interval, self._announce_alive)

    # ------------------------------------------------------------------ properties
    @property
    def service_id(self) -> str:
        """Identifier of the hosted service."""
        return self.sd.service_id

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self.tracker.record_authoritative(self.sd, self.now)
        self._announce_alive()
        self._announce_timer.start()

    def on_stop(self) -> None:
        self._announce_timer.stop()

    # ------------------------------------------------------------------ SSDP
    def _announce_alive(self) -> None:
        """Periodic ssdp:alive: advertises the device and its current version."""
        self.send_multicast(
            m.SSDP_ALIVE,
            {
                "device": self.node_id,
                "service_id": self.service_id,
                "device_type": self.sd.device_type,
                "service_type": self.sd.service_type,
                "version": self.sd.version,
            },
        )

    def handle_msearch(self, message: Message) -> None:
        query = ServiceQuery(
            device_type=message.payload.get("device_type"),
            service_type=message.payload.get("service_type"),
            attributes=message.payload.get("attributes", {}) or {},
        )
        if query.matches(self.sd):
            self.send_udp(message.sender, m.SEARCH_RESPONSE, {"sd": self.sd})

    # ------------------------------------------------------------------ description
    def handle_description_get(self, message: Message) -> None:
        self.send_tcp(message.sender, m.DESCRIPTION_RESPONSE, {"sd": self.sd})

    # ------------------------------------------------------------------ GENA subscription
    def handle_subscribe_request(self, message: Message) -> None:
        service_id = message.payload.get("service_id", self.service_id)
        if service_id != self.service_id:
            return
        self.subscriptions.subscribe(
            message.sender,
            service_id,
            self.now,
            lease_duration=self.config.subscription_lease,
            acked_version=self.sd.version,
        )
        self.send_tcp(
            message.sender,
            m.SUBSCRIBE_ACK,
            {"service_id": service_id, "sd": self.sd, "lease": self.config.subscription_lease},
        )

    def handle_subscribe_renew(self, message: Message) -> None:
        service_id = message.payload.get("service_id", self.service_id)
        sub = self.subscriptions.renew(message.sender, service_id, self.now)
        if sub is None:
            # PR4: the subscriber was dropped (failed event delivery or lease
            # expiry); a 412-style error makes it resubscribe afresh.
            self.send_tcp(message.sender, m.SUBSCRIBE_ERROR, {"service_id": service_id})
            return
        self.send_tcp(message.sender, m.SUBSCRIBE_RENEW_ACK, {"service_id": service_id})

    # ------------------------------------------------------------------ the service change
    def change_service(self) -> ServiceDescription:
        """Apply a change and propagate the invalidation to every subscriber."""
        self.sd = self.sd.with_update(self.now)
        self.tracker.record_authoritative(self.sd, self.now)
        self.trace("service_changed", version=self.sd.version)
        for sub in self.subscriptions.subscribers_for(self.service_id, now=self.now):
            self._notify_subscriber(sub.subscriber)
        return self.sd

    def _notify_subscriber(self, user: Address) -> None:
        """GENA NOTIFY over TCP; on Remote Exception the subscriber is dropped."""
        service_id = self.service_id
        version = self.sd.version

        def _dropped(_rex: RemoteException) -> None:
            self.subscriptions.unsubscribe(user, service_id)
            self.trace("subscriber_dropped", user=user, version=version)

        self.send_tcp(
            user,
            m.EVENT_NOTIFY,
            {"service_id": service_id, "version": version},
            on_rex=_dropped,
        )
