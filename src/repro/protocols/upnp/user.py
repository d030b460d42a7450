"""UPnP control points (the Users of the 2-party topology).

A control point searches for the service with redundant multicast M-SEARCH
queries, adopts the description from the search response (or fetches it over
TCP after an ssdp:alive advertising a newer version), and subscribes to the
device's event service over TCP.

Recovery behaviour:

* SRC1/SRN1 come only from TCP's bounded connection retries — when TCP raises
  a Remote Exception the operation is abandoned (Table 2: no native
  acknowledgement/retransmission scheme).
* PR4 — a renewal answered with a subscription error (the device dropped us)
  triggers an immediate fresh subscription, whose ack carries the current
  description.
* PR5 — a Remote Exception on any unicast exchange with the device purges it;
  the control point then rediscovers via periodic multicast M-SEARCH and by
  listening to ssdp:alive announcements.
"""

from __future__ import annotations

from typing import Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.tcp import RemoteException
from repro.protocols.upnp import messages as m
from repro.protocols.upnp.config import UpnpConfig
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class UpnpControlPoint(DiscoveryNode):
    """A UPnP control point looking for one service."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS
    multicast_copies = m.MULTICAST_COPIES

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: UpnpConfig,
        query: ServiceQuery,
        tracker: ConsistencyTracker,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.query = query
        self.tracker = tracker

        self.device_addr: Optional[Address] = None
        #: The id of the service this control point holds or held; a purge keeps it.
        self.service_id: Optional[str] = None
        #: The service description held, ``None`` before discovery and after a purge.
        self.sd: Optional[ServiceDescription] = None
        self.subscribed = False
        #: Start time of an in-flight description fetch (duplicate guard).
        #: Timestamps, not booleans: the reply leg is a separate TCP exchange
        #: whose Remote Exception fires on the *device*, so this node would
        #: never learn of the loss — the guard expires after
        #: ``response_timeout`` instead of sticking forever.
        self._fetch_pending_since: Optional[float] = None
        #: Start time of an in-flight subscription request (duplicate guard).
        self._subscribe_pending_since: Optional[float] = None

        self._search_timer = PeriodicTimer(sim, config.search_retry_interval, self._search_tick)
        self._renew_timer = PeriodicTimer(sim, config.renewal_interval, self._renew_tick)
        self._rediscovery_timer = PeriodicTimer(
            sim, config.rediscovery_interval, self._rediscovery_tick
        )

    # ------------------------------------------------------------------ properties
    @property
    def held_version(self) -> int:
        """The version of the service description this control point holds."""
        return self.sd.version if self.sd is not None else 0

    @property
    def has_service(self) -> bool:
        """``True`` while a service description is held."""
        return self.sd is not None

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self._send_msearch()
        self._search_timer.start()
        self._renew_timer.start()

    def on_stop(self) -> None:
        for timer in (self._search_timer, self._renew_timer, self._rediscovery_timer):
            timer.stop()

    # ------------------------------------------------------------------ SSDP discovery
    def _send_msearch(self) -> None:
        self.send_multicast(
            m.MSEARCH,
            {
                "device_type": self.query.device_type,
                "service_type": self.query.service_type,
                "attributes": dict(self.query.attributes),
            },
        )

    def _search_tick(self) -> None:
        if self.has_service:
            self._search_timer.stop()
            return
        self._send_msearch()

    def handle_search_response(self, message: Message) -> None:
        sd: ServiceDescription = message.payload["sd"]
        if self.query.matches(sd):
            self._adopt_sd(sd)

    def handle_ssdp_alive(self, message: Message) -> None:
        if self.query.device_type is not None and (
            message.payload.get("device_type") != self.query.device_type
        ):
            return
        if self.query.service_type is not None and (
            message.payload.get("service_type") != self.query.service_type
        ):
            return
        advertised = message.payload.get("version", 0)
        device = message.payload.get("device", message.sender)
        if not self.has_service or advertised > self.held_version:
            self._fetch_description(device)

    # ------------------------------------------------------------------ description fetch
    def _exchange_in_flight(self, since: Optional[float]) -> bool:
        """``True`` while a request started at ``since`` may still be answered."""
        return since is not None and self.now - since < self.config.response_timeout

    def _fetch_description(self, device: Address) -> None:
        if self._exchange_in_flight(self._fetch_pending_since):
            return
        self._fetch_pending_since = self.now

        def _rex(_rex: RemoteException) -> None:
            self._fetch_pending_since = None
            self._purge_and_rediscover(reason="description_rex")

        self.send_tcp(device, m.DESCRIPTION_GET, {"service_id": self.service_id}, on_rex=_rex)

    def handle_description_response(self, message: Message) -> None:
        self._fetch_pending_since = None
        sd: ServiceDescription = message.payload["sd"]
        if self.query.matches(sd):
            self._adopt_sd(sd)

    # ------------------------------------------------------------------ adopting a service description
    def _adopt_sd(self, sd: ServiceDescription) -> None:
        if self.has_service and sd.version < self.held_version:
            return
        self.service_id = sd.service_id
        self.device_addr = sd.manager_id
        self.sd = sd
        self.tracker.record_view(self.node_id, sd.version, self.now)
        self._search_timer.stop()
        self._rediscovery_timer.stop()
        if not self.subscribed:
            self._subscribe()

    # ------------------------------------------------------------------ GENA subscription
    def _subscribe(self) -> None:
        if self.device_addr is None or self.service_id is None:
            return
        if self._exchange_in_flight(self._subscribe_pending_since):
            return
        self._subscribe_pending_since = self.now

        def _rex(_rex: RemoteException) -> None:
            self._subscribe_pending_since = None
            self._purge_and_rediscover(reason="subscribe_rex")

        self.send_tcp(
            self.device_addr,
            m.SUBSCRIBE_REQUEST,
            {"service_id": self.service_id, "held_version": self.held_version},
            on_rex=_rex,
        )

    def handle_subscribe_ack(self, message: Message) -> None:
        self._subscribe_pending_since = None
        self.subscribed = True
        sd = message.payload.get("sd")
        if sd is not None and self.query.matches(sd):
            self._adopt_sd(sd)

    def handle_subscribe_error(self, message: Message) -> None:
        # PR4: the device dropped our subscription; resubscribe afresh (the
        # ack carries the current description, restoring consistency).
        self._subscribe_pending_since = None
        self.subscribed = False
        self._subscribe()

    def _renew_tick(self) -> None:
        if self.subscribed and self.device_addr is not None and self.service_id is not None:

            def _rex(_rex: RemoteException) -> None:
                self._purge_and_rediscover(reason="renew_rex")

            self.send_tcp(
                self.device_addr,
                m.SUBSCRIBE_RENEW,
                {"service_id": self.service_id},
                on_rex=_rex,
            )
        elif self.has_service and not self.subscribed:
            self._subscribe()
        elif (
            not self.has_service
            and not self._rediscovery_timer.running
            and not self._search_timer.running
        ):
            self._start_rediscovery()

    def handle_subscribe_renew_ack(self, message: Message) -> None:
        """Nothing to do: the control point keeps no lease on what it holds.

        The handler stays so that the device's acknowledgement is a handled
        kind: without it the ack would reach :meth:`on_unhandled`, which
        writes an ``unhandled_message`` trace record for every renewal.
        """

    # ------------------------------------------------------------------ eventing
    def handle_event_notify(self, message: Message) -> None:
        """Invalidation event: poll back for the updated description."""
        version = message.payload.get("version", 0)
        if version > self.held_version:
            self._fetch_description(message.sender)

    # ------------------------------------------------------------------ PR5: purge and rediscover
    def _purge_and_rediscover(self, reason: str) -> None:
        self.trace("purge_device", reason=reason)
        self.sd = None
        self.subscribed = False
        self._fetch_pending_since = None
        self._subscribe_pending_since = None
        self._start_rediscovery()

    def _start_rediscovery(self) -> None:
        self._rediscovery_tick()
        if not self._rediscovery_timer.running:
            self._rediscovery_timer.start()

    def _rediscovery_tick(self) -> None:
        if self.has_service and self.subscribed:
            self._rediscovery_timer.stop()
            return
        self._send_msearch()
