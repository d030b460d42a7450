"""FRODO Users.

A User discovers the Central (by announcing its presence and by listening to
Central announcements), queries it for the service it needs, holds the
service description, and subscribes for updates — at the Central (3-party,
for 3D/3C Managers) or directly at the Manager (2-party, for 300D Managers).

Recovery behaviour implemented here:

* SRN1/SRC1 — update notifications are acknowledged (the sender retransmits).
* SRC2      — the version piggy-backed on subscription renewal
  acknowledgements lets a 3-party User detect a missed update and request it.
* PR3/PR4   — the User resubscribes when the Central/Manager asks it to.
* PR5       — when the subscription relationship collapses (no contact for a
  full lease period) or the Central reports the Manager purged, the User
  purges the service it holds and rediscovers it: unicast query to the Central
  first, multicast query as a fall-back, repeated periodically until the
  service is found again.
"""

from __future__ import annotations

from typing import Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode
from repro.discovery.retry import AckRetryScheduler
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.protocols.frodo import messages as m
from repro.protocols.frodo.config import FrodoConfig, SubscriptionMode
from repro.sim.engine import Simulator
from repro.sim.timers import OneShotTimer, PeriodicTimer


class FrodoUser(DiscoveryNode):
    """A FRODO User looking for one service."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: FrodoConfig,
        query: ServiceQuery,
        tracker: ConsistencyTracker,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.query = query
        self.tracker = tracker

        self.central: Optional[Address] = None
        self.manager_addr: Optional[Address] = None
        #: The id of the service this User holds or held; a purge keeps it.
        self.service_id: Optional[str] = None
        #: The service description held, ``None`` before discovery and after a purge.
        self.sd: Optional[ServiceDescription] = None

        self.subscribed = False
        self.lessor: Optional[Address] = None
        self.last_lessor_contact: float = 0.0

        self._retries = AckRetryScheduler(sim)
        self._announce_timer = PeriodicTimer(
            sim, config.node_announce_interval, self._announce_presence
        )
        self._renew_timer = PeriodicTimer(sim, config.renewal_interval, self._renew_tick)
        self._rediscovery_timer = PeriodicTimer(
            sim, config.rediscovery_interval, self._rediscovery_tick
        )
        self._query_retry = OneShotTimer(sim, self._query_central)
        self._pr5_fallback = OneShotTimer(sim, self._multicast_query)

    # ------------------------------------------------------------------ properties
    @property
    def two_party(self) -> bool:
        """``True`` when this User subscribes directly at the Manager."""
        return self.config.subscription_mode is SubscriptionMode.TWO_PARTY

    @property
    def held_version(self) -> int:
        """The version of the service description this User currently holds."""
        return self.sd.version if self.sd is not None else 0

    @property
    def has_service(self) -> bool:
        """``True`` while a service description is held."""
        return self.sd is not None

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self._announce_presence()
        self._announce_timer.start()
        self._renew_timer.start()

    def on_stop(self) -> None:
        for timer in (self._announce_timer, self._renew_timer, self._rediscovery_timer):
            timer.stop()
        self._query_retry.cancel()
        self._pr5_fallback.cancel()
        self._retries.cancel_all()

    # ------------------------------------------------------------------ Central discovery
    def _announce_presence(self) -> None:
        if self.central is not None:
            self._announce_timer.stop()
            return
        self.send_multicast(m.NODE_ANNOUNCE, {"node": self.node_id, "role": "user"})

    def _learn_central(self, central: Address) -> None:
        previous = self.central
        self.central = central
        self._announce_timer.stop()
        if not self.has_service:
            self._query_central()
        elif not self.two_party and self.subscribed and self.lessor != central:
            # A new Central (e.g. the Backup took over): transfer the subscription.
            self._subscribe()
        elif not self.subscribed:
            self._subscribe()
        if previous is None and not self.has_service:
            self._query_retry.start(self.config.query_retry_interval)

    def handle_central_announce(self, message: Message) -> None:
        self._learn_central(message.payload["central"])

    def handle_registry_here(self, message: Message) -> None:
        self._learn_central(message.payload["central"])

    # ------------------------------------------------------------------ querying
    def _query_central(self) -> None:
        if self.central is None:
            return
        self.send_udp(self.central, m.SERVICE_QUERY, self.query.to_payload())

    def _multicast_query(self) -> None:
        if self.has_service:
            return
        self.send_multicast(m.MULTICAST_QUERY, self.query.to_payload())

    def handle_service_query_response(self, message: Message) -> None:
        matches = [
            sd for sd in message.payload.get("sds", []) if sd is not None and self.query.matches(sd)
        ]
        if not matches:
            if not self.has_service:
                self._query_retry.start(self.config.query_retry_interval)
            return
        self._adopt_sd(matches[0])

    # ------------------------------------------------------------------ adopting a service description
    def _adopt_sd(self, sd: ServiceDescription) -> None:
        self.service_id = sd.service_id
        self.manager_addr = sd.manager_id
        if self.sd is None or sd.version >= self.sd.version:
            self.sd = sd
        self.tracker.record_view(self.node_id, sd.version, self.now)
        self._rediscovery_timer.stop()
        self._pr5_fallback.cancel()
        self._query_retry.cancel()
        if not self.subscribed:
            self._subscribe()

    # ------------------------------------------------------------------ subscribing
    def _lessor_address(self) -> Optional[Address]:
        return self.manager_addr if self.two_party else self.central

    def _subscribe(self) -> None:
        lessor = self._lessor_address()
        if lessor is None or self.service_id is None:
            return
        service_id = self.service_id
        self.lessor = lessor

        def _send(_attempt: int) -> None:
            self.send_udp(
                lessor,
                m.SUBSCRIBE_REQUEST,
                {"service_id": service_id, "held_version": self.held_version},
            )

        self._retries.start(
            ("subscribe", lessor),
            _send,
            timeout=self.config.ack_timeout,
            max_retries=self.config.srn1_retries,
            on_give_up=lambda _key: self.trace("subscribe_failed", lessor=lessor),
        )
        if self.two_party and self.central is not None:
            # PR1 interest registration at the Central (notification of
            # future/existing registrations of this service).
            self.send_udp(
                self.central,
                m.INTEREST_REQUEST,
                {"service_id": service_id, "held_version": self.held_version},
            )

    def handle_subscribe_ack(self, message: Message) -> None:
        self._retries.acknowledge(("subscribe", message.sender))
        self.subscribed = True
        self.lessor = message.sender
        self.last_lessor_contact = self.now
        sd = message.payload.get("sd")
        if sd is not None and self.query.matches(sd):
            self._adopt_sd(sd)

    def handle_resubscribe_request(self, message: Message) -> None:
        # PR3 (from the Central) / PR4 (from a 300D Manager).
        self.subscribed = False
        if self.two_party and message.sender == self.manager_addr:
            self.lessor = message.sender
        self._subscribe()

    # ------------------------------------------------------------------ renewals and the PR5 watchdog
    def _renew_tick(self) -> None:
        now = self.now
        if self.subscribed and self.lessor is not None and self.service_id is not None:
            self.send_udp(
                self.lessor,
                m.SUBSCRIPTION_RENEW,
                {"service_id": self.service_id, "held_version": self.held_version},
            )
            if self.two_party and self.central is not None:
                self.send_udp(
                    self.central,
                    m.INTEREST_RENEW,
                    {"service_id": self.service_id, "held_version": self.held_version},
                )
        if (
            self.subscribed
            and now - self.last_lessor_contact > self.config.subscription_lease
        ):
            # The lessor has been silent for a whole lease period: the
            # subscription relationship has collapsed.
            self._purge_and_rediscover(reason="lessor_silent")
        elif not self.subscribed and self.has_service:
            # We hold a service but have no live subscription; keep trying.
            self._subscribe()
        elif (
            not self.has_service
            and not self._rediscovery_timer.running
            and self.service_id is not None
        ):
            self._start_rediscovery()

    def handle_subscription_renew_ack(self, message: Message) -> None:
        self.last_lessor_contact = self.now
        current_version = message.payload.get("current_version")
        if (
            self.config.enable_src2
            and current_version is not None
            and current_version > self.held_version
            and self.central is not None
            and self.service_id is not None
        ):
            # SRC2: the Registry holds a newer version than we do - request it.
            self.send_udp(
                self.central,
                m.UPDATE_REQUEST,
                {"service_id": self.service_id},
            )

    # ------------------------------------------------------------------ update notifications
    def handle_service_update(self, message: Message) -> None:
        sd: ServiceDescription = message.payload["sd"]
        if not self.query.matches(sd):
            return
        self._adopt_sd(sd)
        self.send_udp(
            message.sender,
            m.USER_UPDATE_ACK,
            {"service_id": sd.service_id, "version": sd.version},
        )
        if message.sender == self.lessor:
            self.last_lessor_contact = self.now

    def handle_manager_purged(self, message: Message) -> None:
        if message.payload.get("service_id") != self.service_id:
            return
        self._purge_and_rediscover(reason="registry_purged_manager")

    # ------------------------------------------------------------------ PR5: purge and rediscover
    def _purge_and_rediscover(self, reason: str) -> None:
        self.trace("purge_manager", reason=reason)
        self.sd = None
        self.subscribed = False
        self.lessor = None
        if not self.config.enable_pr5:
            return
        self._start_rediscovery()

    def _start_rediscovery(self) -> None:
        self._rediscovery_tick()
        if not self._rediscovery_timer.running:
            self._rediscovery_timer.start()

    def _rediscovery_tick(self) -> None:
        if self.has_service and self.subscribed:
            self._rediscovery_timer.stop()
            return
        if self.central is not None:
            # PR5: unicast query to the Registry first ...
            self._query_central()
            # ... and fall back to a multicast query if it stays silent.
            self._pr5_fallback.start(self.config.pr5_registry_timeout)
        else:
            self.send_multicast(m.NODE_ANNOUNCE, {"node": self.node_id, "role": "user"})
            self._multicast_query()
