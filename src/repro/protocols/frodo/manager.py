"""FRODO Managers.

A Manager owns one service description and keeps the Central's repository
up to date.  3D/3C Managers (3-party subscription) delegate User notification
to the Central; 300D Managers (2-party subscription) maintain their own
subscriber table and notify Users directly, which enables SRN2 (retry of an
unsuccessful notification when the inconsistent User's subscription renewal
arrives) and PR4 (resubscription requests to purged Users).
"""

from __future__ import annotations

from typing import Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.lease import LeaseTable, subscribe, subscribers_for
from repro.discovery.node import DiscoveryNode
from repro.discovery.retry import AckRetryScheduler
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.protocols.frodo import messages as m
from repro.protocols.frodo.config import FrodoConfig, SubscriptionMode
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class FrodoManager(DiscoveryNode):
    """A FRODO Manager of either device class."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: FrodoConfig,
        sd: ServiceDescription,
        tracker: ConsistencyTracker,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.sd = sd
        self.tracker = tracker

        self.central: Optional[Address] = None
        self.registered = False
        #: Last time the Central confirmed our registration (ack or renew ack).
        self.last_central_contact: float = 0.0
        #: Set when the update notification to the Central was never acknowledged.
        self.central_stale = False

        #: 2-party subscriptions (300D Managers only).  Nothing purges this
        #: table, so a renewal finds a lapsed subscription and renews it.
        self.subscriptions = LeaseTable(config.subscription_lease)
        #: SRN2: Users whose update notification could not be delivered.
        self.inconsistent_users: set[Address] = set()

        self._retries = AckRetryScheduler(sim)
        self._announce_timer = PeriodicTimer(
            sim, config.node_announce_interval, self._announce_presence
        )
        self._renew_timer = PeriodicTimer(sim, config.renewal_interval, self._renew_registration)

    # ------------------------------------------------------------------ properties
    @property
    def two_party(self) -> bool:
        """``True`` when this Manager handles its own subscribers (300D)."""
        return self.config.subscription_mode is SubscriptionMode.TWO_PARTY

    @property
    def service_id(self) -> str:
        """Identifier of the managed service."""
        return self.sd.service_id

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self.tracker.record_authoritative(self.sd, self.now)
        self._announce_presence()
        self._announce_timer.start()

    def on_stop(self) -> None:
        self._announce_timer.stop()
        self._renew_timer.stop()
        self._retries.cancel_all()

    # ------------------------------------------------------------------ discovery of the Central
    def _announce_presence(self) -> None:
        if self.registered:
            self._announce_timer.stop()
            return
        self.send_multicast(
            m.NODE_ANNOUNCE,
            {"node": self.node_id, "role": "manager", "service_id": self.service_id},
        )

    def _learn_central(self, central: Address) -> None:
        if central == self.node_id:
            return
        if self.central != central:
            self.central = central
            self.registered = False
        if not self.registered:
            self._register()

    def handle_central_announce(self, message: Message) -> None:
        self._learn_central(message.payload["central"])
        if self.registered and self.central_stale:
            # The Central is reachable again; propagate the missed update.
            self._send_update_to_central()

    def handle_registry_here(self, message: Message) -> None:
        self._learn_central(message.payload["central"])

    def handle_reregister_request(self, message: Message) -> None:
        self.central = message.sender
        self.registered = False
        self._register()

    # ------------------------------------------------------------------ registration
    def _register(self) -> None:
        if self.central is None:
            return
        central = self.central

        def _send(_attempt: int) -> None:
            self.send_udp(central, m.REGISTRATION, {"sd": self.sd})

        self._retries.start(
            ("registration", central),
            _send,
            timeout=self.config.ack_timeout,
            max_retries=self.config.registration_retries,
            on_give_up=lambda _key: self.trace("registration_failed", central=central),
        )

    def handle_registration_ack(self, message: Message) -> None:
        self._retries.acknowledge(("registration", message.sender))
        self.central = message.sender
        self.registered = True
        self.central_stale = message.payload.get("version", 0) < self.sd.version
        self.last_central_contact = self.now
        self._announce_timer.stop()
        if not self._renew_timer.running:
            self._renew_timer.start()
        if self.central_stale:
            self._send_update_to_central()

    def _renew_registration(self) -> None:
        if self.central is None:
            return
        # Watchdog: if the Central has not confirmed anything for longer than
        # the registration lease, assume we were purged (or it is gone) and
        # fall back to announcements until a Central is (re)discovered.
        lease = self.config.registration_lease
        if self.registered and self.now - self.last_central_contact > lease:
            self.registered = False
            self.trace("central_lost", central=self.central)
            self._announce_timer.start(0.0)
        if self.registered:
            self.send_udp(
                self.central,
                m.REGISTRATION_RENEW,
                {"service_id": self.service_id, "version": self.sd.version},
            )

    def handle_registration_renew_ack(self, message: Message) -> None:
        self.last_central_contact = self.now
        if message.payload.get("version", 0) >= self.sd.version:
            self.central_stale = False

    # ------------------------------------------------------------------ the service change
    def change_service(self) -> ServiceDescription:
        """Apply a change to the service description and propagate it.

        This is the event the whole experiment revolves around: the new SD
        version must reach every subscribed User, via the Central (3-party)
        or directly (2-party).
        """
        self.sd = self.sd.with_update(self.now)
        self.tracker.record_authoritative(self.sd, self.now)
        self.trace("service_changed", version=self.sd.version)
        self._send_update_to_central()
        if self.two_party:
            for sub in subscribers_for(self.subscriptions, self.service_id, self.now):
                self._push_update_to_user(sub.subscriber)
        return self.sd

    def _send_update_to_central(self) -> None:
        if self.central is None:
            self.central_stale = True
            return
        central = self.central
        version = self.sd.version
        self.central_stale = True

        def _send(_attempt: int) -> None:
            self.send_udp(central, m.SERVICE_UPDATE, {"sd": self.sd})

        self._retries.start(
            ("central_update", central),
            _send,
            timeout=self.config.ack_timeout,
            max_retries=self.config.srn1_retries if self.config.enable_srn1 else 0,
            on_give_up=lambda _key: self.trace("central_update_failed", version=version),
        )

    def handle_update_ack(self, message: Message) -> None:
        if message.payload.get("version", 0) >= self.sd.version:
            self.central_stale = False
        self._retries.acknowledge(("central_update", message.sender))
        self.last_central_contact = self.now

    def handle_update_request(self, message: Message) -> None:
        """SRC2 at the Central: it noticed (via a renewal) that it missed an update."""
        self.send_udp(message.sender, m.SERVICE_UPDATE, {"sd": self.sd})

    # ------------------------------------------------------------------ 2-party subscription handling
    def _push_update_to_user(self, user: Address) -> None:
        sd = self.sd
        key = ("user_update", user)

        def _send(_attempt: int) -> None:
            self.send_udp(user, m.SERVICE_UPDATE, {"sd": sd})

        def _give_up(_key: object) -> None:
            if self.config.enable_srn2:
                # SRN2: remember the inconsistent User; retry when it next renews.
                self.inconsistent_users.add(user)
            self.trace("user_update_failed", user=user, version=sd.version)

        self._retries.start(
            key,
            _send,
            timeout=self.config.ack_timeout,
            max_retries=self.config.srn1_retries if self.config.enable_srn1 else 0,
            on_give_up=_give_up,
        )

    def handle_user_update_ack(self, message: Message) -> None:
        version = message.payload.get("version", 0)
        self._retries.acknowledge(("user_update", message.sender))
        self.inconsistent_users.discard(message.sender)
        sub = self.subscriptions.get(
            (message.sender, message.payload.get("service_id", self.service_id))
        )
        if sub is not None:
            sub.acked_version = max(sub.acked_version, version)

    def handle_subscribe_request(self, message: Message) -> None:
        if not self.two_party:
            # 3D/3C Managers delegate subscriptions to the Central.
            return
        service_id = message.payload.get("service_id", self.service_id)
        if service_id != self.service_id:
            return
        subscribe(
            self.subscriptions, message.sender, service_id, self.now, acked_version=self.sd.version
        )
        self.inconsistent_users.discard(message.sender)
        self.send_udp(
            message.sender,
            m.SUBSCRIBE_ACK,
            {"service_id": service_id, "sd": self.sd, "lease": self.config.subscription_lease},
        )

    def handle_subscription_renew(self, message: Message) -> None:
        if not self.two_party:
            return
        service_id = message.payload.get("service_id", self.service_id)
        held_version = message.payload.get("held_version", 0)
        sub = self.subscriptions.renew((message.sender, service_id), self.now)
        if sub is None:
            if self.config.enable_pr4:
                # PR4: the User was purged; ask it to resubscribe.
                self.send_udp(message.sender, m.RESUBSCRIBE_REQUEST, {"service_id": service_id})
            return
        sub.acked_version = max(sub.acked_version, held_version)
        self.send_udp(message.sender, m.SUBSCRIPTION_RENEW_ACK, {"service_id": service_id})
        needs_update = held_version < self.sd.version or message.sender in self.inconsistent_users
        if self.config.enable_srn2 and needs_update:
            # SRN2: the renewal proves the User is reachable again - retry the update.
            self._push_update_to_user(message.sender)

    # ------------------------------------------------------------------ queries
    def handle_multicast_query(self, message: Message) -> None:
        if ServiceQuery.from_payload(message.payload).matches(self.sd):
            self.send_udp(
                message.sender,
                m.SERVICE_QUERY_RESPONSE,
                {"sds": [self.sd], "from_registry": False},
            )

    def handle_service_query(self, message: Message) -> None:
        self.handle_multicast_query(message)
