"""The FRODO Central (Registry) and Backup.

The Central is the elected Registry of the FRODO system: the repository for
service descriptions, the relay for 3-party update notifications, and the
active monitor of the system (periodic announcements, purge scans,
resubscription requests).  A registry-capable node that loses the election
becomes a standby; the standby appointed as *Backup* receives configuration
synchronisation messages and takes over automatically when the Central's
announcements stop.

Recovery techniques implemented here:

* SRN1/SRC1 — update notifications to Users are acknowledged and retransmitted
  a bounded number of times.
* SRC2     — version numbers carried on registration renewals let the Central
  detect a missed Manager update and request it explicitly.
* PR1      — on every (re-)registration the Central notifies interested Users
  (existing registrations included, unlike Jini).
* PR3      — a subscription renewal from a purged User triggers an explicit
  resubscription request, whose response carries the updated service
  description.
* PR5      — when the Central purges a Manager it tells the subscribed Users,
  which then purge and rediscover the Manager themselves.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.discovery.cache import ServiceCache
from repro.discovery.node import DiscoveryNode
from repro.discovery.retry import AckRetryScheduler
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.discovery.subscription import SubscriptionTable
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.protocols.frodo import messages as m
from repro.protocols.frodo.config import FrodoConfig
from repro.protocols.frodo.election import Candidate, ElectionState, compare_centrals
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class FrodoCentral(DiscoveryNode):
    """A 300D node's registry component: Central when elected, Backup otherwise."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: FrodoConfig,
        capability: int,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.capability = capability

        self.active = False
        self.is_backup = False
        self.election = ElectionState(own=Candidate(capability=capability, node_id=node_id))
        self.known_central: Optional[Candidate] = None
        self.last_central_heard: float = 0.0

        #: Registered service descriptions (registration lease enforced).
        self.registrations = ServiceCache(default_lease=config.registration_lease)
        #: Manager address per registered service.
        self.manager_addrs: Dict[str, Address] = {}
        #: 3-party subscribers: pushed updates at change time, PR1, PR3.
        self.subscriptions = SubscriptionTable(default_lease=config.subscription_lease)
        #: 2-party interest registrations: PR1 notifications only.
        self.watchers = SubscriptionTable(default_lease=config.subscription_lease)

        self.backup_addr: Optional[Address] = None
        self._retries = AckRetryScheduler(sim)
        self._announce_timer = PeriodicTimer(sim, config.registry_announce_interval, self._announce)
        self._purge_timer = PeriodicTimer(sim, config.purge_scan_interval, self._purge_scan)
        self._takeover_timer = PeriodicTimer(
            sim, config.registry_announce_interval, self._check_takeover
        )

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self.send_multicast(
            m.ELECTION_ANNOUNCE, {"node": self.node_id, "capability": self.capability}
        )
        self.after(self.config.election_window, self._conclude_election)

    def on_stop(self) -> None:
        self._announce_timer.stop()
        self._purge_timer.stop()
        self._takeover_timer.stop()
        self._retries.cancel_all()

    def _conclude_election(self) -> None:
        if self.election.i_win():
            self._become_active()
        else:
            self._become_standby()

    def _become_active(self) -> None:
        if self.active:
            return
        self.active = True
        self.known_central = self.election.own
        self.trace("became_central", capability=self.capability)
        self._takeover_timer.stop()
        self._announce()
        self._announce_timer.start()
        self._purge_timer.start()
        if self.config.enable_backup:
            runner_up = self.election.backup_candidate()
            if runner_up is not None:
                self.backup_addr = runner_up.node_id
                self.send_udp(self.backup_addr, m.BACKUP_APPOINT, {"central": self.node_id})
                self._sync_backup()

    def _become_standby(self) -> None:
        was_active = self.active
        self.active = False
        self._announce_timer.stop()
        self._purge_timer.stop()
        self._retries.cancel_all()
        if was_active:
            self.trace("stepped_down")
        self.last_central_heard = self.now
        self._takeover_timer.start()

    # ------------------------------------------------------------------ periodic duties
    def _announce(self) -> None:
        self.send_multicast(
            m.CENTRAL_ANNOUNCE,
            {"central": self.node_id, "capability": self.capability},
            copies=self.config.registry_announce_copies,
        )

    def _purge_scan(self) -> None:
        if not self.active:
            return
        now = self.now
        for service_id in self.registrations.purge_expired(now):
            self.trace("registration_purged", service_id=service_id)
            self.manager_addrs.pop(service_id, None)
            if self.config.enable_pr5:
                for sub in self.subscriptions.subscribers_for(service_id, now=now):
                    self.send_udp(sub.subscriber, m.MANAGER_PURGED, {"service_id": service_id})
        for sub in self.subscriptions.purge_expired(now):
            self.trace("subscription_purged", subscriber=sub.subscriber, service_id=sub.service_id)
            self._retries.cancel((sub.subscriber, sub.service_id))
        for watcher in self.watchers.purge_expired(now):
            self.trace(
                "watcher_purged", subscriber=watcher.subscriber, service_id=watcher.service_id
            )

    def _check_takeover(self) -> None:
        """Backup take-over: promote when the Central has been silent too long."""
        if self.active or not self.is_backup:
            return
        silence = self.now - self.last_central_heard
        if silence >= self.config.backup_takeover_timeout:
            self.trace("backup_takeover", silence=silence)
            self._become_active()

    def _sync_backup(self) -> None:
        """Send the configuration (registered services) to the Backup."""
        if not self.config.enable_backup or self.backup_addr is None:
            return
        snapshot = [
            (self.registrations.get_sd(service_id), self.manager_addrs.get(service_id))
            for service_id in self.registrations.service_ids()
        ]
        self.send_udp(
            self.backup_addr,
            m.BACKUP_SYNC,
            {"registrations": snapshot},
        )

    # ------------------------------------------------------------------ election / peer handling
    def handle_election_announce(self, message: Message) -> None:
        self.election.observe(message.payload["node"], message.payload["capability"])
        if self.active and not self.election.i_win():
            self._become_standby()

    def handle_central_announce(self, message: Message) -> None:
        candidate = Candidate(
            capability=message.payload.get("capability", 0),
            node_id=message.payload["central"],
        )
        self.election.observe(candidate.node_id, candidate.capability)
        self.known_central = compare_centrals(self.known_central, candidate)
        self.last_central_heard = self.now
        if self.active and candidate > self.election.own:
            self._become_standby()

    def handle_backup_appoint(self, message: Message) -> None:
        self.is_backup = True
        self.last_central_heard = self.now
        self.trace("appointed_backup", central=message.payload.get("central"))

    def handle_backup_sync(self, message: Message) -> None:
        for sd, manager_addr in message.payload.get("registrations", []):
            if sd is None:
                continue
            self.registrations.store(sd, self.now)
            if manager_addr is not None:
                self.manager_addrs[sd.service_id] = manager_addr

    def handle_node_announce(self, message: Message) -> None:
        if not self.active:
            return
        self.send_udp(
            message.sender,
            m.REGISTRY_HERE,
            {"central": self.node_id, "capability": self.capability},
        )

    # ------------------------------------------------------------------ registration handling
    def handle_registration(self, message: Message) -> None:
        if not self.active:
            return
        sd: ServiceDescription = message.payload["sd"]
        changed = self.registrations.store(
            sd, self.now, lease_duration=self.config.registration_lease
        )
        self.manager_addrs[sd.service_id] = message.sender
        self.send_udp(
            message.sender,
            m.REGISTRATION_ACK,
            {
                "service_id": sd.service_id,
                "version": sd.version,
                "lease": self.config.registration_lease,
            },
        )
        self.trace(
            "registration_stored", service_id=sd.service_id, version=sd.version, changed=changed
        )
        self._sync_backup()
        if self.config.enable_pr1:
            self._notify_interested(sd)

    def handle_registration_renew(self, message: Message) -> None:
        if not self.active:
            return
        service_id = message.payload["service_id"]
        version = message.payload.get("version", 0)
        entry = self.registrations.get(service_id)
        if entry is None:
            # The Manager's registration was purged (PR1): ask it to re-register.
            self.send_udp(message.sender, m.REREGISTER_REQUEST, {"service_id": service_id})
            return
        self.registrations.touch(service_id, self.now)
        self.manager_addrs[service_id] = message.sender
        self.send_udp(
            message.sender,
            m.REGISTRATION_RENEW_ACK,
            {"service_id": service_id, "version": entry.sd.version},
        )
        if self.config.enable_src2 and version > entry.sd.version:
            # SRC2: the renewal advertises a newer version than the repository
            # holds - the update notification was missed, so request it.
            self.send_udp(message.sender, m.UPDATE_REQUEST, {"service_id": service_id})

    # ------------------------------------------------------------------ update propagation
    def handle_service_update(self, message: Message) -> None:
        if not self.active:
            return
        sd: ServiceDescription = message.payload["sd"]
        self.registrations.store(sd, self.now)
        self.manager_addrs[sd.service_id] = message.sender
        self.send_udp(
            message.sender,
            m.UPDATE_ACK,
            {"service_id": sd.service_id, "version": sd.version},
        )
        self.trace("update_stored", service_id=sd.service_id, version=sd.version)
        self._sync_backup()
        for sub in self.subscriptions.subscribers_for(sd.service_id, now=self.now):
            if sub.acked_version < sd.version:
                self._push_update(sub.subscriber, sd)

    def _notify_interested(self, sd: ServiceDescription) -> None:
        """PR1: push the (re-)registered SD to interested Users that lack it."""
        targets = []
        for table in (self.subscriptions, self.watchers):
            for sub in table.subscribers_for(sd.service_id, now=self.now):
                if sub.acked_version < sd.version:
                    targets.append(sub.subscriber)
        for user in dict.fromkeys(targets):
            self._push_update(user, sd)

    def _push_update(self, user: Address, sd: ServiceDescription) -> None:
        """Send an update notification with SRN1 acknowledgement/retransmission."""
        key = (user, sd.service_id)

        def _send(_attempt: int) -> None:
            self.send_udp(
                user,
                m.SERVICE_UPDATE,
                {"sd": sd, "from_registry": True},
            )

        if not self.config.enable_srn1:
            _send(0)
            return
        self._retries.start(
            key,
            _send,
            timeout=self.config.ack_timeout,
            max_retries=self.config.srn1_retries,
            on_give_up=lambda _key: self.trace(
                "update_retries_exhausted", user=user, service_id=sd.service_id
            ),
        )

    def handle_user_update_ack(self, message: Message) -> None:
        service_id = message.payload["service_id"]
        version = message.payload.get("version", 0)
        self._retries.acknowledge((message.sender, service_id))
        for table in (self.subscriptions, self.watchers):
            sub = table.get(message.sender, service_id)
            if sub is not None:
                sub.acked_version = max(sub.acked_version, version)

    def handle_update_request(self, message: Message) -> None:
        """SRC2: a User explicitly requests the current service description."""
        if not self.active:
            return
        service_id = message.payload["service_id"]
        sd = self.registrations.get_sd(service_id)
        if sd is None:
            return
        self.send_udp(message.sender, m.SERVICE_UPDATE, {"sd": sd, "from_registry": True})

    # ------------------------------------------------------------------ subscriptions
    def handle_subscribe_request(self, message: Message) -> None:
        if not self.active:
            return
        service_id = message.payload["service_id"]
        held_version = message.payload.get("held_version", 0)
        sd = self.registrations.get_sd(service_id)
        acked = sd.version if sd is not None else held_version
        self.subscriptions.subscribe(
            message.sender,
            service_id,
            self.now,
            lease_duration=self.config.subscription_lease,
            acked_version=acked,
        )
        self.send_udp(
            message.sender,
            m.SUBSCRIBE_ACK,
            {"service_id": service_id, "sd": sd, "lease": self.config.subscription_lease},
        )

    def handle_subscription_renew(self, message: Message) -> None:
        if not self.active:
            return
        service_id = message.payload["service_id"]
        held_version = message.payload.get("held_version", 0)
        sub = self.subscriptions.renew(message.sender, service_id, self.now)
        if sub is None:
            if self.config.enable_pr3:
                # PR3: the User was purged; request an explicit resubscription.
                self.send_udp(message.sender, m.RESUBSCRIBE_REQUEST, {"service_id": service_id})
            return
        sub.acked_version = max(sub.acked_version, held_version)
        entry = self.registrations.get(service_id)
        current_version = entry.sd.version if entry is not None else 0
        payload = {"service_id": service_id}
        if self.config.enable_src2:
            payload["current_version"] = current_version
        self.send_udp(message.sender, m.SUBSCRIPTION_RENEW_ACK, payload)

    def handle_interest_request(self, message: Message) -> None:
        if not self.active:
            return
        service_id = message.payload["service_id"]
        held_version = message.payload.get("held_version", 0)
        self.watchers.subscribe(
            message.sender,
            service_id,
            self.now,
            lease_duration=self.config.subscription_lease,
            acked_version=held_version,
        )

    def handle_interest_renew(self, message: Message) -> None:
        if not self.active:
            return
        service_id = message.payload["service_id"]
        held_version = message.payload.get("held_version", 0)
        watcher = self.watchers.renew(message.sender, service_id, self.now)
        if watcher is None:
            # Re-create the interest silently; the next PR1 event will refresh the User.
            self.watchers.subscribe(
                message.sender,
                service_id,
                self.now,
                lease_duration=self.config.subscription_lease,
                acked_version=held_version,
            )
        else:
            watcher.acked_version = max(watcher.acked_version, held_version)

    # ------------------------------------------------------------------ queries
    def handle_service_query(self, message: Message) -> None:
        if not self.active:
            return
        query = self._query_from_payload(message.payload)
        matches = self.registrations.find(query, now=self.now)
        self.send_udp(
            message.sender,
            m.SERVICE_QUERY_RESPONSE,
            {"sds": matches, "from_registry": True},
        )

    def handle_multicast_query(self, message: Message) -> None:
        if not self.active:
            return
        query = self._query_from_payload(message.payload)
        matches = self.registrations.find(query, now=self.now)
        if matches:
            self.send_udp(
                message.sender,
                m.SERVICE_QUERY_RESPONSE,
                {"sds": matches, "from_registry": True},
            )

    @staticmethod
    def _query_from_payload(payload: Dict[str, object]) -> ServiceQuery:
        return ServiceQuery(
            device_type=payload.get("device_type"),
            service_type=payload.get("service_type"),
            attributes=payload.get("attributes", {}) or {},
        )
