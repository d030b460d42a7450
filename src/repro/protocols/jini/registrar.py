"""The Jini Lookup Service (a Registry of the 3-party topology).

The Lookup Service announces itself with periodic redundant multicasts,
answers multicast discovery requests with a unicast reply, stores service
registrations under a lease, serves lookups, and keeps remote-event
registrations through which it notifies clients of (re-)registrations and
attribute changes.  Events carry the new service item, so a delivered event
restores the client's consistency directly.

Recovery behaviour:

* PR1 — events fire on every (re-)registration whose version is newer than
  what the event registration last saw.  Only clients holding a *live* event
  registration are notified (future registrations; Table 2's Jini caveat).
* PR3 — renewing a purged event registration is answered with an
  ``event_renew_error``; the client re-registers and resynchronises with a
  lookup.
* SRC2 — a registration renewal advertising a newer version than the
  repository holds triggers an explicit ``update_request`` to the Manager.
* SRC1/SRN1 exist only through TCP; a failed event delivery (Remote
  Exception) is simply dropped — the lease machinery recovers later.

Each Lookup Service is one registry of a K-registry federation: it sits on a
registry graph (:mod:`repro.protocols.jini.topology`) and propagates service
state across it according to the federation *mode*:

* ``push`` — no inter-registry traffic at all: the Manager is multi-homed
  and pushes its update to every registry itself (the paper's replicated
  ``jini2`` model).  Push mode sends no ``fed_*`` message, arms no gossip
  timer and has no stale-entry fallback, which keeps the ``jini1``/``jini2``
  aliases byte-identical to the single-registry model they replaced.
* ``pull`` — pull-on-miss with a cache TTL: a lookup or event renewal that
  hits a missing or stale entry triggers one ``fed_pull`` round to the
  topology neighbours plus the well-known home registry (the UAM relay
  chain: cache check, neighbour lookup, well-known fallback).  Lookups are
  still answered immediately from whatever is held — the stale-entry
  fallback — and the refreshed entry fires remote events when it arrives.
* ``gossip`` — periodic anti-entropy: every ``gossip_interval`` the
  registry sends its entries to one neighbour (round-robin by tick count,
  deterministic), which merges newer entries and replies with anything it
  holds that is newer.

Pull/gossip receivers answer from what they hold and never recurse, so a
federation round is always one hop of messages.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.discovery.cache import ServiceCache
from repro.discovery.node import DiscoveryNode
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.discovery.subscription import SubscriptionTable
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.tcp import RemoteException
from repro.protocols.jini import messages as m
from repro.protocols.jini.config import JiniConfig
from repro.protocols.jini.monitor import FederationMonitor
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class JiniLookupService(DiscoveryNode):
    """One Jini Lookup Service (LUS): one registry of a federation."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS
    multicast_copies = m.MULTICAST_COPIES

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: JiniConfig,
        mode: str,
        ttl: float,
        gossip_interval: float,
        monitor: FederationMonitor,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config

        #: Registered service descriptions (registration lease enforced).
        self.registrations = ServiceCache(default_lease=config.registration_lease)
        #: Manager address per registered service.
        self.manager_addrs: Dict[str, Address] = {}
        #: Remote-event registrations (event lease enforced).
        self.event_registrations = SubscriptionTable(default_lease=config.event_lease)

        self._announce_timer = PeriodicTimer(sim, config.announce_interval, self._announce)
        self._purge_timer = PeriodicTimer(sim, config.purge_scan_interval, self._purge_scan)

        self.fed_mode = mode
        self.fed_ttl = ttl
        self.monitor = monitor
        #: Topology neighbours and the well-known fallback registry
        #: (assigned by the builder once all registries exist).
        self.peer_addrs: List[Address] = []
        self.home_addr: Optional[Address] = None
        #: When each entry was last confirmed fresh (stored or revalidated).
        self._fetched_at: Dict[str, float] = {}
        #: Start of an unanswered pull round (duplicate-pull guard).
        self._pull_pending_since: Optional[float] = None
        self._gossip_tick_count = 0
        self._gossip_timer = (
            PeriodicTimer(sim, gossip_interval, self._gossip_tick) if mode == "gossip" else None
        )

    def link(self, peer_addrs: List[Address], home_addr: Address) -> None:
        """Wire the registry into its graph (builder-time, no messages)."""
        self.peer_addrs = list(peer_addrs)
        self.home_addr = home_addr

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self._announce()
        self._announce_timer.start()
        self._purge_timer.start()
        if self._gossip_timer is not None:
            self._gossip_timer.start()

    def on_stop(self) -> None:
        self._announce_timer.stop()
        self._purge_timer.stop()
        if self._gossip_timer is not None:
            self._gossip_timer.stop()

    # ------------------------------------------------------------------ discovery
    def _announce(self) -> None:
        self.send_multicast(m.REGISTRAR_ANNOUNCE, {"registrar": self.node_id})

    def handle_discovery_request(self, message: Message) -> None:
        self.send_udp(message.sender, m.REGISTRAR_HERE, {"registrar": self.node_id})

    # ------------------------------------------------------------------ service registration
    def handle_register(self, message: Message) -> None:
        sd: ServiceDescription = message.payload["sd"]
        self.registrations.store(sd, self.now, lease_duration=self.config.registration_lease)
        self.manager_addrs[sd.service_id] = message.sender
        self.send_tcp(
            message.sender,
            m.REGISTER_ACK,
            {
                "service_id": sd.service_id,
                "version": sd.version,
                "lease": self.config.registration_lease,
            },
        )
        self.trace("registration_stored", service_id=sd.service_id, version=sd.version)
        self._fire_events(sd)
        self._note_stored(sd)

    def handle_register_renew(self, message: Message) -> None:
        service_id = message.payload["service_id"]
        version = message.payload.get("version", 0)
        entry = self.registrations.get(service_id)
        if entry is None:
            # UnknownLeaseException: the registration was purged; the Manager
            # re-registers, which fires PR1 events to interested clients.
            self.send_tcp(message.sender, m.REGISTER_RENEW_ERROR, {"service_id": service_id})
            return
        self.registrations.touch(service_id, self.now)
        self.manager_addrs[service_id] = message.sender
        self.send_tcp(
            message.sender,
            m.REGISTER_RENEW_ACK,
            {"service_id": service_id, "version": entry.sd.version},
        )
        if self.config.enable_src2 and version > entry.sd.version:
            # SRC2: the renewal advertises a newer version than the repository
            # holds — the update notification was missed, so request it.
            self.send_tcp(message.sender, m.UPDATE_REQUEST, {"service_id": service_id})

    # ------------------------------------------------------------------ update propagation
    def handle_service_update(self, message: Message) -> None:
        sd: ServiceDescription = message.payload["sd"]
        self.registrations.store(sd, self.now)
        self.manager_addrs[sd.service_id] = message.sender
        self.send_tcp(
            message.sender,
            m.UPDATE_ACK,
            {"service_id": sd.service_id, "version": sd.version},
        )
        self.trace("update_stored", service_id=sd.service_id, version=sd.version)
        self._fire_events(sd)
        self._note_stored(sd)

    def _fire_events(self, sd: ServiceDescription) -> None:
        """Notify every live event registration that has not seen this version."""
        for sub in self.event_registrations.subscribers_for(sd.service_id, now=self.now):
            if sub.acked_version < sd.version:
                self._send_event(sub.subscriber, sd)

    def _send_event(self, user: Address, sd: ServiceDescription) -> None:
        def _delivered(_msg: Message) -> None:
            sub = self.event_registrations.get(user, sd.service_id)
            if sub is not None:
                sub.acked_version = max(sub.acked_version, sd.version)

        def _rex(_rex: RemoteException) -> None:
            # Jini drops the event; the event lease (not the delivery) decides
            # whether the registration stays, and SRC2/PR3 recover the client.
            self.trace("event_rex", user=user, version=sd.version)

        self.send_tcp(
            user,
            m.REMOTE_EVENT,
            {"sd": sd},
            on_delivered=_delivered,
            on_rex=_rex,
        )

    # ------------------------------------------------------------------ freshness bookkeeping
    def _note_stored(self, sd: ServiceDescription) -> None:
        """Record a store for the consistency metrics (pure bookkeeping)."""
        self._fetched_at[sd.service_id] = self.now
        self.monitor.record_store(self.node_id, sd.version, self.now)

    def _is_stale(self, service_id: str) -> bool:
        """``True`` when the entry is missing or older than the cache TTL."""
        fetched = self._fetched_at.get(service_id)
        return fetched is None or self.now - fetched > self.fed_ttl

    # ------------------------------------------------------------------ remote-event registrations
    def handle_notify_request(self, message: Message) -> None:
        service_id = message.payload["service_id"]
        held_version = message.payload.get("held_version", 0)
        self.event_registrations.subscribe(
            message.sender,
            service_id,
            self.now,
            lease_duration=self.config.event_lease,
            acked_version=held_version,
        )
        entry = self.registrations.get(service_id)
        self.send_tcp(
            message.sender,
            m.NOTIFY_ACK,
            {
                "service_id": service_id,
                "lease": self.config.event_lease,
                "current_version": entry.sd.version if entry is not None else 0,
            },
        )

    def handle_event_renew(self, message: Message) -> None:
        service_id = message.payload["service_id"]
        held_version = message.payload.get("held_version", 0)
        sub = self.event_registrations.renew(message.sender, service_id, self.now)
        if sub is None:
            # PR3: the event registration was purged; the client re-registers.
            self.send_tcp(message.sender, m.EVENT_RENEW_ERROR, {"service_id": service_id})
        else:
            sub.acked_version = max(sub.acked_version, held_version)
            entry = self.registrations.get(service_id)
            payload = {"service_id": service_id}
            if self.config.enable_src2:
                payload["current_version"] = entry.sd.version if entry is not None else 0
            self.send_tcp(message.sender, m.EVENT_RENEW_ACK, payload)
        if self.fed_mode == "pull" and self._is_stale(service_id):
            # Pull-on-miss, renewal trigger (on the PR3 path too): the entry
            # this client watches is missing or past its TTL here.
            self._federated_pull()

    # ------------------------------------------------------------------ lookup
    def handle_lookup(self, message: Message) -> None:
        query = ServiceQuery(
            device_type=message.payload.get("device_type"),
            service_type=message.payload.get("service_type"),
            attributes=message.payload.get("attributes", {}) or {},
        )
        matches = self.registrations.find(query, now=self.now)
        if not matches and self.fed_mode != "push":
            # Stale-entry fallback: a lease-expired entry is better than an
            # empty answer while the federation refreshes it.
            matches = self.registrations.find(query)
            if matches:
                self.trace("stale_fallback", count=len(matches))
        if self.fed_mode == "pull" and (
            not matches or any(self._is_stale(sd.service_id) for sd in matches)
        ):
            self._federated_pull()
        self.send_tcp(message.sender, m.LOOKUP_RESPONSE, {"sds": matches})

    # ------------------------------------------------------------------ purge scan
    def _purge_scan(self) -> None:
        now = self.now
        for service_id in self.registrations.purge_expired(now):
            self.trace("registration_purged", service_id=service_id)
            self.manager_addrs.pop(service_id, None)
        for sub in self.event_registrations.purge_expired(now):
            self.trace("event_registration_purged", subscriber=sub.subscriber)

    # ------------------------------------------------------------------ pull-on-miss
    def _federated_pull(self) -> None:
        if (
            self._pull_pending_since is not None
            and self.now - self._pull_pending_since < self.config.response_timeout
        ):
            return
        targets = list(self.peer_addrs)
        if (
            self.home_addr is not None
            and self.home_addr != self.node_id
            and self.home_addr not in targets
        ):
            # Well-known fallback: the home registry always hears the
            # Manager, so ask it even when it is not a topology neighbour.
            targets.append(self.home_addr)
        if not targets:
            return
        self._pull_pending_since = self.now
        for addr in targets:

            def _rex(_rex: RemoteException, addr: Address = addr) -> None:
                self.trace("fed_pull_rex", peer=addr)

            self.send_tcp(addr, m.FED_PULL, {"requester": self.node_id}, on_rex=_rex)

    def _held_sds(self) -> List[ServiceDescription]:
        """Every held service description, lease-expired entries included
        (the receiver judges by version, not by our lease)."""
        sds = []
        for service_id in self.registrations.service_ids():
            sd = self.registrations.get_sd(service_id)
            if sd is not None:
                sds.append(sd)
        return sds

    def handle_fed_pull(self, message: Message) -> None:
        def _rex(_rex: RemoteException) -> None:
            self.trace("fed_pull_response_rex", peer=message.sender)

        self.send_tcp(message.sender, m.FED_PULL_RESPONSE, {"sds": self._held_sds()}, on_rex=_rex)

    def handle_fed_pull_response(self, message: Message) -> None:
        self._pull_pending_since = None
        for sd in message.payload.get("sds", []):
            self._merge_remote(sd)

    def _merge_remote(self, sd: ServiceDescription) -> None:
        """Adopt a federation-supplied entry when it is at least as new."""
        held = self.registrations.get_sd(sd.service_id)
        if held is not None and sd.version < held.version:
            return
        newer = held is None or sd.version > held.version
        self.registrations.store(sd, self.now, lease_duration=self.config.registration_lease)
        # Equal versions revalidate freshness; newer versions also fire the
        # remote events this registry's subscribers are waiting for.
        self._note_stored(sd)
        if newer:
            self.trace("fed_merge", service_id=sd.service_id, version=sd.version)
            self._fire_events(sd)

    # ------------------------------------------------------------------ gossip
    def _gossip_tick(self) -> None:
        if not self.peer_addrs:
            return
        addr = self.peer_addrs[self._gossip_tick_count % len(self.peer_addrs)]
        self._gossip_tick_count += 1
        sds = self._held_sds()
        if not sds:
            return

        def _rex(_rex: RemoteException) -> None:
            self.trace("fed_gossip_rex", peer=addr)

        self.send_tcp(addr, m.FED_GOSSIP, {"sds": sds}, on_rex=_rex)

    def handle_fed_gossip(self, message: Message) -> None:
        offered = {sd.service_id: sd.version for sd in message.payload.get("sds", [])}
        for sd in message.payload.get("sds", []):
            self._merge_remote(sd)
        # Anti-entropy reply: anything we hold that the sender lacks or
        # holds in an older version.
        newer = [sd for sd in self._held_sds() if sd.version > offered.get(sd.service_id, 0)]
        if newer:

            def _rex(_rex: RemoteException) -> None:
                self.trace("fed_gossip_ack_rex", peer=message.sender)

            self.send_tcp(message.sender, m.FED_GOSSIP_ACK, {"sds": newer}, on_rex=_rex)

    def handle_fed_gossip_ack(self, message: Message) -> None:
        for sd in message.payload.get("sds", []):
            self._merge_remote(sd)
