"""The Jini service provider (the Manager of the 3-party topology).

The provider discovers Lookup Services (multicast discovery requests plus
announcement listening), registers its service item with every one of them
over TCP, renews the registration lease at half-life, and propagates a
service change by re-registering the changed item (``service_update``) at
each Lookup Service.

Recovery behaviour:

* A Remote Exception on any exchange with a Lookup Service drops it from the
  known set; the periodic announcements rediscover it (PR1, Manager side).
* A ``register_renew_error`` (the registration lease was purged) triggers a
  fresh registration, which makes the Lookup Service fire PR1 events.
* A missed change is repaired when the Lookup Service becomes reachable
  again: announcements from a stale Lookup Service re-send the update, and
  version numbers on renewals let the Lookup Service request it (SRC2).

An announcement from a Lookup Service that is registered and has
acknowledged the current version changes nothing, and neither does one
from a registry other than a single-homed provider's home.  The provider
publishes those in its refresh map and the network absorbs their copies
(see :class:`~repro.net.network.Network`).  Every change that takes a
Lookup Service out of the map releases its held copy.

In a push-mode federation the provider is *multi-homed* (``home`` is
``None``): it registers with every discovered registry and pushes its update
to each of them itself — the paper's replicated model.  In pull/gossip mode
it is *single-homed*: it registers with its home registry only, ignores
announcements from every other registry, and the federation propagates the
update from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode
from repro.discovery.service import ServiceDescription
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.tcp import RemoteException
from repro.protocols.jini import messages as m
from repro.protocols.jini.config import JiniConfig
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


@dataclass
class RegistrarState:
    """What the provider knows about one Lookup Service."""

    registered: bool = False
    #: Highest version the Lookup Service has acknowledged.
    acked_version: int = 0
    #: Start time of an in-flight registration/update (duplicate guard).
    #: A timestamp, not a boolean: the acknowledgement is a separate TCP
    #: exchange whose Remote Exception fires on the Lookup Service, so this
    #: node would never learn of the loss — the guard expires after
    #: ``response_timeout`` instead of blocking the Lookup Service forever.
    send_pending_since: Optional[float] = None
    #: The network's absorbed-copy record (see
    #: :meth:`Network.settle <repro.net.network.Network.settle>`); the
    #: provider reads none of it.
    last_heard: float = -inf
    copy_time: float = -inf
    copy_seq: int = 0
    copy_message: Optional[Message] = None


class JiniServiceProvider(DiscoveryNode):
    """A Jini service provider hosting one service item, optionally pinned
    to one home registry."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS
    multicast_copies = m.MULTICAST_COPIES

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: JiniConfig,
        sd: ServiceDescription,
        tracker: ConsistencyTracker,
        home: Optional[Address] = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.sd = sd
        self.tracker = tracker
        #: ``None`` = multi-homed (push mode).
        self.home = home
        self.registrars: Dict[Address, RegistrarState] = {}
        # The refresh map the network absorbs registrar announcements into:
        # the registrars whose announcement _learn_registrar would ignore
        # (for a single-homed provider, every other registry it has heard).
        self._refresh_map: Dict[Address, RegistrarState] = {}
        self.endpoint.refresh[m.REGISTRAR_ANNOUNCE] = self._refresh_map
        self.endpoint.interface.on_rx_fail = self._release_copies

        self._discovery_timer = PeriodicTimer(sim, config.discovery_interval, self._discovery_tick)
        self._renew_timer = PeriodicTimer(sim, config.renewal_interval, self._renew_tick)

    # ------------------------------------------------------------------ properties
    @property
    def service_id(self) -> str:
        """Identifier of the hosted service."""
        return self.sd.service_id

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self.tracker.record_authoritative(self.sd, self.now)
        for addr, state in self.registrars.items():
            self._publish(addr, state)
        self._discovery_tick()
        self._discovery_timer.start()
        self._renew_timer.start()

    def on_stop(self) -> None:
        self._release_copies()
        self._refresh_map.clear()
        self._discovery_timer.stop()
        self._renew_timer.stop()

    # ------------------------------------------------------------------ absorbed announcement copies
    def _publish(self, addr: Address, state: RegistrarState) -> None:
        """Keep ``addr`` in the refresh map exactly while its announcement is a no-op."""
        if state.registered and state.acked_version >= self.sd.version:
            self._refresh_map[addr] = state
        elif self._refresh_map.pop(addr, None) is not None:
            self.network.release(self.endpoint, state)

    def _release_copies(self) -> None:
        """Put every absorbed copy that has not fired yet back on the calendar."""
        for state in self._refresh_map.values():
            self.network.release(self.endpoint, state)

    # ------------------------------------------------------------------ Lookup Service discovery
    def _discovery_tick(self) -> None:
        if self.registrars:
            return
        self.send_multicast(m.DISCOVERY_REQUEST, {"node": self.node_id, "role": "manager"})

    def handle_registrar_announce(self, message: Message) -> None:
        self._learn_registrar(message.payload["registrar"])

    def handle_registrar_here(self, message: Message) -> None:
        self._learn_registrar(message.payload["registrar"])

    def _learn_registrar(self, addr: Address) -> None:
        if self.home is not None and addr != self.home:
            # Nothing another registry announces concerns this provider.
            self._refresh_map.setdefault(addr, RegistrarState())
            return
        state = self.registrars.get(addr)
        if state is None:
            state = RegistrarState()
            self.registrars[addr] = state
        if not state.registered:
            self._register_with(addr)
        elif state.acked_version < self.sd.version:
            # The Lookup Service is reachable again; re-send the missed update.
            self._send_update_to(addr)

    def _drop_registrar(self, addr: Address) -> None:
        state = self.registrars.pop(addr, None)
        if state is not None:
            # A copy still in flight now reaches _learn_registrar.
            if self._refresh_map.pop(addr, None) is not None:
                self.network.release(self.endpoint, state)
            self.trace("registrar_lost", registrar=addr)

    def _send_in_flight(self, state: RegistrarState) -> bool:
        """``True`` while a registration/update may still be acknowledged."""
        return (
            state.send_pending_since is not None
            and self.now - state.send_pending_since < self.config.response_timeout
        )

    # ------------------------------------------------------------------ registration
    def _register_with(self, addr: Address) -> None:
        state = self.registrars.get(addr)
        if state is None or self._send_in_flight(state):
            return
        state.send_pending_since = self.now

        def _rex(_rex: RemoteException) -> None:
            # Unreachable: forget it; its announcements re-trigger registration.
            self._drop_registrar(addr)

        self.send_tcp(
            addr,
            m.REGISTER,
            {"sd": self.sd, "lease": self.config.registration_lease},
            on_rex=_rex,
        )

    def handle_register_ack(self, message: Message) -> None:
        state = self.registrars.setdefault(message.sender, RegistrarState())
        state.send_pending_since = None
        state.registered = True
        state.acked_version = max(state.acked_version, message.payload.get("version", 0))
        self._publish(message.sender, state)
        if state.acked_version < self.sd.version:
            self._send_update_to(message.sender)

    def _renew_tick(self) -> None:
        for addr, state in list(self.registrars.items()):
            if not state.registered:
                continue

            def _rex(_rex: RemoteException, addr: Address = addr) -> None:
                self._drop_registrar(addr)

            self.send_tcp(
                addr,
                m.REGISTER_RENEW,
                {"service_id": self.service_id, "version": self.sd.version},
                on_rex=_rex,
            )

    def handle_register_renew_ack(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is not None:
            state.acked_version = max(state.acked_version, message.payload.get("version", 0))
            self._publish(message.sender, state)

    def handle_register_renew_error(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is None:
            return
        state.registered = False
        state.send_pending_since = None
        self._publish(message.sender, state)
        self._register_with(message.sender)

    # ------------------------------------------------------------------ the service change
    def change_service(self) -> ServiceDescription:
        """Apply a change and re-register the item at every Lookup Service."""
        self.sd = self.sd.with_update(self.now)
        self.tracker.record_authoritative(self.sd, self.now)
        self.trace("service_changed", version=self.sd.version)
        self._release_copies()
        self._refresh_map.clear()
        for addr, state in list(self.registrars.items()):
            if state.registered:
                self._send_update_to(addr)
        return self.sd

    def _send_update_to(self, addr: Address) -> None:
        state = self.registrars.get(addr)
        if state is None or self._send_in_flight(state):
            return
        state.send_pending_since = self.now
        version = self.sd.version

        def _rex(_rex: RemoteException) -> None:
            # Keep the Lookup Service but remember it is stale; announcements
            # and renewal-driven SRC2 requests repair it later.
            current = self.registrars.get(addr)
            if current is not None:
                current.send_pending_since = None
            self.trace("update_rex", registrar=addr, version=version)

        self.send_tcp(addr, m.SERVICE_UPDATE, {"sd": self.sd}, on_rex=_rex)

    def handle_update_ack(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is None:
            return
        state.send_pending_since = None
        state.acked_version = max(state.acked_version, message.payload.get("version", 0))
        self._publish(message.sender, state)
        if state.acked_version < self.sd.version:
            # The service changed again while the previous update was in flight.
            self._send_update_to(message.sender)

    def handle_update_request(self, message: Message) -> None:
        """SRC2 from the Lookup Service: it noticed it missed an update."""
        state = self.registrars.setdefault(message.sender, RegistrarState())
        state.registered = True
        self._publish(message.sender, state)
        self._send_update_to(message.sender)
