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

In a push-mode federation the provider is *multi-homed* (``home`` is
``None``): it registers with every discovered registry and pushes its update
to each of them itself — the paper's replicated model.  In pull/gossip mode
it is *single-homed*: it registers with its home registry only, ignores
announcements from every other registry, and the federation propagates the
update from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode, NodeRole, Transports
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


class JiniServiceProvider(DiscoveryNode):
    """A Jini service provider hosting one service item, optionally pinned
    to one home registry."""

    protocol = m.PROTOCOL

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        transports: Transports,
        config: JiniConfig,
        sd: ServiceDescription,
        tracker: Optional[ConsistencyTracker] = None,
        home: Optional[Address] = None,
    ) -> None:
        super().__init__(sim, network, node_id, NodeRole.MANAGER, transports)
        self.config = config.validate()
        self.sd = sd
        self.tracker = tracker
        #: ``None`` = multi-homed (push mode).
        self.home = home
        self.registrars: Dict[Address, RegistrarState] = {}

        self._discovery_timer = PeriodicTimer(sim, config.discovery_interval, self._discovery_tick)
        self._renew_timer = PeriodicTimer(sim, config.renewal_interval, self._renew_tick)

    # ------------------------------------------------------------------ properties
    @property
    def service_id(self) -> str:
        """Identifier of the hosted service."""
        return self.sd.service_id

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        if self.tracker is not None:
            self.tracker.record_authoritative(self.sd, self.now)
        self._discovery_tick()
        self._discovery_timer.start()
        self._renew_timer.start()

    def on_stop(self) -> None:
        self._discovery_timer.stop()
        self._renew_timer.stop()

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
        if self.registrars.pop(addr, None) is not None:
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

    def handle_register_renew_error(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is None:
            return
        state.registered = False
        state.send_pending_since = None
        self._register_with(message.sender)

    # ------------------------------------------------------------------ the service change
    def change_service(
        self,
        attributes: Optional[dict] = None,
        service_type: Optional[str] = None,
    ) -> ServiceDescription:
        """Apply a change and re-register the item at every Lookup Service."""
        self.sd = self.sd.with_update(
            service_type=service_type, attributes=attributes or {"changed_at": self.now}
        )
        if self.tracker is not None:
            self.tracker.record_authoritative(self.sd, self.now)
        self.trace("service_changed", version=self.sd.version)
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
        if state.acked_version < self.sd.version:
            # The service changed again while the previous update was in flight.
            self._send_update_to(message.sender)

    def handle_update_request(self, message: Message) -> None:
        """SRC2 from the Lookup Service: it noticed it missed an update."""
        state = self.registrars.setdefault(message.sender, RegistrarState())
        state.registered = True
        self._send_update_to(message.sender)
