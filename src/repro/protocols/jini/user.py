"""Jini clients (the Users of the 3-party topology).

A client discovers Lookup Services (multicast discovery requests plus
announcement listening), looks the service up over TCP, adopts the service
item from the lookup response, and places a remote-event registration at
*every* known Lookup Service so that a change reaches it from whichever
Registry hears about it first (the redundancy ``jini2`` is built on).

Recovery behaviour:

* SRC2 — ``current_version`` on notify/renewal acknowledgements reveals a
  missed event; the client resynchronises with an explicit lookup.
* PR2 — a Lookup Service that raises a Remote Exception or whose
  announcements stay silent past the timeout is purged; the client
  rediscovers via periodic multicast discovery requests and announcements.
* PR3 — an ``event_renew_error`` (the Registry purged our event
  registration) triggers a fresh registration; its ack carries the current
  version, and SRC2 then pulls the missed update.

With ``assign=multi`` clients are *multi-homed* (``home`` is ``None``) as
described above.  With ``assign=partition`` each client is pinned to one
home registry and ignores every other: its lookups, event registrations and
renewals all go through its partition's registry, so an update only reaches
it once the federation has propagated the change there — exactly the
consistency cost the cross-registry metrics measure.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Optional

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode
from repro.discovery.service import ServiceDescription, ServiceQuery
from repro.net.addressing import Address
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.tcp import RemoteException
from repro.protocols.jini import messages as m
from repro.protocols.jini.config import JiniConfig
from repro.sim.engine import Simulator
from repro.sim.timers import OneShotTimer, PeriodicTimer


class ClientRegistrarState:
    """What the client knows about one Lookup Service.

    It is also the registrar record the network absorbs announcement copies
    into (see :class:`~repro.net.network.Network`): ``copy_time``,
    ``copy_seq`` and ``copy_message`` hold at most one copy received
    without an event, and ``last_heard`` is exact only once
    :meth:`Network.settle <repro.net.network.Network.settle>` has folded it.
    """

    __slots__ = ("event_registered", "last_heard", "copy_time", "copy_seq", "copy_message")

    def __init__(self, last_heard: float = 0.0) -> None:
        self.event_registered = False
        #: Simulation time anything was last heard from this Lookup Service.
        self.last_heard = last_heard
        self.copy_time = -inf
        self.copy_seq = 0
        self.copy_message: Optional[Message] = None


class JiniClient(DiscoveryNode):
    """A Jini client looking for one service, optionally pinned to one home
    registry."""

    protocol = m.PROTOCOL
    update_related_kinds = m.UPDATE_RELATED_KINDS
    multicast_copies = m.MULTICAST_COPIES

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        config: JiniConfig,
        query: ServiceQuery,
        tracker: ConsistencyTracker,
        home: Optional[Address] = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self.config = config
        self.query = query
        self.tracker = tracker
        #: ``None`` = multi-homed (``assign=multi``).
        self.home = home

        self.registrars: Dict[Address, ClientRegistrarState] = {}
        # The refresh map the network absorbs registrar announcements into:
        # exactly the registrars handle_registrar_announce refreshes in place
        # (known, inside the partition, node not stopped).  A Lookup Service
        # announces itself, so its address is the copies' sender.
        self._refresh_map: Dict[Address, ClientRegistrarState] = {}
        self.endpoint.refresh[m.REGISTRAR_ANNOUNCE] = self._refresh_map
        self.endpoint.interface.on_rx_fail = self._release_copies
        self.service_id: Optional[str] = None
        #: The service description held, ``None`` before discovery.
        self.sd: Optional[ServiceDescription] = None

        self._discovery_timer = PeriodicTimer(sim, config.discovery_interval, self._discovery_tick)
        self._renew_timer = PeriodicTimer(sim, config.renewal_interval, self._renew_tick)
        self._lookup_retry = OneShotTimer(sim, self._retry_lookup)

    # ------------------------------------------------------------------ properties
    @property
    def held_version(self) -> int:
        """The version of the service description this client holds."""
        return self.sd.version if self.sd is not None else 0

    @property
    def has_service(self) -> bool:
        """``True`` while a service description is held."""
        return self.sd is not None

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
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
        self._lookup_retry.cancel()

    # ------------------------------------------------------------------ absorbed announcement copies
    def _publish(self, addr: Address, state: ClientRegistrarState) -> None:
        if self.home is None or addr == self.home:
            self._refresh_map[addr] = state

    def _release_copies(self) -> None:
        """Put every absorbed copy that has not fired yet back on the calendar."""
        for state in self._refresh_map.values():
            self.network.release(self.endpoint, state)

    # ------------------------------------------------------------------ Lookup Service discovery
    def _discovery_tick(self) -> None:
        if self.registrars:
            return
        self.send_multicast(m.DISCOVERY_REQUEST, {"node": self.node_id, "role": "user"})

    def handle_registrar_announce(self, message: Message) -> None:
        addr = message.payload["registrar"]
        state = self.registrars.get(addr)
        if state is not None and (self.home is None or addr == self.home):
            # Most deliveries: every redundant copy of a known Lookup
            # Service's periodic announcement.  Refresh it in place.
            state.last_heard = self.sim._now
        else:
            self._learn_registrar(addr)

    def handle_registrar_here(self, message: Message) -> None:
        self._learn_registrar(message.payload["registrar"])

    def _learn_registrar(self, addr: Address) -> None:
        if self.home is not None and addr != self.home:
            return
        state = self.registrars.get(addr)
        if state is None:
            state = ClientRegistrarState(last_heard=self.now)
            self.registrars[addr] = state
            self._publish(addr, state)
            if self.has_service:
                self._register_notify(addr)
            else:
                self._lookup(addr)
        else:
            state.last_heard = self.now

    def _drop_registrar(self, addr: Address, reason: str) -> None:
        state = self.registrars.pop(addr, None)
        if state is not None:
            # A copy still in flight now reaches _learn_registrar.
            self._refresh_map.pop(addr, None)
            self.network.release(self.endpoint, state)
            self.trace("registrar_purged", registrar=addr, reason=reason)
        if not self.registrars:
            # PR2: rediscover through multicast requests and announcements.
            self._discovery_tick()

    # ------------------------------------------------------------------ lookup
    def _lookup(self, addr: Address) -> None:
        def _rex(_rex: RemoteException) -> None:
            self._drop_registrar(addr, reason="lookup_rex")

        self.send_tcp(
            addr,
            m.LOOKUP,
            {
                "device_type": self.query.device_type,
                "service_type": self.query.service_type,
                "attributes": dict(self.query.attributes),
            },
            on_rex=_rex,
        )

    def _retry_lookup(self) -> None:
        if self.has_service or not self.registrars:
            return
        self._lookup(next(iter(self.registrars)))

    def handle_lookup_response(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is not None:
            state.last_heard = self.now
        matches = [
            sd for sd in message.payload.get("sds", []) if sd is not None and self.query.matches(sd)
        ]
        if matches:
            self._adopt_sd(max(matches, key=lambda sd: sd.version))
        elif not self.has_service:
            self._lookup_retry.start(self.config.lookup_retry_interval)

    # ------------------------------------------------------------------ adopting a service description
    def _adopt_sd(self, sd: ServiceDescription) -> None:
        if self.has_service and sd.version < self.held_version:
            return
        self.service_id = sd.service_id
        self.sd = sd
        self.tracker.record_view(self.node_id, sd.version, self.now)
        self._lookup_retry.cancel()
        for addr, state in list(self.registrars.items()):
            if not state.event_registered:
                self._register_notify(addr)

    # ------------------------------------------------------------------ remote-event registrations
    def _register_notify(self, addr: Address) -> None:
        if self.service_id is None:
            return

        def _rex(_rex: RemoteException) -> None:
            self._drop_registrar(addr, reason="notify_rex")

        self.send_tcp(
            addr,
            m.NOTIFY_REQUEST,
            {"service_id": self.service_id, "held_version": self.held_version},
            on_rex=_rex,
        )

    def handle_notify_ack(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is None:
            state = ClientRegistrarState()
            self.registrars[message.sender] = state
            self._publish(message.sender, state)
        state.event_registered = True
        state.last_heard = self.now
        self._maybe_resync(message.sender, message.payload.get("current_version", 0))

    def handle_remote_event(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is not None:
            state.last_heard = self.now
        sd: ServiceDescription = message.payload["sd"]
        if self.query.matches(sd):
            self._adopt_sd(sd)

    # ------------------------------------------------------------------ lease renewals / PR2 watchdog
    def _renew_tick(self) -> None:
        now = self.now
        settle = self.network.settle
        for addr, state in list(self.registrars.items()):
            settle(state)
            if now - state.last_heard > self.config.registry_silence_timeout:
                # PR2: the Lookup Service has been silent for too long.
                self._drop_registrar(addr, reason="announcement_silence")
                continue
            if state.event_registered and self.service_id is not None:

                def _rex(_rex: RemoteException, addr: Address = addr) -> None:
                    self._drop_registrar(addr, reason="renew_rex")

                self.send_tcp(
                    addr,
                    m.EVENT_RENEW,
                    {"service_id": self.service_id, "held_version": self.held_version},
                    on_rex=_rex,
                )
            elif self.has_service and not state.event_registered:
                self._register_notify(addr)
        if not self.has_service and self.registrars and not self._lookup_retry.armed:
            self._retry_lookup()

    def handle_event_renew_ack(self, message: Message) -> None:
        state = self.registrars.get(message.sender)
        if state is not None:
            state.last_heard = self.now
        self._maybe_resync(message.sender, message.payload.get("current_version"))

    def handle_event_renew_error(self, message: Message) -> None:
        # PR3: the Registry purged our event registration; re-register (the
        # notify ack's current_version then drives the SRC2 resync lookup).
        state = self.registrars.get(message.sender)
        if state is not None:
            state.event_registered = False
            state.last_heard = self.now
        self._register_notify(message.sender)

    def _maybe_resync(self, addr: Address, current_version: Optional[int]) -> None:
        """SRC2: pull a missed update when the Registry holds a newer version."""
        if not self.config.enable_src2 or current_version is None:
            return
        if current_version > self.held_version:
            self._lookup(addr)
