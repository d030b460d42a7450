"""Base machinery for protocol nodes.

Every FRODO / Jini / UPnP entity (User, Manager, Registry) derives from
:class:`DiscoveryNode`, which ties together:

* an :class:`~repro.net.interfaces.Endpoint` on the shared network,
* the transports the protocol uses (UDP, TCP, multicast),
* message dispatch: an incoming message of kind ``"foo_bar"`` is routed to
  the method ``handle_foo_bar(message)`` if it exists, through a handler
  table the node's endpoint reads on every delivery,
* trace helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.net.addressing import Address, MULTICAST_GROUP
from repro.net.interfaces import Endpoint
from repro.net.messages import Message, MessageLayer
from repro.net.multicast import MulticastService
from repro.net.network import Network
from repro.net.tcp import RemoteException, TcpTransport
from repro.net.udp import UdpTransport
from repro.sim.engine import Simulator
from repro.sim.process import Process


class NodeRole(str, Enum):
    """The three entity types of a service discovery protocol."""

    USER = "user"
    MANAGER = "manager"
    REGISTRY = "registry"


# ``is_update_related`` is imported lazily (repro.protocols imports this
# module via protocols.base, so a module-level import would be circular) and
# cached here after the first message so later sends skip the import machinery.
_is_update_related: Optional[Callable[[str, str], bool]] = None


@dataclass
class Transports:
    """The transports available to a protocol node."""

    udp: Optional[UdpTransport] = None
    tcp: Optional[TcpTransport] = None
    multicast: Optional[MulticastService] = None


class DiscoveryNode(Process):
    """Common base class for all protocol entities.

    The node owns its endpoint's handler table (kind -> bound
    ``handle_<kind>``), so :meth:`Endpoint.deliver
    <repro.net.interfaces.Endpoint.deliver>` calls the handler directly.
    :meth:`_on_message` is the miss path: it fills the table on a kind's
    first delivery.  :meth:`stop` empties the table, so deliveries to a
    stopped node go through the miss path, which drops them; after
    :meth:`restart` the table refills as kinds arrive.
    """

    #: Protocol tag stamped on every message this node sends ("frodo", "jini", "upnp").
    protocol: str = "generic"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: Address,
        role: NodeRole,
        transports: Transports,
    ) -> None:
        super().__init__(sim, node_id)
        self.network = network
        self.node_id = node_id
        self.role = role
        self.transports = transports
        #: kind -> bound handler, filled by :meth:`_on_message` and read by
        #: the endpoint on every delivery.
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self.endpoint = Endpoint(
            node_id,
            handler=self._on_message,
            accepts=type(self).accepted_kinds(),
            handlers=self._handlers,
        )
        network.join(self.endpoint)

    # ------------------------------------------------------------------ sending
    def make_message(
        self,
        receiver: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Construct a message originating at this node.

        Whether it counts toward *y* follows from its kind alone: the
        protocol-wide declaration in :mod:`repro.protocols.accounting` (each
        protocol's ``messages`` module registers its
        ``UPDATE_RELATED_KINDS``) is the one tagging rule, with no per-send
        override.
        """
        global _is_update_related
        if _is_update_related is None:
            from repro.protocols.accounting import is_update_related

            _is_update_related = is_update_related
        # Positional: every protocol send builds one (layer and size keep
        # their defaults).
        return Message(
            self.node_id,
            receiver,
            self.protocol,
            kind,
            None if payload is None else dict(payload),
            _is_update_related(self.protocol, kind),
            MessageLayer.DISCOVERY,
            256,
            next(self.network.msg_ids),
        )

    def send_udp(
        self,
        receiver: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Send a unicast UDP datagram; returns the message object."""
        if self.transports.udp is None:
            raise RuntimeError(f"{self.node_id}: UDP transport not configured")
        message = self.make_message(receiver, kind, payload)
        self.transports.udp.send(message)
        return message

    def send_tcp(
        self,
        receiver: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        on_delivered: Optional[Callable[[Message], None]] = None,
        on_rex: Optional[Callable[[RemoteException], None]] = None,
    ) -> Message:
        """Send a message over reliable TCP; returns the message object."""
        if self.transports.tcp is None:
            raise RuntimeError(f"{self.node_id}: TCP transport not configured")
        message = self.make_message(receiver, kind, payload)
        self.transports.tcp.send(message, on_delivered=on_delivered, on_rex=on_rex)
        return message

    def send_multicast(
        self,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        copies: Optional[int] = None,
    ) -> Message:
        """Multicast a message to every other node; returns the message object."""
        if self.transports.multicast is None:
            raise RuntimeError(f"{self.node_id}: multicast transport not configured")
        message = self.make_message(MULTICAST_GROUP, kind, payload)
        self.transports.multicast.announce(message, copies=copies)
        return message

    # ------------------------------------------------------------------ receiving
    @classmethod
    def accepted_kinds(cls) -> FrozenSet[str]:
        """The kinds this class has a ``handle_<kind>`` method for.

        Computed once per class from method names only, so wrapping a
        handler at class level keeps its kind.  The node's endpoint accepts
        exactly these kinds: multicast copies of any other kind are counted
        by the network, never delivered.
        """
        kinds = vars(cls).get("_accepted_kinds")
        if kinds is None:
            kinds = frozenset(
                name[len("handle_") :] for name in dir(cls) if name.startswith("handle_")
            )
            cls._accepted_kinds = kinds
        return kinds

    def _on_message(self, message: Message) -> None:
        """Deliver a message whose kind is not in the handler table."""
        if self.stopped:
            return
        kind = message.kind
        handler = getattr(self, f"handle_{kind}", None)
        if handler is None:
            self.on_unhandled(message)
            return
        self._handlers[kind] = handler
        handler(message)

    def on_unhandled(self, message: Message) -> None:
        """Hook for messages without a dedicated handler (ignored by default).

        Multicast copies and callback-free unicasts of kinds outside
        :meth:`accepted_kinds` are counted by the network instead of
        delivered; that includes TCP's SYN and SYN-ACK, which travel as
        field-only segments and become messages only at an endpoint that
        accepts every kind.  So only unicasts sent with a delivery callback
        and TCP data can reach it.
        """
        if self.sim.tracer.enabled:
            self.trace("unhandled_message", kind=message.kind, sender=message.sender)

    def stop(self) -> None:
        """Stop the node; later deliveries take the miss path, which drops them."""
        super().stop()
        self._handlers.clear()

    # ------------------------------------------------------------------ interface state
    @property
    def can_send(self) -> bool:
        """``True`` when this node's transmitter is up."""
        return self.endpoint.interface.can_send()

    @property
    def can_receive(self) -> bool:
        """``True`` when this node's receiver is up."""
        return self.endpoint.interface.can_receive()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.node_id} ({self.role.value})>"
