"""Base machinery for protocol nodes.

Every FRODO / Jini / UPnP entity (User, Manager, Registry) derives from
:class:`DiscoveryNode`, which ties together:

* an :class:`~repro.net.interfaces.Endpoint` on the shared network,
* sending: UDP datagrams and multicasts go straight to
  :meth:`Network.transmit_unicast <repro.net.network.Network.transmit_unicast>`
  and :meth:`~repro.net.network.Network.transmit_multicast` (with the class's
  :attr:`~DiscoveryNode.multicast_copies`), and TCP messages to
  :func:`repro.net.tcp.send`,
* message dispatch: an incoming message of kind ``"foo_bar"`` is routed to
  the method ``handle_foo_bar(message)`` if it exists, through a handler
  table the node's endpoint reads on every delivery,
* trace helpers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.net import tcp
from repro.net.addressing import Address, MULTICAST_GROUP
from repro.net.interfaces import Endpoint
from repro.net.messages import Message, MessageLayer
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import Process


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
    #: The message kinds that count toward *y*: each protocol node class sets
    #: its ``messages.UPDATE_RELATED_KINDS`` here, next to :attr:`protocol`.
    update_related_kinds: FrozenSet[str] = frozenset()
    #: Copies per multicast (Table 3): FRODO sends each one once; the Jini and
    #: UPnP node classes set their ``messages.MULTICAST_COPIES`` (6) here.
    multicast_copies: int = 1

    def __init__(self, sim: Simulator, network: Network, node_id: Address) -> None:
        super().__init__(sim, node_id)
        self.network = network
        self.node_id = node_id
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

        Whether it counts toward *y* follows from its kind alone: membership
        in the class's :attr:`update_related_kinds` is the one tagging rule,
        with no per-send override.
        """
        # Positional: every protocol send builds one (the layer keeps its
        # default).
        return Message(
            self.node_id,
            receiver,
            self.protocol,
            kind,
            None if payload is None else dict(payload),
            kind in self.update_related_kinds,
            MessageLayer.DISCOVERY,
            next(self.network.msg_ids),
        )

    def send_udp(
        self,
        receiver: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Send a unicast UDP datagram; returns the message object.

        Table 3: a datagram lost to an interface outage is discarded
        silently, and the sender is not told.
        """
        message = self.make_message(receiver, kind, payload)
        self.network.transmit_unicast(message)
        return message

    def send_tcp(
        self,
        receiver: Address,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        on_delivered: Optional[Callable[[Message], None]] = None,
        on_rex: Optional[Callable[[tcp.RemoteException], None]] = None,
    ) -> Message:
        """Send a message over reliable TCP; returns the message object.

        Exactly one of ``on_delivered`` and ``on_rex`` eventually fires (see
        :func:`repro.net.tcp.send`).
        """
        message = self.make_message(receiver, kind, payload)
        tcp.send(self.network, message, on_delivered, on_rex)
        return message

    def send_multicast(
        self,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        copies: Optional[int] = None,
    ) -> Message:
        """Multicast a message to every other node; returns the message object.

        It goes out as :attr:`multicast_copies` copies unless ``copies``
        overrides that for this one message (FRODO's Registry announcements
        are sent twice while its other multicasts are sent once).
        """
        message = self.make_message(MULTICAST_GROUP, kind, payload)
        self.network.transmit_multicast(
            message, self.multicast_copies if copies is None else copies
        )
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

        Multicast copies and UDP datagrams of kinds outside
        :meth:`accepted_kinds` are counted by the network instead of
        delivered; that includes TCP's SYN and SYN-ACK, which travel as
        field-only segments and become messages only at an endpoint that
        accepts every kind.  So only TCP data can reach it from a node:
        no node sends a unicast with a delivery callback.
        """
        if self.sim.tracer.enabled:
            self.trace("unhandled_message", kind=message.kind, sender=message.sender)

    def stop(self) -> None:
        """Stop the node; later deliveries take the miss path, which drops them."""
        super().stop()
        self._handlers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.node_id}>"
