"""Node network interfaces and endpoints.

Each node owns a :class:`NetworkInterface` with independent transmitter and
receiver state.  The interface-failure model of the paper (Section 5, Step 2)
fails the transmitter, the receiver, or both for a contiguous window of the
run; while a direction is down, messages in that direction are lost silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, Optional

from repro.net.addressing import Address
from repro.net.messages import Message


@dataclass
class InterfaceCounters:
    """Per-interface message counters (sent/received/dropped)."""

    sent: int = 0
    received: int = 0
    dropped_tx: int = 0
    dropped_rx: int = 0


class NetworkInterface:
    """Transmitter/receiver pair with independent up/down state.

    Outages nest: each direction carries a *fail depth* — :meth:`fail`
    increments it, :meth:`restore` decrements it, and the direction is up iff
    its depth is zero.  Two overlapping outages on the same node therefore
    keep the direction down until the *last* one ends (a plain boolean would
    restore it the moment the first outage ended).  ``tx_up``/``rx_up``
    remain plain attributes, kept in sync by fail/restore, so the per-message
    delivery path still reads a single attribute.

    :attr:`on_rx_fail`, when set, is called after every :meth:`fail` of the
    receiver: the node uses it to put announcement copies the network
    absorbed while ``rx_up`` held back on the calendar.  Nothing is
    absorbed while the receiver is down, so :meth:`restore` and
    :meth:`reset` need no such call.
    """

    def __init__(self, address: Address) -> None:
        self.address = address
        self.tx_up = True
        self.rx_up = True
        self._tx_depth = 0
        self._rx_depth = 0
        self.counters = InterfaceCounters()
        self.on_rx_fail: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ control
    def fail(self, tx: bool = False, rx: bool = False) -> None:
        """Bring down the transmitter and/or receiver (one nesting level)."""
        if tx:
            self._tx_depth += 1
            self.tx_up = False
        if rx:
            self._rx_depth += 1
            self.rx_up = False
            if self.on_rx_fail is not None:
                self.on_rx_fail()

    def restore(self, tx: bool = False, rx: bool = False) -> None:
        """Undo one :meth:`fail` of the transmitter and/or receiver.

        A direction comes back up only when every overlapping outage that
        failed it has been restored.  Unmatched restores are clamped at depth
        zero (an already-up direction stays up).
        """
        if tx and self._tx_depth > 0:
            self._tx_depth -= 1
            self.tx_up = self._tx_depth == 0
        if rx and self._rx_depth > 0:
            self._rx_depth -= 1
            self.rx_up = self._rx_depth == 0

    def reset(self) -> None:
        """Forget all outage state (both directions up, depths zero).

        Used when a churned node rejoins the network: the rejoining node
        comes back with a fresh radio, regardless of outages that applied —
        or were skipped — while it was away.
        """
        self._tx_depth = 0
        self._rx_depth = 0
        self.tx_up = True
        self.rx_up = True

    @property
    def tx_fail_depth(self) -> int:
        """Number of unrestored outages currently failing the transmitter."""
        return self._tx_depth

    @property
    def rx_fail_depth(self) -> int:
        """Number of unrestored outages currently failing the receiver."""
        return self._rx_depth

    @property
    def node_down(self) -> bool:
        """``True`` when both directions are down (node failure)."""
        return not self.tx_up and not self.rx_up

    def can_send(self) -> bool:
        """``True`` when the transmitter is up."""
        return self.tx_up

    def can_receive(self) -> bool:
        """``True`` when the receiver is up."""
        return self.rx_up

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkInterface({self.address!r}, tx={'up' if self.tx_up else 'DOWN'},"
            f" rx={'up' if self.rx_up else 'DOWN'})"
        )


class Endpoint:
    """Binding between an address, an interface and a receive handler.

    The discovery-layer node registers itself with the :class:`~repro.net.network.Network`
    through an endpoint; the network delivers messages by calling
    :meth:`deliver`, which forwards to a handler only when the receiver
    interface is up.

    ``handlers`` maps a message kind to the callable :meth:`deliver` hands
    it to; a kind missing there goes to ``handler``.  A protocol node owns
    the table, fills it from ``handler`` on a kind's first delivery and
    clears it when it stops, so a delivery to a running node reaches its
    ``handle_<kind>`` method directly.

    ``accepts`` is the set of message kinds the handlers act on (``None``:
    every kind).  Multicast copies and callback-free unicasts of any other
    kind are counted as ignored by the network instead of being simulated
    as delivery events.  ``accepts`` is fixed once the endpoint has joined a
    network: the network caches its fan-out plans until the next join or
    leave, and keeps the endpoint's position in its join order in
    :attr:`slot` for them.

    :attr:`refresh` maps a kind to the node's *refresh map* for it: sender
    address -> record, holding exactly the senders whose copy of that kind
    the node would only note as heard (see
    :meth:`~repro.net.network.Network.settle`).  The network absorbs such
    copies into the record instead of posting them.  The node fills it
    before its first multicast after joining and mutates the maps in place:
    fan-out plans cache them.
    """

    def __init__(
        self,
        address: Address,
        handler: Optional[Callable[[Message], Any]] = None,
        interface: Optional[NetworkInterface] = None,
        accepts: Optional[AbstractSet[str]] = None,
        handlers: Optional[Dict[str, Callable[[Message], Any]]] = None,
    ) -> None:
        self.address = address
        self.interface = interface if interface is not None else NetworkInterface(address)
        self._handler = handler
        self.handlers = {} if handlers is None else handlers
        self.accepts = accepts
        self.refresh: Dict[str, Dict[Address, Any]] = {}
        #: Position in the network's join order, set by the network.
        self.slot = 0

    def deliver(self, message: Message) -> bool:
        """Deliver ``message`` to its kind's handler if the receiver is up.

        Returns ``True`` when the receiver was up.  Reads the interface
        flags directly — this runs once per delivery attempt.
        """
        interface = self.interface
        if not interface.rx_up:
            interface.counters.dropped_rx += 1
            return False
        interface.counters.received += 1
        handler = self.handlers.get(message.kind, self._handler)
        if handler is not None:
            handler(message)
        return True
