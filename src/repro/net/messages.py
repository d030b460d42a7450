"""Message record passed between nodes.

Messages carry a protocol-specific ``kind`` string plus an arbitrary payload
mapping.  Two flags drive the paper's message accounting:

* ``layer`` distinguishes service-discovery-layer messages from transport
  overhead (TCP segments, acknowledgements).  Table 2 and the Efficiency
  Degradation metric of the paper count only discovery-layer messages for
  UPnP and Jini ("the ... models do not take into account the messages used
  by the transmission layers").
* ``update_related`` marks messages that are part of propagating a changed
  service description; these are the messages counted as *y* in the Update
  Efficiency / Efficiency Degradation metrics.

:class:`Message` is a ``__slots__`` class on the simulation hot path: a
large-N run allocates one per delivery attempt, so it avoids a ``__dict__``
and shares a single immutable empty mapping for the (very common) payloadless
message.

Message ids are normally drawn from the run-scoped counter owned by
:class:`~repro.net.network.Network` (``network.msg_ids``) so that ids are
deterministic per run; the module-level fallback counter exists only for
messages constructed without a network at hand (tests).
"""

from __future__ import annotations

import itertools
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping, Optional

from repro.net.addressing import Address, MULTICAST_GROUP

#: Process-wide fallback id source; run paths use ``Network.msg_ids`` instead.
_MSG_COUNTER = itertools.count(1)

#: Shared read-only payload for messages that carry no content.  Payloads are
#: never mutated after construction, so one instance can back them all.
EMPTY_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class MessageLayer(str, Enum):
    """Which layer a message belongs to for accounting purposes."""

    DISCOVERY = "discovery"
    TRANSPORT = "transport"


class Message:
    """A single protocol message.

    Attributes
    ----------
    sender / receiver:
        Node addresses.  ``receiver`` is :data:`MULTICAST_GROUP` for
        multicast messages.
    protocol:
        Short protocol tag (``"frodo"``, ``"jini"``, ``"upnp"``).
    kind:
        Protocol-specific message type, e.g. ``"service_update"``.
    payload:
        Arbitrary content (service descriptions, lease durations, ...).
        Treat as read-only; payloadless messages share :data:`EMPTY_PAYLOAD`.
    update_related:
        Counted towards *y* in the efficiency metrics when sent at or after
        the service-change time.
    layer:
        Discovery-layer vs transport-layer message (see module docstring).
    size_bytes:
        Nominal size; only used for reporting, not for timing.
    msg_id:
        Unique id; pass one drawn from ``network.msg_ids`` for run-scoped
        determinism (the fallback counter is process-wide).
    """

    __slots__ = (
        "sender",
        "receiver",
        "protocol",
        "kind",
        "payload",
        "update_related",
        "layer",
        "size_bytes",
        "msg_id",
    )

    def __init__(
        self,
        sender: Address,
        receiver: Address,
        protocol: str,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
        update_related: bool = False,
        layer: MessageLayer = MessageLayer.DISCOVERY,
        size_bytes: int = 256,
        msg_id: Optional[int] = None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.protocol = protocol
        self.kind = kind
        self.payload = EMPTY_PAYLOAD if payload is None else payload
        self.update_related = update_related
        self.layer = layer
        self.size_bytes = size_bytes
        self.msg_id = next(_MSG_COUNTER) if msg_id is None else msg_id

    @property
    def is_multicast(self) -> bool:
        """``True`` when addressed to the multicast group."""
        return self.receiver == MULTICAST_GROUP

    def describe(self) -> str:
        """Short human-readable summary used in traces and logs."""
        target = "multicast" if self.is_multicast else self.receiver
        return f"{self.protocol}.{self.kind} {self.sender} -> {target}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Message({self.describe()}, id={self.msg_id})"
