"""Multicast (announce/listen) transport model.

All three protocols use unreliable multicast for announcements and queries.
UPnP and Jini transmit every multicast message redundantly (6 copies,
Table 3); FRODO transmits a single copy because redundancy "does not fit the
resource-aware context".
"""

from __future__ import annotations

from repro.net.messages import Message
from repro.net.network import Network

#: FRODO transmits multicast messages once (resource-aware, Table 3).
FRODO_MULTICAST_COPIES = 1
#: UPnP and Jini transmit every multicast message 6 times (Table 3).
REDUNDANT_MULTICAST_COPIES = 6


class MulticastService:
    """Sends multicast messages with a configurable redundancy factor."""

    def __init__(self, network: Network, redundancy: int = 1) -> None:
        if redundancy < 1:
            raise ValueError("redundancy must be >= 1")
        self.network = network
        self.redundancy = redundancy

    def announce(self, message: Message, copies: int | None = None) -> bool:
        """Multicast ``message`` (with redundant copies) to every other node.

        ``copies`` overrides the service-wide redundancy for this one message
        (e.g. FRODO's Registry announcements are sent twice while its other
        multicasts are sent once).  :meth:`Network.transmit_multicast
        <repro.net.network.Network.transmit_multicast>` checks the address
        and the copy count.
        """
        return self.network.transmit_multicast(
            message, copies=self.redundancy if copies is None else copies
        )
