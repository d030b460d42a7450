"""Message accounting: one counter of logical sends.

The Update Efficiency and Efficiency Degradation metrics need, per run, the
number of update-related discovery-layer messages sent at or after the
service-change time (*y* in the paper).  :class:`MessageStats` counts every
logical send into two dicts, and every send figure a run reports is a read
of them: y and its per-kind and per-registry splits, the discovery and
transport totals, and the ``net`` send telemetry.
"""

from __future__ import annotations

from collections import Counter
from math import inf
from typing import Dict, Tuple

from repro.net.addressing import Address
from repro.net.messages import MessageLayer

#: The key of :attr:`MessageStats.sends`: (protocol, kind, layer,
#: update_related, multicast).
SendKey = Tuple[str, str, MessageLayer, bool, bool]
#: The key of :attr:`MessageStats.windowed`: (sender, protocol, kind).
WindowKey = Tuple[Address, str, str]


class MessageStats:
    """Counts the logical sends made on a :class:`~repro.net.network.Network`.

    A logical send is a unicast that left its transmitter or a multicast
    announcement, which counts once however many redundant copies it has.
    :attr:`sends` counts every one of them; :attr:`windowed` counts the
    ones y counts: update-related, on the discovery layer, and sent at or
    after :attr:`window_start`.
    """

    def __init__(self) -> None:
        #: Logical sends by :data:`SendKey`.
        self.sends: Dict[SendKey, int] = {}
        #: Physical copies the logical sends announce, multicast redundancy
        #: included.
        self.copies = 0
        #: Start of y's window: the run's last service change (``inf``, the
        #: default, counts nothing).
        self.window_start = inf
        #: Update-related discovery-layer sends at or after
        #: :attr:`window_start`, by :data:`WindowKey`.
        self.windowed: Dict[WindowKey, int] = {}

    def record(
        self,
        time: float,
        sender: Address,
        protocol: str,
        kind: str,
        layer: MessageLayer,
        update_related: bool,
        multicast: bool,
        copies: int,
    ) -> None:
        """Count one logical send made at ``time`` with ``copies`` physical copies."""
        key = (protocol, kind, layer, update_related, multicast)
        sends = self.sends
        sends[key] = sends.get(key, 0) + 1
        self.copies += copies
        if update_related and time >= self.window_start and layer is MessageLayer.DISCOVERY:
            window_key = (sender, protocol, kind)
            windowed = self.windowed
            windowed[window_key] = windowed.get(window_key, 0) + 1

    def counts_by_layer(self) -> Dict[str, int]:
        """Logical sends per accounting layer, in layer order."""
        counts: Counter = Counter()
        for (_protocol, _kind, layer, _update, _multicast), count in self.sends.items():
            counts[layer.value] += count
        return dict(sorted(counts.items()))

    def update_counts_by_kind(self) -> Dict[str, int]:
        """y split by ``protocol.kind``, in key order."""
        counts: Counter = Counter()
        for (_sender, protocol, kind), count in self.windowed.items():
            counts[f"{protocol}.{kind}"] += count
        return dict(sorted(counts.items()))
