"""Message accounting.

The Update Efficiency and Efficiency Degradation metrics need, per run, the
total number of update-related discovery-layer messages sent at or after the
service-change time (*y* in the paper).  :class:`MessageStats` records every
transmission attempt with its time, kind, layer and flags, and provides the
aggregation queries used by :mod:`repro.core.metrics`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.net.messages import MessageLayer


class SentMessage:
    """A single recorded transmission attempt.

    A ``__slots__`` class (not a dataclass): one is allocated per
    transmission attempt, which makes it hot-path state at large N.
    """

    __slots__ = (
        "time",
        "sender",
        "receiver",
        "protocol",
        "kind",
        "layer",
        "update_related",
        "multicast",
        "copies",
    )

    def __init__(
        self,
        time: float,
        sender: str,
        receiver: str,
        protocol: str,
        kind: str,
        layer: MessageLayer,
        update_related: bool,
        multicast: bool,
        copies: int = 1,
    ) -> None:
        self.time = time
        self.sender = sender
        self.receiver = receiver
        self.protocol = protocol
        self.kind = kind
        self.layer = layer
        self.update_related = update_related
        self.multicast = multicast
        self.copies = copies

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SentMessage(t={self.time:g}, {self.protocol}.{self.kind} "
            f"{self.sender} -> {self.receiver}, copies={self.copies})"
        )


class MessageStats:
    """Accumulates every transmission attempt made on a :class:`~repro.net.network.Network`.

    The unfiltered aggregates (``total_sent()`` / ``update_messages()``
    without a ``since`` bound) are maintained *incrementally* at record time,
    so the hot aggregate queries are O(1) instead of rescanning the full
    send list; only time-windowed queries walk the list.
    """

    def __init__(self) -> None:
        self._sent: List[SentMessage] = []
        # Incremental aggregates, updated once per record.
        self._copies_total = 0
        self._multicast_total = 0
        self._by_layer: Dict[MessageLayer, int] = {}
        self._update_discovery = 0  # update-related, discovery layer only

    def __len__(self) -> int:
        return len(self._sent)

    @property
    def sent(self) -> List[SentMessage]:
        """All recorded transmissions in send order."""
        return self._sent

    @property
    def total_copies(self) -> int:
        """Physical copies sent, multicast redundancy included (O(1))."""
        return self._copies_total

    @property
    def multicast_sends(self) -> int:
        """Logical multicast announcements recorded (O(1))."""
        return self._multicast_total

    def counts_by_layer(self) -> Dict[str, int]:
        """Logical send counts per accounting layer (O(1); telemetry)."""
        return {layer.value: count for layer, count in sorted(self._by_layer.items())}

    def record(
        self,
        time: float,
        sender: str,
        receiver: str,
        protocol: str,
        kind: str,
        layer: MessageLayer,
        update_related: bool,
        multicast: bool,
        copies: int,
    ) -> None:
        """Record a transmission attempt (``copies`` > 1 for redundant multicast).

        Takes fields, not a message: TCP segments are recorded without a
        :class:`~repro.net.messages.Message` ever being built.
        """
        self._sent.append(
            SentMessage(
                time, sender, receiver, protocol, kind, layer, update_related, multicast, copies
            )
        )
        self._copies_total += copies
        if multicast:
            self._multicast_total += 1
        by_layer = self._by_layer
        by_layer[layer] = by_layer.get(layer, 0) + 1
        if update_related and layer == MessageLayer.DISCOVERY:
            self._update_discovery += 1

    # ------------------------------------------------------------------ queries
    def total_sent(
        self, layer: Optional[MessageLayer] = None, since: Optional[float] = None
    ) -> int:
        """Total transmissions, optionally restricted by layer and start time.

        A logical multicast counts once (:attr:`total_copies` counts its
        copies).  Unwindowed queries (``since is None``) are answered from
        the incremental counters in O(1); a ``since`` bound falls back to
        the list scan.
        """
        if since is None:
            if layer is None:
                return len(self._sent)
            return self._by_layer.get(layer, 0)
        total = 0
        for rec in self._sent:
            if layer is not None and rec.layer != layer:
                continue
            if rec.time < since:
                continue
            total += 1
        return total

    def update_messages(self, since: Optional[float] = None) -> int:
        """Number of update-related discovery-layer messages (*y* in the efficiency metrics).

        O(1) when unwindowed (``since is None``); the change-time-windowed
        form used by the metrics scans the list.
        """
        if since is None:
            return self._update_discovery
        total = 0
        for rec in self._sent:
            if not rec.update_related:
                continue
            if rec.layer != MessageLayer.DISCOVERY:
                continue
            if rec.time < since:
                continue
            total += 1
        return total

    def counts_by_kind(
        self,
        layer: Optional[MessageLayer] = None,
        since: Optional[float] = None,
        update_related: Optional[bool] = None,
    ) -> Dict[str, int]:
        """Histogram of message kinds (``protocol.kind`` keys).

        ``update_related`` restricts the histogram to messages with (``True``)
        or without (``False``) the accounting flag; ``None`` counts both.
        """
        counter: Counter = Counter()
        for rec in self._sent:
            if layer is not None and rec.layer != layer:
                continue
            if since is not None and rec.time < since:
                continue
            if update_related is not None and rec.update_related != update_related:
                continue
            counter[f"{rec.protocol}.{rec.kind}"] += 1
        return dict(counter)

    def transport_overhead(self, since: Optional[float] = None) -> int:
        """Number of transport-layer messages (TCP segments and acknowledgements)."""
        return self.total_sent(layer=MessageLayer.TRANSPORT, since=since)
