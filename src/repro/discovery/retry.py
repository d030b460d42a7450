"""Acknowledgement/retransmission helper (SRN1 / SRC1 building block).

FRODO implements its own acknowledgements and retransmissions for selected
messages at the service-discovery layer (it does not rely on TCP).  The
:class:`AckRetryScheduler` keeps one retry state machine per outstanding
exchange: the owner supplies a *send* callable, an acknowledgement time-out
and a retry limit; the scheduler resends until the exchange is acknowledged,
the limit is reached, or the exchange is cancelled (e.g. the subscription
expired or the service changed again).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


@dataclass
class _PendingExchange:
    """Book-keeping for one unacknowledged message."""

    key: Hashable
    send: Callable[[int], None]
    attempts: int = 0
    max_retries: int = 3
    timeout: float = 2.0
    on_give_up: Optional[Callable[[Hashable], None]] = None
    timer: Optional[Event] = None
    done: bool = False


class AckRetryScheduler:
    """Tracks outstanding acknowledged exchanges for one node."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._pending: Dict[Hashable, _PendingExchange] = {}

    def start(
        self,
        key: Hashable,
        send: Callable[[int], None],
        timeout: float,
        max_retries: int,
        on_give_up: Optional[Callable[[Hashable], None]] = None,
    ) -> None:
        """Begin (or restart) an acknowledged exchange.

        ``send(attempt)`` is called immediately with ``attempt=0`` and again on
        every retransmission with the attempt number; ``on_give_up(key)`` is
        called when the retry limit is exhausted.  ``max_retries`` counts
        retransmissions *after* the initial transmission; a negative value
        means "retransmit indefinitely" (SRC1's unbounded persistence).
        """
        self.cancel(key)
        exchange = _PendingExchange(
            key=key,
            send=send,
            max_retries=max_retries,
            timeout=timeout,
            on_give_up=on_give_up,
        )
        self._pending[key] = exchange
        self._transmit(exchange)

    def acknowledge(self, key: Hashable) -> bool:
        """Mark the exchange as acknowledged; returns ``True`` if it was pending."""
        exchange = self._pending.pop(key, None)
        if exchange is None:
            return False
        exchange.done = True
        if exchange.timer is not None:
            self._sim.cancel(exchange.timer)
            # The timer's event holds the exchange in its args; dropping the
            # event breaks that cycle, so the exchange dies by refcount.
            exchange.timer = None
        return True

    def cancel(self, key: Hashable) -> bool:
        """Abandon an exchange without invoking the give-up callback."""
        return self.acknowledge(key)

    def cancel_all(self) -> None:
        """Abandon every outstanding exchange."""
        for key in list(self._pending.keys()):
            self.cancel(key)

    # ------------------------------------------------------------------ internals
    def _transmit(self, exchange: _PendingExchange) -> None:
        if exchange.done:
            return
        exchange.send(exchange.attempts)
        exchange.attempts += 1
        exchange.timer = self._sim.schedule(exchange.timeout, self._on_timeout, exchange)

    def _on_timeout(self, exchange: _PendingExchange) -> None:
        exchange.timer = None  # spent; see acknowledge()
        if exchange.done or exchange.key not in self._pending:
            return
        unlimited = exchange.max_retries < 0
        if unlimited or exchange.attempts <= exchange.max_retries:
            self._transmit(exchange)
            return
        self._pending.pop(exchange.key, None)
        exchange.done = True
        if exchange.on_give_up is not None:
            exchange.on_give_up(exchange.key)
