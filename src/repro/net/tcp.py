"""TCP transport model (Table 3).

UPnP and Jini send their unicast messages over TCP and rely on its recovery
behaviour.  The model reproduces the failure response described in Table 3 of
the paper:

* **Connection set-up** - the initial attempt plus 4 retransmission attempts
  spaced 6 s, 24 s, 24 s and 24 s apart.  If none succeeds, a *Remote
  Exception* (REX) is raised to the service-discovery layer, which then
  abandons the operation.
* **Data transfer** - once connected, the application message is
  retransmitted until success; the retransmission time-out starts at the
  round-trip time and grows by 25 % on each retry.

A severed link (partition scenarios) behaves like a dead path: connection
set-up runs its retry schedule into a REX, and an already-established
transfer keeps retransmitting until the link heals.

Transport segments (SYN, SYN-ACK, data retransmissions, acknowledgements) are
recorded as :attr:`~repro.net.messages.MessageLayer.TRANSPORT` sends so that
they can be reported separately; the paper's efficiency metrics for UPnP/Jini
"do not take into account the messages used by the transmission layers".
Segments are send records, not :class:`~repro.net.messages.Message` objects:
SYN and SYN-ACK travel the network's field-based unicast core (which draws
their delays and counts them as ignored at a protocol node), while ACKs and
data retransmissions are only recorded.  A message that connects at its
first attempt costs two posted events, four send records (SYN, SYN-ACK, the
message, ACK), four delay draws (SYN, SYN-ACK, round trip, data) and three
segment ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.net.messages import Message, MessageLayer
from repro.net.network import MAX_DELAY, MIN_DELAY, Network

#: Bound once: looking an enum member up on its class is slow, and every
#: segment needs it.
_TRANSPORT = MessageLayer.TRANSPORT

#: Delays between connection set-up attempts, in seconds.
CONNECTION_RETRY_DELAYS: Tuple[float, ...] = (6.0, 24.0, 24.0, 24.0)
#: Multiplicative growth of the data-retransmission time-out per retry; the
#: first time-out is one round-trip time.
DATA_BACKOFF_FACTOR = 1.25
#: Safety bound on data retransmissions (the paper retransmits until success).
MAX_DATA_RETRIES = 500


@dataclass(frozen=True)
class RemoteException:
    """Signal delivered to the discovery layer when a TCP operation fails."""

    message: Message
    reason: str
    time: float


class _TcpExchange:
    """State machine for one application message sent over TCP.

    Its four steps are the callbacks the simulator posts:
    :meth:`_attempt_connection` (SYN and SYN-ACK), :meth:`_start_data_transfer`,
    :meth:`_attempt_data` (the data segment and its ACK) and :meth:`_deliver`.
    Endpoint, interface and link state are read from the network directly.
    """

    __slots__ = (
        "network",
        "sim",
        "message",
        "on_delivered",
        "on_rex",
        "setup_attempt",
        "data_attempt",
        "finished",
    )

    def __init__(
        self,
        network: Network,
        message: Message,
        on_delivered: Optional[Callable[[Message], None]],
        on_rex: Optional[Callable[[RemoteException], None]],
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.message = message
        self.on_delivered = on_delivered
        self.on_rex = on_rex
        self.setup_attempt = 0
        self.data_attempt = 0
        self.finished = False

    # --------------------------------------------------------------- connection
    def _attempt_connection(self) -> None:
        if self.finished:
            return
        self.setup_attempt += 1
        network = self.network
        message = self.message
        src = message.sender
        dst = message.receiver
        protocol = message.protocol
        unicast = network._unicast
        msg_ids = network.msg_ids
        cuts = network._cut_links
        endpoints = network._endpoints
        dst_ep = endpoints.get(dst)
        # The SYN must leave the transmitter over an intact link to a peer
        # that can hear it and answer; a loss window drops the segments'
        # deliveries but does not decide the handshake.
        connected = False
        if (
            unicast(src, dst, protocol, "tcp_syn", _TRANSPORT, False, next(msg_ids), None, None)
            and not (cuts and frozenset((src, dst)) in cuts)
            and dst_ep is not None
            and dst_ep.interface.rx_up
            and dst_ep.interface.tx_up
        ):
            unicast(dst, src, protocol, "tcp_synack", _TRANSPORT, False, next(msg_ids), None, None)
            connected = endpoints[src].interface.rx_up
        rtt = 2.0 * (MIN_DELAY + (MAX_DELAY - MIN_DELAY) * network._rand())
        if connected:
            self.sim.post(rtt, self._start_data_transfer)
            return
        if self.setup_attempt > len(CONNECTION_RETRY_DELAYS):
            self._fail("connection_setup_failed")
            return
        delay = CONNECTION_RETRY_DELAYS[self.setup_attempt - 1]
        self.sim.post(delay, self._attempt_connection)

    # --------------------------------------------------------------- data phase
    def _start_data_transfer(self) -> None:
        if self.finished:
            return
        # The application-layer message is accounted exactly once, when the
        # established connection first carries it.
        message = self.message
        self.network.record_send(
            message.sender,
            message.receiver,
            message.protocol,
            message.kind,
            message.layer,
            message.update_related,
            False,
            1,
            message.msg_id,
        )
        self._attempt_data(first=True)

    def _attempt_data(self, first: bool = False) -> None:
        if self.finished:
            return
        self.data_attempt += 1
        network = self.network
        message = self.message
        src = message.sender
        dst = message.receiver
        protocol = message.protocol
        msg_ids = network.msg_ids
        record = network.record_send
        if not first:
            record(
                src,
                dst,
                protocol,
                "tcp_data_retransmit",
                _TRANSPORT,
                False,
                False,
                1,
                next(msg_ids),
            )
        delay = MIN_DELAY + (MAX_DELAY - MIN_DELAY) * network._rand()
        cuts = network._cut_links
        endpoints = network._endpoints
        src_ep = endpoints.get(src)
        dst_ep = endpoints.get(dst)
        # The segment and its ACK get through over an intact link between
        # two ends that can both send and receive.
        if (
            not (cuts and frozenset((src, dst)) in cuts)
            and src_ep is not None
            and dst_ep is not None
            and src_ep.interface.tx_up
            and dst_ep.interface.rx_up
            and dst_ep.interface.tx_up
            and src_ep.interface.rx_up
        ):
            record(dst, src, protocol, "tcp_ack", _TRANSPORT, False, False, 1, next(msg_ids))
            self.sim.post(delay, self._deliver)
            return
        if self.data_attempt >= MAX_DATA_RETRIES:
            self._fail("data_transfer_aborted")
            return
        rto = self._current_rto()
        self.sim.post(rto, self._attempt_data)

    def _current_rto(self) -> float:
        base = 2.0 * self.network.transmission_delay()
        return base * (DATA_BACKOFF_FACTOR ** max(0, self.data_attempt - 1))

    def _deliver(self) -> None:
        if self.finished:
            return
        self.finished = True
        message = self.message
        endpoint = self.network._endpoints.get(message.receiver)
        if endpoint is not None and endpoint.deliver(message):
            if self.on_delivered is not None:
                self.on_delivered(message)
        elif self.on_rex is not None:
            # The receiver vanished between the acknowledgement and delivery
            # (possible only at microsecond granularity); treat as a REX.
            self.on_rex(RemoteException(message, "receiver_unreachable", self.sim.now))

    def _fail(self, reason: str) -> None:
        if self.finished:
            return
        self.finished = True
        self.sim.trace(
            "tcp",
            "rex",
            sender=self.message.sender,
            receiver=self.message.receiver,
            kind=self.message.kind,
            reason=reason,
        )
        if self.on_rex is not None:
            self.on_rex(RemoteException(self.message, reason, self.sim.now))


def send(
    network: Network,
    message: Message,
    on_delivered: Optional[Callable[[Message], None]],
    on_rex: Optional[Callable[[RemoteException], None]],
) -> None:
    """Send ``message`` reliably over ``network``; exactly one of the callbacks eventually fires.

    ``on_delivered`` is invoked at the simulation time the receiver's
    discovery layer gets the message; ``on_rex`` is invoked when TCP gives
    up (connection set-up failed after the retry schedule).  Either may be
    ``None``.
    """
    _TcpExchange(network, message, on_delivered, on_rex)._attempt_connection()
