"""The TCP exchange against a reference model built from segment messages.

``ReferenceExchange`` is the Message-based exchange the simulator used
before segments became field-only send records: it builds a ``Message`` for
every SYN, SYN-ACK, ACK and data retransmission and sends SYN and SYN-ACK
through :meth:`Network.transmit_unicast`.  Each scripted case drives it and
:class:`TcpTransport` on two identically seeded networks (tracing off) and
requires the same send records, id and delay streams, interface and wire
counters, engine sequence and outcome on both sides.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

import pytest

from repro.net.interfaces import Endpoint
from repro.net.messages import Message, MessageLayer
from repro.net.network import Network
from repro.net.tcp import (
    CONNECTION_RETRY_DELAYS,
    DATA_BACKOFF_FACTOR,
    MAX_DATA_RETRIES,
    RemoteException,
    TcpTransport,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

SEED = 2024
ADDRESSES = ("node-a", "node-b", "node-c")
#: What a protocol node's endpoint accepts: its handler kinds, never segments.
NODE_ACCEPTS = frozenset({"ping"})


# --------------------------------------------------------------------------- reference model
def _interfaces_up(network, sender, receiver):
    src = network._endpoints.get(sender)
    dst = network._endpoints.get(receiver)
    if src is None or dst is None:
        return False
    return src.interface.can_send() and dst.interface.can_receive()


def _record(network, message):
    network.stats.record(
        network.sim.now,
        message.sender,
        message.receiver,
        message.protocol,
        message.kind,
        message.layer,
        message.update_related,
        message.is_multicast,
        1,
    )


class ReferenceExchange:
    """State machine for one application message sent over TCP (segment messages)."""

    def __init__(self, network, message, on_delivered, on_rex):
        self.network = network
        self.sim = network.sim
        self.message = message
        self.on_delivered = on_delivered
        self.on_rex = on_rex
        self.setup_attempt = 0
        self.data_attempt = 0
        self.finished = False

    def start(self):
        self._attempt_connection()

    def _attempt_connection(self):
        if self.finished:
            return
        self.setup_attempt += 1
        handshake_ok = self._record_handshake_segments()
        rtt = 2.0 * self.network.transmission_delay()
        if handshake_ok:
            self.sim.post(rtt, self._start_data_transfer)
            return
        if self.setup_attempt > len(CONNECTION_RETRY_DELAYS):
            self._fail("connection_setup_failed")
            return
        delay = CONNECTION_RETRY_DELAYS[self.setup_attempt - 1]
        self.sim.post(delay, self._attempt_connection)

    def _record_handshake_segments(self):
        src = self.message.sender
        dst = self.message.receiver
        syn = Message(
            sender=src,
            receiver=dst,
            protocol=self.message.protocol,
            kind="tcp_syn",
            layer=MessageLayer.TRANSPORT,
            msg_id=next(self.network.msg_ids),
        )
        sent = self.network.transmit_unicast(syn)
        if not sent:
            return False
        if self.network.link_is_cut(src, dst):
            return False
        dst_ep = self.network.endpoint(dst) if self.network.has_endpoint(dst) else None
        if dst_ep is None or not dst_ep.interface.can_receive() or not dst_ep.interface.can_send():
            return False
        synack = Message(
            sender=dst,
            receiver=src,
            protocol=self.message.protocol,
            kind="tcp_synack",
            layer=MessageLayer.TRANSPORT,
            msg_id=next(self.network.msg_ids),
        )
        self.network.transmit_unicast(synack)
        src_ep = self.network.endpoint(src)
        return src_ep.interface.can_receive()

    def _start_data_transfer(self):
        if self.finished:
            return
        _record(self.network, self.message)
        self._attempt_data(first=True)

    def _attempt_data(self, first=False):
        if self.finished:
            return
        self.data_attempt += 1
        if not first:
            retrans = Message(
                sender=self.message.sender,
                receiver=self.message.receiver,
                protocol=self.message.protocol,
                kind="tcp_data_retransmit",
                layer=MessageLayer.TRANSPORT,
                msg_id=next(self.network.msg_ids),
            )
            _record(self.network, retrans)

        src = self.message.sender
        dst = self.message.receiver
        delay = self.network.transmission_delay()
        success = (
            not self.network.link_is_cut(src, dst)
            and _interfaces_up(self.network, src, dst)
            and _interfaces_up(self.network, dst, src)
        )
        if success:
            ack = Message(
                sender=dst,
                receiver=src,
                protocol=self.message.protocol,
                kind="tcp_ack",
                layer=MessageLayer.TRANSPORT,
                msg_id=next(self.network.msg_ids),
            )
            _record(self.network, ack)
            self.sim.post(delay, self._deliver)
            return
        if self.data_attempt >= MAX_DATA_RETRIES:
            self._fail("data_transfer_aborted")
            return
        rto = self._current_rto()
        self.sim.post(rto, self._attempt_data)

    def _current_rto(self):
        base = 2.0 * self.network.transmission_delay()
        return base * (DATA_BACKOFF_FACTOR ** max(0, self.data_attempt - 1))

    def _deliver(self):
        if self.finished:
            return
        self.finished = True
        endpoint = (
            self.network.endpoint(self.message.receiver)
            if self.network.has_endpoint(self.message.receiver)
            else None
        )
        delivered = endpoint.deliver(self.message) if endpoint is not None else False
        if delivered and self.on_delivered is not None:
            self.on_delivered(self.message)
        elif not delivered:
            if self.on_rex is not None:
                self.on_rex(RemoteException(self.message, "receiver_unreachable", self.sim.now))

    def _fail(self, reason):
        if self.finished:
            return
        self.finished = True
        if self.on_rex is not None:
            self.on_rex(RemoteException(self.message, reason, self.sim.now))


def reference_send(network, message, on_delivered, on_rex):
    ReferenceExchange(network, message, on_delivered, on_rex).start()


# --------------------------------------------------------------------------- harness
@dataclass
class Side:
    """One simulated network plus a way to send a message over TCP on it."""

    sim: Simulator
    network: Network
    send: Callable[..., None]
    endpoints: List[Endpoint] = field(default_factory=list)
    inboxes: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)

    def tcp(self, sender: str, receiver: str, update_related: bool = False) -> None:
        """Send one ``ping`` over TCP now, recording how it ends."""
        message = Message(
            sender,
            receiver,
            "test",
            "ping",
            None,
            update_related,
            MessageLayer.DISCOVERY,
            next(self.network.msg_ids),
        )

        def delivered(msg: Message) -> None:
            self.outcomes.append(("delivered", msg.msg_id, self.sim.now))

        def rex(exc: RemoteException) -> None:
            self.outcomes.append(("rex", exc.message.msg_id, exc.reason, exc.time))

        self.send(message, delivered, rex)

    def at(self, time: float, callback: Callable[..., None], *args) -> None:
        self.sim.schedule_at(time, callback, *args)


def make_side(reference: bool, accepts: Optional[frozenset] = NODE_ACCEPTS) -> Side:
    sim = Simulator()
    network = Network(sim, RngRegistry(SEED))
    if reference:
        send = partial(reference_send, network)
    else:
        send = TcpTransport(network).send
    side = Side(sim, network, send)
    for address in ADDRESSES:
        inbox: list = []
        endpoint = Endpoint(address, handler=inbox.append, accepts=accepts)
        network.join(endpoint)
        side.endpoints.append(endpoint)
        side.inboxes[address] = inbox
    return side


def snapshot(side: Side) -> dict:
    """Everything the two exchanges must agree on, read after the run."""
    network, sim = side.network, side.sim
    return {
        "sent": [
            (
                rec.time,
                rec.sender,
                rec.receiver,
                rec.protocol,
                rec.kind,
                rec.layer,
                rec.update_related,
                rec.multicast,
                rec.copies,
            )
            for rec in network.stats.sent
        ],
        "counters": [vars(endpoint.interface.counters) for endpoint in side.endpoints],
        "inboxes": {
            address: [
                (m.sender, m.receiver, m.protocol, m.kind, m.layer, m.msg_id)
                for m in inbox
            ]
            for address, inbox in side.inboxes.items()
        },
        "ignored": network.ignored,
        "link_cut_drops": network.link_cut_drops,
        "link_losses": network.link_losses,
        "next_seq": sim._queue._next_seq,
        "executed_events": sim.executed_events,
        "outcomes": side.outcomes,
        # Reading the streams last: the next id and the next draw of each.
        "next_msg_id": next(network.msg_ids),
        "next_delay": network.transmission_delay(),
        "next_loss": None if network._loss_rand is None else network._loss_rand(),
    }


def run(script: Callable[[Side], None], reference: bool = False, accepts=NODE_ACCEPTS) -> dict:
    """Run ``script`` on a fresh side to completion and snapshot it."""
    side = make_side(reference, accepts)
    script(side)
    side.sim.run()
    return snapshot(side)


def kinds(snap: dict) -> List[str]:
    return [rec[4] for rec in snap["sent"]]


# --------------------------------------------------------------------------- scripted cases
def clean(side: Side) -> None:
    side.tcp("node-a", "node-b", update_related=True)
    side.at(5.0, side.tcp, "node-b", "node-c")


def sender_tx_down(side: Side) -> None:
    side.network.endpoint("node-a").interface.fail(tx=True)
    side.tcp("node-a", "node-b")


def receiver_rx_down_then_restored(side: Side) -> None:
    interface = side.network.endpoint("node-b").interface
    interface.fail(rx=True)
    side.tcp("node-a", "node-b")
    side.at(20.0, interface.restore, False, True)


def link_cut_in_data_phase(side: Side) -> None:
    side.tcp("node-a", "node-b")
    # After the handshake at 0 s, before the data segment one round trip
    # (at least 20 microseconds) later.
    side.at(1e-5, side.network.cut_link, "node-a", "node-b")
    side.at(0.01, side.network.heal_link, "node-a", "node-b")


def loss_window(side: Side) -> None:
    side.network.push_loss(0.5)
    for index in range(8):
        side.at(index * 1.0, side.tcp, ADDRESSES[index % 3], ADDRESSES[(index + 1) % 3])
    side.at(100.0, side.network.pop_loss, 0.5)


def unknown_receiver(side: Side) -> None:
    side.tcp("node-a", "node-z")


def receiver_leaves_before_delivery(leave_at: float) -> Callable[[Side], None]:
    def script(side: Side) -> None:
        side.tcp("node-a", "node-b")
        side.at(leave_at, side.network.leave, "node-b")

    return script


SCRIPTS = {
    "clean": clean,
    "sender-tx-down": sender_tx_down,
    "receiver-rx-restored": receiver_rx_down_then_restored,
    "link-cut-in-data-phase": link_cut_in_data_phase,
    "loss-window": loss_window,
    "unknown-receiver": unknown_receiver,
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_exchange_matches_the_segment_message_reference(name):
    assert run(SCRIPTS[name]) == run(SCRIPTS[name], reference=True)


def test_clean_exchange_costs_four_records_and_two_events():
    real = run(lambda side: side.tcp("node-a", "node-b"))
    assert kinds(real) == ["tcp_syn", "tcp_synack", "ping", "tcp_ack"]
    assert real["executed_events"] == 2
    assert real["ignored"] == 2  # SYN and SYN-ACK reach nodes that handle neither
    assert real["next_msg_id"] == 5  # the message's own id, then three segment ids


def test_connection_setup_retries_then_raises_rex():
    real = run(sender_tx_down)
    # Attempts at 0, 6, 30, 54 and 78 s: a blocked transmitter records nothing.
    assert real["sent"] == []
    assert real["counters"][0]["dropped_tx"] == 5
    assert real["outcomes"] == [("rex", 1, "connection_setup_failed", 78.0)]


def test_receiver_restored_inside_the_retry_schedule_connects():
    real = run(receiver_rx_down_then_restored)
    # The SYNs at 0 and 6 s go unanswered; the attempt at 30 s connects.
    assert kinds(real) == ["tcp_syn", "tcp_syn", "tcp_syn", "tcp_synack", "ping", "tcp_ack"]
    ((outcome, _msg_id, time),) = real["outcomes"]
    assert outcome == "delivered" and 30.0 < time < 30.001


def test_cut_link_retransmits_with_growing_timeout_until_healed():
    real = run(link_cut_in_data_phase)
    retransmits = [rec[0] for rec in real["sent"] if rec[4] == "tcp_data_retransmit"]
    assert len(retransmits) > 10
    gaps = [later - earlier for earlier, later in zip(retransmits, retransmits[1:])]
    # The time-out grows 1.25x per retry from a round trip drawn afresh each
    # time, which varies at most 10x: ten retries outgrow any draw.
    assert gaps[-1] > gaps[0]
    assert real["outcomes"][0][0] == "delivered"


def test_receiver_leaving_between_ack_and_delivery_raises_rex():
    # Learn the clean exchange's ACK and delivery times from the same seed.
    clean_run = run(lambda side: side.tcp("node-a", "node-b"))
    ack_time = clean_run["sent"][3][0]
    (_outcome, _msg_id, delivery_time) = clean_run["outcomes"][0]
    assert ack_time < delivery_time
    script = receiver_leaves_before_delivery((ack_time + delivery_time) / 2)
    real = run(script)
    assert real == run(script, reference=True)
    assert real["outcomes"] == [("rex", 1, "receiver_unreachable", delivery_time)]


def test_handshake_segments_reach_an_endpoint_that_accepts_every_kind():
    real = run(clean, accepts=None)
    assert real == run(clean, reference=True, accepts=None)
    syn = real["inboxes"]["node-b"][0]
    assert syn[3] == "tcp_syn" and syn[4] == MessageLayer.TRANSPORT
    assert real["ignored"] == 0
