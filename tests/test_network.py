"""Unit tests for the network substrate: delays, interface outages, multicast."""

import random
import sys

import pytest

from repro.core.consistency import ConsistencyTracker
from repro.discovery.node import DiscoveryNode, NodeRole, Transports
from repro.discovery.service import ServiceQuery
from repro.net.addressing import MULTICAST_GROUP
from repro.net.interfaces import Endpoint
from repro.net.messages import Message
from repro.net.multicast import MulticastService
from repro.net.network import MAX_DELAY, MIN_DELAY, MULTICAST_COPY_SPACING, Network
from repro.net.tcp import TcpTransport
from repro.net.udp import UdpTransport
from repro.obs.sinks import MemorySink
from repro.protocols.jini import messages as jini_messages
from repro.protocols.jini.config import JiniConfig
from repro.protocols.jini.user import ClientRegistrarState, JiniClient
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Tracer


def make_network(n_nodes=3):
    sim = Simulator()
    network = Network(sim, RngRegistry(1234))
    inboxes = {}
    for index in range(n_nodes):
        address = f"node-{index}"
        inbox = []
        inboxes[address] = inbox
        network.join(Endpoint(address, handler=inbox.append))
    return sim, network, inboxes


def msg(sender, receiver, kind="ping", update_related=False):
    return Message(
        sender=sender, receiver=receiver, protocol="test", kind=kind, update_related=update_related
    )


def test_unicast_delay_within_table3_bounds():
    sim, network, inboxes = make_network(2)
    for _ in range(50):
        network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    assert len(inboxes["node-1"]) == 50
    # Every delivery event happened between 10 and 100 microseconds after t=0.
    assert MIN_DELAY == pytest.approx(10e-6)
    assert MAX_DELAY == pytest.approx(100e-6)
    assert sim.now <= MAX_DELAY
    for _ in range(200):
        delay = network.transmission_delay()
        assert MIN_DELAY <= delay <= MAX_DELAY


def test_unicast_dropped_when_sender_tx_down():
    sim, network, inboxes = make_network(2)
    network.endpoint("node-0").interface.fail(tx=True)
    sent = network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    assert sent is False
    assert inboxes["node-1"] == []
    assert network.endpoint("node-0").interface.counters.dropped_tx == 1
    # Nothing left the transmitter, so no traffic was recorded.
    assert len(network.stats) == 0


def test_unicast_dropped_when_receiver_rx_down_at_delivery():
    sim, network, inboxes = make_network(2)
    network.endpoint("node-1").interface.fail(rx=True)
    sent = network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    # The message left the wire (and is counted as traffic) but was not delivered.
    assert sent is True
    assert inboxes["node-1"] == []
    assert network.endpoint("node-1").interface.counters.dropped_rx == 1
    assert len(network.stats) == 1


def test_interface_restore_resumes_delivery():
    sim, network, inboxes = make_network(2)
    interface = network.endpoint("node-1").interface
    interface.fail(rx=True)
    interface.restore(rx=True)
    network.transmit_unicast(msg("node-0", "node-1"))
    sim.run()
    assert len(inboxes["node-1"]) == 1


def test_multicast_reaches_all_other_nodes():
    sim, network, inboxes = make_network(4)
    sent = network.transmit_multicast(msg("node-0", MULTICAST_GROUP))
    sim.run()
    assert sent is True
    assert inboxes["node-0"] == []  # the sender does not hear itself
    for address in ("node-1", "node-2", "node-3"):
        assert len(inboxes[address]) == 1


def test_multicast_return_value_honest_when_tx_down():
    """Satellite fix: transmit_multicast must not report success blindly."""
    sim, network, inboxes = make_network(3)
    network.endpoint("node-0").interface.fail(tx=True)
    sent = network.transmit_multicast(msg("node-0", MULTICAST_GROUP))
    sim.run()
    assert sent is False
    assert all(inbox == [] for inbox in inboxes.values())
    assert network.endpoint("node-0").interface.counters.dropped_tx == 1
    # Nothing left the transmitter, so no traffic was recorded (unicast rule).
    assert len(network.stats) == 0


def test_multicast_recorded_once_by_first_copy_that_leaves():
    sim, network, inboxes = make_network(2)
    interface = network.endpoint("node-0").interface
    interface.fail(tx=True)
    # Restore the transmitter between the first and second redundant copy.
    sim.schedule(MULTICAST_COPY_SPACING / 2, interface.restore, True)
    sent = network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=3)
    sim.run()
    assert sent is False  # the first copy was blocked ...
    assert len(inboxes["node-1"]) == 2  # ... but copies 2 and 3 got through
    assert network.stats.total_sent() == 1  # logical send recorded exactly once
    assert interface.counters.dropped_tx == 1


def test_multicast_redundant_copies_recorded_once():
    sim, network, inboxes = make_network(2)
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=3)
    sim.run()
    # Three copies arrive, spaced by the copy interval ...
    assert len(inboxes["node-1"]) == 3
    assert sim.now == pytest.approx(2 * MULTICAST_COPY_SPACING, abs=MAX_DELAY)
    # ... but the logical announcement is recorded once, with its copy count.
    assert network.stats.total_sent() == 1
    assert network.stats.total_copies == 3


def test_multicast_requires_group_address():
    sim, network, _ = make_network(2)
    with pytest.raises(ValueError):
        network.transmit_multicast(msg("node-0", "node-1"))


@pytest.mark.parametrize("copies", [0, -1])
def test_multicast_rejects_fewer_than_one_copy(copies):
    sim, network, inboxes = make_network(3)
    with pytest.raises(ValueError, match="copies must be >= 1"):
        network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=copies)
    # Nothing was recorded, posted, emitted or counted.
    assert len(network.stats) == 0
    assert network.stats.total_copies == 0
    assert sim._queue._heap == []
    assert network.endpoint("node-0").interface.counters.sent == 0
    sim.run()
    assert all(inbox == [] for inbox in inboxes.values())
    assert network.ignored == 0


def test_duplicate_join_rejected():
    sim, network, _ = make_network(2)
    with pytest.raises(ValueError):
        network.join(Endpoint("node-0", handler=lambda m: None))


# --------------------------------------------------------------------------- accepted kinds
def make_logging_network(accepts):
    """A network of ``node-0`` .. ``node-<n>`` whose receivers log delivery times.

    ``accepts[i]`` is the ``accepts`` set of ``node-<i>``.
    """
    sim = Simulator()
    network = Network(sim, RngRegistry(1234))
    logs = {}
    for index, kinds in enumerate(accepts):
        address = f"node-{index}"
        log = logs[address] = []
        network.join(
            Endpoint(address, handler=lambda m, log=log: log.append(sim.now), accepts=kinds)
        )
    return sim, network, logs


def test_endpoint_without_accepts_receives_every_copy():
    sim, network, logs = make_logging_network([None, None])
    assert Endpoint("x").accepts is None
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP, kind="anything"), copies=3)
    sim.run()
    assert len(logs["node-1"]) == 3
    assert network.ignored == 0


def test_non_accepting_endpoint_leaves_other_delivery_times_unchanged():
    copies = 4
    ping = {"ping"}
    sim, network, logs = make_logging_network([None, ping, {"pong"}, ping])
    network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=copies)
    sim.run()
    assert logs["node-2"] == []
    assert network.ignored == copies
    assert network.endpoint("node-2").interface.counters.received == 0

    # The all-accepting network delivers at exactly the same instants ...
    all_sim, all_network, all_logs = make_logging_network([None, ping, ping, ping])
    all_network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=copies)
    all_sim.run()
    assert all_network.ignored == 0
    assert logs["node-1"] == all_logs["node-1"]
    assert logs["node-3"] == all_logs["node-3"]

    # ... which are the ("network", "delay") draws in endpoint order, one per
    # receiver and copy, whether the receiver accepts the kind or not.
    rand = RngRegistry(1234).stream("network", "delay").random
    expected = {"node-1": [], "node-3": []}
    for copy_index in range(copies):
        emitted = 0.0 + copy_index * MULTICAST_COPY_SPACING
        for address in ("node-1", "node-2", "node-3"):
            delay = MIN_DELAY + (MAX_DELAY - MIN_DELAY) * rand()
            if address in expected:
                expected[address].append(emitted + delay)
    assert logs["node-1"] == expected["node-1"]
    assert logs["node-3"] == expected["node-3"]


@pytest.mark.parametrize("disruption", ["loss", "cut"])
def test_filtering_keeps_loss_and_cut_accounting(disruption):
    copies = 6
    ping = {"ping"}
    runs = {}
    for name, middle in (("everyone", ping), ("filtered", {"pong"})):
        sim, network, logs = make_logging_network([None, ping, middle, ping, ping])
        if disruption == "loss":
            network.push_loss(0.4)
        else:
            network.cut_link("node-0", "node-3")
        network.transmit_multicast(msg("node-0", MULTICAST_GROUP), copies=copies)
        sim.run()
        runs[name] = (network, logs)
    everyone, everyone_logs = runs["everyone"]
    filtered, filtered_logs = runs["filtered"]
    assert filtered.link_losses == everyone.link_losses
    assert filtered.link_cut_drops == everyone.link_cut_drops
    for address in ("node-1", "node-3", "node-4"):
        assert filtered_logs[address] == everyone_logs[address]
    assert filtered_logs["node-2"] == [] and everyone.ignored == 0
    # Node 2 ignores exactly the copies that would have reached it.
    assert filtered.ignored == len(everyone_logs["node-2"])
    if disruption == "loss":
        assert 0 < everyone.link_losses < 4 * copies
    else:
        assert everyone.link_cut_drops == copies and everyone_logs["node-3"] == []
        assert filtered.ignored == copies


def test_getrandbits_skips_exactly_like_random_calls():
    # The multicast fan-out skips k delay draws with one getrandbits(64 * k).
    skipped, drawn = random.Random(99), random.Random(99)
    skipped.getrandbits(64 * 7)
    assert skipped.random() == [drawn.random() for _ in range(8)][-1]


def reference_fanout(order, sender, copies, delay_stream, start):
    """Delivery times of a ``ping`` multicast from the per-endpoint draw loop.

    ``order`` lists ``(address, accepts)`` in join order.  Every receiver
    draws one delay per copy whether or not it accepts the kind.
    """
    times = {address: [] for address, _ in order}
    for copy_index in range(copies):
        emitted = start + copy_index * MULTICAST_COPY_SPACING
        for address, accepts in order:
            if address == sender:
                continue
            delay = MIN_DELAY + (MAX_DELAY - MIN_DELAY) * delay_stream.random()
            if accepts is None or "ping" in accepts:
                times[address].append(emitted + delay)
    return times


class FanoutHarness:
    """A logging network plus a reference ``("network", "delay")`` stream."""

    def __init__(self, accepts, seed):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.network = Network(self.sim, self.rng)
        self.reference = RngRegistry(seed).stream("network", "delay")
        self.accepts = {}
        self.logs = {}
        for index, kinds in enumerate(accepts):
            self.join(f"node-{index}", kinds)

    def join(self, address, kinds):
        self.accepts[address] = kinds
        log = self.logs.setdefault(address, [])
        sim = self.sim
        self.network.join(Endpoint(address, handler=lambda m: log.append(sim.now), accepts=kinds))

    def check_emit(self, sender, copies):
        """Multicast from ``sender`` and compare with the reference loop."""
        for log in self.logs.values():
            log.clear()
        order = [(address, self.accepts[address]) for address in self.network.addresses()]
        expected = reference_fanout(order, sender, copies, self.reference, self.sim.now)
        ignored_before = self.network.ignored
        self.network.transmit_multicast(msg(sender, MULTICAST_GROUP), copies=copies)
        self.sim.run()
        for address, _ in order:
            assert self.logs[address] == expected[address], address
        posted = sum(len(times) for times in expected.values())
        assert self.network.ignored - ignored_before == copies * (len(order) - 1) - posted
        # The delay stream stands exactly where the per-endpoint loop leaves it.
        assert self.rng.stream("network", "delay").random() == self.reference.random()


def random_accepts(n, seed):
    choices = (None, {"ping"}, {"pong"}, frozenset(), {"ping", "pong"})
    pick = random.Random(seed).choice
    return [pick(choices) for _ in range(n)]


@pytest.mark.parametrize("n", [2, 5, 64, 1000])
@pytest.mark.parametrize("copies", [1, 6])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("sender_accepts", [True, False])
def test_fanout_matches_per_endpoint_draw_loop(n, copies, where, sender_accepts):
    accepts = random_accepts(n, seed=n * 31 + copies)
    sender_index = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    accepts[sender_index] = {"ping"} if sender_accepts else {"pong"}
    harness = FanoutHarness(accepts, seed=n + copies)
    harness.check_emit(f"node-{sender_index}", copies)
    # A second emit reuses the cached tables.
    harness.check_emit(f"node-{sender_index}", copies)


@pytest.mark.parametrize("copies", [1, 6])
def test_fanout_tables_follow_leave_and_rejoin(copies):
    harness = FanoutHarness(random_accepts(12, seed=5) + [{"ping"}], seed=8)
    harness.check_emit("node-3", copies)
    # An accepting receiver leaves: its draws disappear from the stream.
    harness.network.leave("node-12")
    harness.check_emit("node-3", copies)
    # It re-joins at the end of the endpoint order, as does a new node.
    harness.join("node-12", {"ping"})
    harness.join("node-13", {"pong"})
    harness.check_emit("node-3", copies)
    # The sender itself leaves and re-joins, moving to the end.
    harness.network.leave("node-3")
    harness.join("node-3", {"ping"})
    harness.check_emit("node-3", copies)
    harness.check_emit("node-0", copies)


def test_unaccepted_unicast_draws_its_delay_and_is_ignored():
    harness = FanoutHarness([None, {"ping"}], seed=3)
    network, sim = harness.network, harness.sim
    assert network.transmit_unicast(msg("node-0", "node-1", kind="tcp_syn")) is True
    sim.run()
    assert harness.logs["node-1"] == []
    assert network.ignored == 1
    counters = network.endpoint("node-1").interface.counters
    assert counters.received == counters.dropped_rx == 0
    assert len(network.stats) == 1  # the segment still left the transmitter
    harness.reference.random()
    assert harness.rng.stream("network", "delay").random() == harness.reference.random()
    # A delivery callback still gets the message through, accepted or not.
    delivered = []
    network.transmit_unicast(msg("node-0", "node-1", kind="tcp_syn"), on_delivered=delivered.append)
    sim.run()
    assert len(delivered) == 1 and len(harness.logs["node-1"]) == 1
    assert network.ignored == 1


class PingNode(DiscoveryNode):
    def handle_ping(self, message):
        self.pings = getattr(self, "pings", 0) + 1


class PingPongNode(PingNode):
    def handle_pong(self, message):
        pass


def test_node_accepts_the_kinds_of_its_own_class_handlers():
    assert DiscoveryNode.accepted_kinds() == frozenset()
    assert PingNode.accepted_kinds() == {"ping"}
    # A subclass gets its own set, inherited handlers included, and the
    # parent's cached set is unchanged.
    assert PingPongNode.accepted_kinds() == {"ping", "pong"}
    assert PingNode.accepted_kinds() == {"ping"}

    sim = Simulator(tracer=Tracer(MemorySink()))
    network = Network(sim, RngRegistry(7))
    sender = PingPongNode(sim, network, "sender", NodeRole.USER, Transports())
    node = PingNode(sim, network, "node", NodeRole.USER, Transports())
    assert node.endpoint.accepts == {"ping"}
    assert sender.endpoint.accepts == {"ping", "pong"}
    network.transmit_multicast(msg("sender", MULTICAST_GROUP, kind="pong"), copies=2)
    network.transmit_multicast(msg("sender", MULTICAST_GROUP, kind="ping"), copies=2)
    sim.run()
    assert node.pings == 2
    assert network.ignored == 2
    assert node.endpoint.interface.counters.received == 2
    # Ignored copies never reach on_unhandled, so they leave no trace record.
    assert not [r for r in sim.tracer.sink.records if r.event == "unhandled_message"]


class CallerPingNode(PingNode):
    """A :class:`PingNode` that records the code object that called ``handle_ping``."""

    def handle_ping(self, message):
        super().handle_ping(message)
        self.callers.append(sys._getframe(1).f_code)


DELIVER_CODE = Endpoint.deliver.__code__
MISS_CODE = DiscoveryNode._on_message.__code__


def make_ping_pair():
    """A sender and a :class:`CallerPingNode` with UDP, TCP and multicast."""
    sim = Simulator()
    network = Network(sim, RngRegistry(11))
    transports = Transports(
        udp=UdpTransport(network), tcp=TcpTransport(network), multicast=MulticastService(network)
    )
    sender = PingPongNode(sim, network, "sender", NodeRole.USER, transports)
    node = CallerPingNode(sim, network, "node", NodeRole.USER, transports)
    node.callers = []
    node.unhandled = []
    node.on_unhandled = node.unhandled.append
    return sim, sender, node


SENDS = {
    "multicast": lambda sender: sender.send_multicast("ping"),
    "udp": lambda sender: sender.send_udp("node", "ping"),
    "tcp": lambda sender: sender.send_tcp("node", "ping"),
}


@pytest.mark.parametrize("transport", sorted(SENDS))
def test_endpoint_deliver_calls_the_handler_directly(transport):
    sim, sender, node = make_ping_pair()
    for _ in range(3):
        SENDS[transport](sender)
        sim.run()
    # The first delivery of a kind resolves its handler on the miss path;
    # every later one is a single call from Endpoint.deliver.
    assert node.callers == [MISS_CODE, DELIVER_CODE, DELIVER_CODE]
    assert node.pings == 3


def test_stopped_node_counts_but_drops_deliveries_until_restart():
    sim, sender, node = make_ping_pair()
    counters = node.endpoint.interface.counters
    sender.send_udp("node", "ping")
    sim.run()
    assert node.pings == 1 and counters.received == 1

    node.stop()
    for send in SENDS.values():
        send(sender)
    sim.run()
    # Received at the interface, as before the stop, but handled by nobody.
    assert counters.received == 4
    assert node.pings == 1
    assert node.unhandled == []

    node.restart()
    for _ in range(2):
        sender.send_udp("node", "ping")
        sim.run()
    assert node.pings == 3
    # The table refills on the first delivery after the restart.
    assert node.callers[-2:] == [MISS_CODE, DELIVER_CODE]


def test_unhandled_kind_with_a_delivery_callback_reaches_on_unhandled():
    sim, sender, node = make_ping_pair()
    delivered = []
    messages = []
    for _ in range(2):
        message = sender.make_message("node", "pong")
        messages.append(message)
        sender.transports.udp.send(message, on_delivered=delivered.append)
        sim.run()
    assert node.unhandled == messages
    assert delivered == messages
    assert not hasattr(node, "pings")


def make_jini_client(home=None):
    sim = Simulator()
    network = Network(sim, RngRegistry(5))
    network.join(Endpoint("lus"))
    client = JiniClient(
        sim,
        network,
        "client",
        Transports(tcp=TcpTransport(network)),
        JiniConfig(),
        query=ServiceQuery(),
        tracker=ConsistencyTracker(),
        home=home,
    )
    return sim, network, client


def announce(network, registrar="lus", copies=2):
    message = Message(
        sender=registrar,
        receiver=MULTICAST_GROUP,
        protocol=jini_messages.PROTOCOL,
        kind=jini_messages.REGISTRAR_ANNOUNCE,
        payload={"registrar": registrar},
    )
    network.transmit_multicast(message, copies=copies)


def test_known_registrar_announcement_refreshes_in_place(monkeypatch):
    sim, network, client = make_jini_client()
    announce(network, copies=1)
    sim.run(until=1.0)
    # Learned through the protocol: the copy reached _learn_registrar, which
    # published the new record in the client's refresh map.
    state = client.registrars["lus"]
    assert client.endpoint.refresh[jini_messages.REGISTRAR_ANNOUNCE] == {"lus": state}
    assert network.absorbed == 0

    def learn(addr):
        raise AssertionError(f"_learn_registrar called for {addr}")

    monkeypatch.setattr(client, "_learn_registrar", learn)
    fired = sim.executed_events
    counters = client.endpoint.interface.counters
    received = counters.received
    sim.schedule_at(50.0, announce, network)
    sim.run(until=60.0)
    # Both copies were received without a delivery event: the two events
    # fired are the announcement and the second copy's emission.
    assert network.absorbed == 2
    assert sim.executed_events - fired == 2
    assert counters.received - received == 2
    # The record holds the second copy until a reader settles it.
    copy_time = state.copy_time
    assert 50.0 + MULTICAST_COPY_SPACING < copy_time <= 50.0 + MULTICAST_COPY_SPACING + MAX_DELAY
    assert state.last_heard < copy_time
    assert network.settle(state) is False
    assert state.last_heard == copy_time
    assert state.copy_message is None


def test_announcements_are_events_in_a_run_without_a_bound():
    sim, network, client = make_jini_client()
    announce(network, copies=1)
    sim.schedule(50.0, announce, network)
    sim.run()
    assert network.absorbed == 0
    # Refreshed at the delivery of the second (last) copy, the last event.
    assert client.registrars["lus"].last_heard == sim.now


@pytest.mark.parametrize("home", [None, "other-lus"])
def test_other_registrar_announcements_still_go_to_learn_registrar(monkeypatch, home):
    sim, network, client = make_jini_client(home=home)
    if home is not None:
        # A registrar outside the client's partition is never refreshed.
        client.registrars["lus"] = ClientRegistrarState(last_heard=0.0)
    learned = []
    monkeypatch.setattr(client, "_learn_registrar", learned.append)
    announce(network, copies=1)
    sim.run()
    assert learned == ["lus"]
