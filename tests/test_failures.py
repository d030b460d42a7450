"""Failure layer: depth-counted interfaces, disruption plans, the injector.

The regression core of the scenario PR: overlapping outages must not restore
a direction early (the old boolean ``tx_up``/``rx_up`` did exactly that),
outage windows overrunning the run must be accounted against the deadline,
and outage/restore operations targeting a node departed by churn must be
skipped instead of raising mid-run.
"""

import random

import pytest

from repro.net.failures import (
    DisruptionPlan,
    FailureInjector,
    InterfaceOutage,
    LossWindow,
    NodeChurn,
    build_interface_failure_plan,
    merged_downtime,
)
from repro.net.interfaces import Endpoint, NetworkInterface
from repro.net.messages import Message
from repro.net.network import Network
from repro.obs.sinks import MemorySink
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Tracer


def make_network(n_nodes=3, seed=1234, trace=False):
    sim = Simulator(tracer=Tracer(MemorySink() if trace else None))
    network = Network(sim, RngRegistry(seed))
    inboxes = {}
    for index in range(n_nodes):
        address = f"node-{index}"
        inbox = []
        inboxes[address] = inbox
        network.join(Endpoint(address, handler=inbox.append))
    return sim, network, inboxes


def msg(sender, receiver, kind="ping"):
    return Message(sender=sender, receiver=receiver, protocol="test", kind=kind)


def outage_injector(sim, network, plan, deadline=1000.0):
    """An injector of ``plan`` alone, on a network with no churn target."""
    return FailureInjector(sim, network, plan, deadline=deadline, node_resolver={}.get)


def traced(sim, event):
    """The in-memory trace records of ``event``."""
    return [record for record in sim.tracer.sink.records if record.event == event]


# --------------------------------------------------------------------------- depth counters
def test_overlapping_outages_keep_direction_down_until_last_restore():
    """Regression: with boolean up/down state, restoring the first of two
    overlapping outages brought the direction back up while the second was
    still active.  Depth counting keeps it down."""
    interface = NetworkInterface("n")
    interface.fail(rx=True)  # outage A
    interface.fail(rx=True)  # outage B, overlapping A
    assert not interface.rx_up
    interface.restore(rx=True)  # A ends first
    assert not interface.rx_up  # the old boolean implementation failed here
    assert interface.rx_fail_depth == 1
    interface.restore(rx=True)  # B ends
    assert interface.rx_up
    assert interface.rx_fail_depth == 0


def test_overlapping_outages_through_injector_drop_messages_in_the_overlap_tail():
    """End-to-end form of the regression: two overlapping rx outages on one
    node; a message sent after the first restore but during the second outage
    must still be dropped."""
    sim, network, inboxes = make_network(2)
    plan = [
        InterfaceOutage(node="node-1", start=10.0, duration=20.0, mode="rx"),
        InterfaceOutage(node="node-1", start=20.0, duration=25.0, mode="rx"),
    ]
    injector = outage_injector(sim, network, plan)
    injector.start()
    sim.schedule_at(35.0, network.transmit_unicast, msg("node-0", "node-1"))  # overlap tail
    sim.schedule_at(50.0, network.transmit_unicast, msg("node-0", "node-1"))  # all restored
    sim.run(until=60.0)
    assert len(inboxes["node-1"]) == 1  # only the t=50 message arrived


def test_unmatched_restore_is_clamped_at_depth_zero():
    interface = NetworkInterface("n")
    interface.restore(tx=True, rx=True)  # nothing to undo
    assert interface.tx_up and interface.rx_up
    assert interface.tx_fail_depth == 0 and interface.rx_fail_depth == 0
    interface.fail(tx=True)
    interface.restore(tx=True)
    interface.restore(tx=True)  # extra restore must not go negative
    interface.fail(tx=True)
    assert not interface.tx_up  # a fresh fail still takes the direction down


def test_interface_reset_clears_all_depth():
    interface = NetworkInterface("n")
    interface.fail(tx=True, rx=True)
    interface.fail(rx=True)
    interface.reset()
    assert interface.tx_up and interface.rx_up
    assert interface.tx_fail_depth == 0 and interface.rx_fail_depth == 0


def test_node_down_requires_both_directions():
    interface = NetworkInterface("n")
    assert not interface.node_down
    interface.fail(tx=True)
    assert not interface.node_down
    interface.fail(rx=True)
    assert interface.node_down
    interface.restore(tx=True)
    assert not interface.node_down


# --------------------------------------------------------------------------- outage dataclass
def test_interface_outage_covers_is_half_open():
    outage = InterfaceOutage(node="n", start=100.0, duration=50.0, mode="both")
    assert outage.end == 150.0
    assert not outage.covers(99.999)
    assert outage.covers(100.0)  # inclusive start
    assert outage.covers(149.999)
    assert not outage.covers(150.0)  # exclusive end
    assert outage.fails_tx and outage.fails_rx


def test_interface_outage_clamped_against_deadline():
    outage = InterfaceOutage(node="n", start=5000.0, duration=1000.0, mode="tx")
    assert outage.clamped(5400.0) == (5000.0, 5400.0)
    assert outage.clamped(6500.0) == (5000.0, 6000.0)
    assert outage.clamped(4000.0) == (4000.0, 4000.0)  # entirely past the run


def test_merged_downtime_merges_overlaps_and_clamps():
    outages = [
        InterfaceOutage(node="a", start=100.0, duration=100.0, mode="tx"),
        InterfaceOutage(node="a", start=150.0, duration=100.0, mode="rx"),  # overlaps
        InterfaceOutage(node="a", start=400.0, duration=50.0, mode="both"),  # disjoint
        InterfaceOutage(node="b", start=900.0, duration=300.0, mode="both"),  # overruns
    ]
    realized = merged_downtime(outages, deadline=1000.0)
    assert realized["a"] == pytest.approx(150.0 + 50.0)  # union [100,250] + [400,450]
    assert realized["b"] == pytest.approx(100.0)  # clamped to [900, 1000]
    unclamped = merged_downtime(outages)
    assert unclamped["b"] == pytest.approx(300.0)


# --------------------------------------------------------------------------- the failure model
def test_fitted_plan_realizes_the_nominal_failure_fraction():
    """The paper's draw places onsets up to the deadline, so windows drawn
    near it overrun the run and mean realized downtime undershoots nominal
    lambda."""
    deadline = 5400.0
    rate = 0.4
    nodes = [f"n{i}" for i in range(200)]
    plan = build_interface_failure_plan(nodes, rate, random.Random(7), deadline)
    realized = merged_downtime(plan, deadline=deadline)
    mean = sum(realized[node] / deadline for node in nodes) / len(nodes)
    assert mean < rate  # the paper's draw silently undershoots nominal lambda
    assert any(outage.end > deadline for outage in plan)


def test_injector_telemetry_reports_clamped_realized_downtime():
    sim, network, _ = make_network(2)
    plan = [
        InterfaceOutage(node="node-0", start=50.0, duration=100.0, mode="tx"),
        InterfaceOutage(node="node-1", start=150.0, duration=100.0, mode="both"),
    ]
    injector = outage_injector(sim, network, plan, deadline=200.0)
    injector.start()
    sim.run(until=200.0)
    telemetry = injector.failure_telemetry()
    assert telemetry["n_outages"] == 2
    assert telemetry["realized_downtime"] == {"node-0": 100.0, "node-1": 50.0}
    assert telemetry["realized_fraction_mean"] == pytest.approx((0.5 + 0.25) / 2)
    assert telemetry["last_outage_end"] == 200.0  # clamped, not 250
    assert telemetry["skipped_ops"] == 0


def test_realized_fraction_mean_is_summed_left_to_right():
    """Six full 1,080 s outages in a 5,400 s run: each fraction is 0.2.

    Summed left to right, as on Python 3.9-3.11, the mean is one ulp below
    0.2; Python 3.12's compensated ``sum()`` gives 0.20000000000000004,
    which would change the pinned journal bytes.
    """
    sim, network, _ = make_network(6)
    plan = [
        InterfaceOutage(node=f"node-{index}", start=100.0, duration=1080.0, mode="both")
        for index in range(6)
    ]
    injector = outage_injector(sim, network, plan, deadline=5400.0)
    injector.start()
    sim.run(until=5400.0)
    telemetry = injector.failure_telemetry()
    assert set(telemetry["realized_downtime"].values()) == {1080.0}
    assert repr(telemetry["realized_fraction_mean"]) == "0.19999999999999998"


# --------------------------------------------------------------------------- departed endpoints
def test_outage_on_departed_node_is_skipped_not_raised():
    sim, network, _ = make_network(2, trace=True)
    plan = [InterfaceOutage(node="node-1", start=20.0, duration=30.0, mode="both")]
    injector = outage_injector(sim, network, plan)
    injector.start()
    sim.schedule_at(10.0, network.leave, "node-1")
    sim.run(until=100.0)  # the old unguarded _apply raised KeyError here
    assert injector.skipped_ops == 1
    skipped = traced(sim, "failure_skipped")
    assert len(skipped) == 1
    assert skipped[0].fields["operation"] == "apply"
    assert skipped[0].fields["node"] == "node-1"


def test_restore_on_node_departed_mid_outage_is_skipped():
    sim, network, _ = make_network(2, trace=True)
    plan = [InterfaceOutage(node="node-1", start=20.0, duration=30.0, mode="rx")]
    injector = outage_injector(sim, network, plan)
    injector.start()
    sim.schedule_at(30.0, network.leave, "node-1")  # departs while failed
    sim.run(until=100.0)
    assert injector.skipped_ops == 1
    skipped = traced(sim, "failure_skipped")
    assert skipped[0].fields["operation"] == "restore"


class _ToyNode(Process):
    """Minimal churn target: counts bootstraps, owns an endpoint."""

    def __init__(self, sim, network, node_id):
        super().__init__(sim, node_id)
        self.node_id = node_id
        self.endpoint = Endpoint(node_id, handler=lambda message: None)
        network.join(self.endpoint)
        self.bootstraps = 0

    def on_start(self):
        self.bootstraps += 1


def test_churn_leave_and_rejoin_restarts_node_with_fresh_interface():
    sim = Simulator(tracer=Tracer(MemorySink()))
    network = Network(sim, RngRegistry(5))
    node = _ToyNode(sim, network, "peer")
    nodes = {"peer": node}
    node.start()
    # An outage overlapping the absence: its restore is skipped, so only the
    # rejoin's interface reset may bring the radio back.
    plan = [InterfaceOutage(node="peer", start=50.0, duration=200.0, mode="both")]
    churn = [NodeChurn(node="peer", leave=100.0, rejoin=400.0)]
    injector = FailureInjector(
        sim, network, plan, churn=churn, deadline=1000.0, node_resolver=nodes.get
    )
    injector.start()
    sim.run(until=1000.0)
    assert injector.departed == ["peer"] and injector.rejoined == ["peer"]
    assert injector.skipped_ops == 1  # the restore at t=250 hit a departed node
    assert network.has_endpoint("peer")
    assert node.endpoint.interface.tx_up and node.endpoint.interface.rx_up
    assert node.bootstraps == 2  # initial start + churn restart
    assert not node.stopped
    telemetry = injector.failure_telemetry()
    assert telemetry["last_churn_end"] == 400.0


def test_churn_without_rejoin_leaves_node_out():
    sim = Simulator()
    network = Network(sim, RngRegistry(5))
    node = _ToyNode(sim, network, "peer")
    node.start()
    injector = FailureInjector(
        sim, network, [], churn=[NodeChurn(node="peer", leave=10.0)],
        deadline=100.0, node_resolver={"peer": node}.get,
    )
    injector.start()
    sim.run(until=100.0)
    assert not network.has_endpoint("peer")
    assert node.stopped
    assert injector.departed == ["peer"] and injector.rejoined == []
    # A departure without a rejoin lasts to the end of the run.
    assert injector.failure_telemetry()["last_churn_end"] == 100.0


def test_departed_sender_transmissions_fail_silently():
    sim, network, inboxes = make_network(2)
    network.leave("node-0")
    assert network.transmit_unicast(msg("node-0", "node-1")) is False
    sim.run()
    assert inboxes["node-1"] == []
    assert len(network.stats) == 0  # a ghost emits no traffic


def test_churn_event_validation():
    with pytest.raises(ValueError):
        NodeChurn(node="n", leave=-1.0).validate()
    with pytest.raises(ValueError):
        NodeChurn(node="n", leave=100.0, rejoin=100.0).validate()
    assert NodeChurn(node="n", leave=0.0, rejoin=1.0).validate().rejoin == 1.0


# --------------------------------------------------------------------------- lossy links
def test_loss_window_drops_deliveries_with_given_probability():
    sim, network, inboxes = make_network(2, seed=42)
    injector = FailureInjector(
        sim,
        network,
        [],
        loss_windows=[LossWindow(start=0.0, duration=10.0, drop_probability=0.5)],
        deadline=100.0,
        node_resolver={}.get,
    )
    injector.start()
    for index in range(200):
        sim.schedule_at(1.0 + index * 0.01, network.transmit_unicast, msg("node-0", "node-1"))
    sim.run(until=100.0)
    delivered = len(inboxes["node-1"])
    assert delivered + network.link_losses == 200
    assert 60 <= delivered <= 140  # p=0.5, 200 trials
    assert len(network.stats) == 200  # drops happen on the wire, after the send


def test_loss_window_closes_and_later_sends_all_arrive():
    sim, network, inboxes = make_network(2, seed=42)
    injector = FailureInjector(
        sim,
        network,
        [],
        loss_windows=[LossWindow(start=0.0, duration=10.0, drop_probability=1.0)],
        deadline=100.0,
        node_resolver={}.get,
    )
    injector.start()
    sim.schedule_at(5.0, network.transmit_unicast, msg("node-0", "node-1"))  # inside: dropped
    sim.schedule_at(20.0, network.transmit_unicast, msg("node-0", "node-1"))  # after: arrives
    sim.run(until=100.0)
    assert len(inboxes["node-1"]) == 1
    assert network.link_losses == 1
    assert network.loss_probability == 0.0


def test_nested_loss_windows_compose_as_independent_drops():
    sim, network, _ = make_network(2)
    network.push_loss(0.5)
    network.push_loss(0.5)
    assert network.loss_probability == pytest.approx(0.75)
    network.pop_loss(0.5)
    assert network.loss_probability == pytest.approx(0.5)
    network.pop_loss(0.5)
    assert network.loss_probability == 0.0
    with pytest.raises(ValueError):
        network.pop_loss(0.5)
    with pytest.raises(ValueError):
        network.push_loss(1.5)


def test_loss_draws_never_perturb_the_delay_stream():
    """The loss stream is separate: a run with a zero-width loss window set
    up but never transmitting through it keeps delay draws identical."""
    def delays(with_loss):
        sim = Simulator()
        network = Network(sim, RngRegistry(99))
        if with_loss:
            network.push_loss(0.5)
            network.pop_loss(0.5)
        return [network.transmission_delay() for _ in range(20)]

    assert delays(False) == delays(True)


def test_loss_window_validation():
    with pytest.raises(ValueError):
        LossWindow(start=0.0, duration=0.0, drop_probability=0.5).validate()
    with pytest.raises(ValueError):
        LossWindow(start=0.0, duration=1.0, drop_probability=1.5).validate()


# --------------------------------------------------------------------------- plans
def test_disruption_plan_counts_events():
    plan = DisruptionPlan(
        outages=(InterfaceOutage(node="a", start=1.0, duration=1.0, mode="tx"),),
        churn=(NodeChurn(node="b", leave=2.0),),
        loss_windows=(LossWindow(start=3.0, duration=1.0, drop_probability=0.1),),
        extra_change_times=(4.0, 5.0),
    )
    assert plan.n_events == 5
    assert DisruptionPlan().n_events == 0
