"""Absorbed and decided events against an oracle that posts every event.

The network absorbs a Jini node's copies of a known Lookup Service's
announcement, and decides redundant copies from a downed transmitter and
deliveries into a downed receiver, instead of posting them as events (see
:class:`repro.net.network.Network`).  The oracle shares no code with those
decisions: it runs the same cell again with every endpoint's refresh maps
cleared after ``ExperimentRunner.setup`` and every known restore time
forgotten as soon as an outage has been applied, so the network finds
nothing to absorb or decide and every copy and delivery is an event, as
before either existed.  The two runs must agree on everything but the work
counts, and on those ``events_fired + net.absorbed + net.decided_tx +
net.decided_rx`` must equal the oracle's ``events_fired`` while
``heap_hwm`` can only fall.

The scripted cells put one hazard inside a copy's flight, where a wrong
absorption or decision would show.  Delays are pinned to 50 µs, so the
copy ``j`` of the Lookup Service's announcement at 240 s is emitted at
``240 + 0.1 j`` s and due 50 µs later; most hazards strike copy 2 20 µs
into its flight.  Every scripted cell also compares the in-memory traces
and a probe of each client's settled ``last_heard``, and checks the
outcome derived by hand in its docstring.

The tier-1 test runs one cell per system under three scenario families;
``python tests/test_absorbed_copies.py`` runs every family, system and
rate at two seeds each.
"""

import contextlib
import dataclasses
import sys
from math import inf

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.scenarios import SCENARIOS
from repro.net import network as network_module
from repro.net import tcp as tcp_module
from repro.net.failures import InterfaceOutage, NodeChurn
from repro.net.messages import Message

#: Push, pull, gossip, multi-homed and partitioned Jini deployments, UPnP
#: and FRODO.
ORACLE_SYSTEMS = (
    "jini1",
    "jini2",
    "jini@k=4",
    "jini@k=4,mode=pull",
    "jini@assign=partition,k=2,mode=gossip",
    "upnp",
    "frodo2",
    "frodo3",
)
#: One (failure rate, seed) cell per rate from 0 to 80 %.
ORACLE_CELLS = tuple(zip((0.0, 0.2, 0.4, 0.6, 0.8), range(1, 6)))
#: The tier-1 scenarios: churn stops and restarts clients, restart the
#: Lookup Services.
TIER1_SCENARIOS = ("table4", "churn", "restart")


def oracle_specs(scenarios, cells):
    """Every (scenario, system, cell) combination."""
    return [
        ScenarioSpec(system=system, failure_rate=rate, seed=seed, scenario=scenario)
        for scenario in scenarios
        for system in ORACLE_SYSTEMS
        for rate, seed in cells
    ]


def tier1_specs(scenario):
    """Each system at one cell, rotated per scenario so each sees three rates."""
    shift = TIER1_SCENARIOS.index(scenario)
    specs = []
    for index, system in enumerate(ORACLE_SYSTEMS):
        rate, seed = ORACLE_CELLS[(index + shift) % len(ORACLE_CELLS)]
        specs.append(ScenarioSpec(system=system, failure_rate=rate, seed=seed, scenario=scenario))
    return specs


def forget_restores(context):
    """Forget each known restore time as soon as ``_apply`` has recorded it."""
    injector, network = context.injector, context.network
    apply = injector._apply

    def apply_and_forget(outage):
        apply(outage)
        if network.has_endpoint(outage.node):
            interface = network.endpoint(outage.node).interface
            interface.tx_until = interface.rx_until = -inf
        network.rx_until = -inf

    injector._apply = apply_and_forget


def run_cell(spec, decide=True, script=None):
    """Run ``spec``; return its result, its trace and the script's probe log.

    ``decide=False`` is the oracle: the refresh maps are cleared before the
    run and the known restore times forgotten during it, so no copy is
    absorbed and no event decided.  ``script(context)`` schedules the
    hazard and returns the list its probes append to.
    """
    runner = ExperimentRunner()
    context = runner.setup(spec)
    if not decide:
        for endpoint in context.network.endpoints():
            endpoint.refresh.clear()
        forget_restores(context)
    probes = script(context) if script is not None else []
    result = runner.execute(context)
    sink = context.sim.tracer.sink  # a MemorySink for ``trace=True`` specs, else None
    records = sink.records if sink is not None else []
    trace = [(r.time, r.category, r.event, r.fields) for r in records]
    return result, trace, probes


#: The telemetry counts of events received or dropped without being fired.
UNFIRED = ("absorbed", "decided_tx", "decided_rx")


def _pop_work(data):
    details = data["details"]
    engine = details["telemetry"]["engine"]
    net = details["telemetry"]["net"]
    fired = engine.pop("events_fired")
    assert details.pop("executed_events") == fired
    return fired, [net.pop(name) for name in UNFIRED], engine.pop("heap_hwm")


def assert_only_work_moved(result, reference):
    """Equal results but for the work counts, which conserve.

    Returns the ``absorbed``, ``decided_tx`` and ``decided_rx`` counts.
    """
    got, want = result.to_dict(), reference.to_dict()
    fired, unfired, hwm = _pop_work(got)
    want_fired, want_unfired, want_hwm = _pop_work(want)
    assert got == want
    assert want_unfired == [0, 0, 0]
    assert fired + sum(unfired) == want_fired
    assert hwm <= want_hwm
    return unfired


def check_oracle(specs):
    """Run every cell both ways; returns the absorbed, decided_tx and decided_rx totals."""
    totals = [0, 0, 0]
    for spec in specs:
        result, _, _ = run_cell(spec)
        reference, _, _ = run_cell(spec, decide=False)
        totals = [a + b for a, b in zip(totals, assert_only_work_moved(result, reference))]
    return totals


@pytest.mark.parametrize("scenario", TIER1_SCENARIOS)
def test_absorbing_moves_only_the_work_counts(scenario):
    assert all(check_oracle(tier1_specs(scenario)))


# --------------------------------------------------------------------------- scripted hazards
LUS = "jini-lus-1"
CLIENT = "jini-user-1"
MANAGER = "jini-manager"
DELAY = 50e-6
#: Copy ``j`` of the announcement at 240 s: emitted, and due.
COPY = tuple(240.0 + j * 0.1 for j in range(6))
COPY_DUE = tuple(time + DELAY for time in COPY)
#: Copy 2: emitted, and due.
EMIT = COPY[2]
DUE = COPY_DUE[2]
IN_FLIGHT = EMIT + 20e-6
#: When the probe reads every client's records: after copy 2 was due, and
#: once more after the next announcement.
PROBES = (EMIT + 0.05, EMIT + 121.0)


def base_spec(**fields):
    return ScenarioSpec(system="jini1", failure_rate=0.0, seed=3, trace=True, **fields)


@contextlib.contextmanager
def pinned_delays():
    """Pin every delay draw, the network's and TCP's, to :data:`DELAY`.

    The draws are ``MIN_DELAY + (MAX_DELAY - MIN_DELAY) * random()``, so
    equal bounds pin them while each draw still consumes the stream.
    """
    modules = (network_module, tcp_module)
    saved = [(module.MIN_DELAY, module.MAX_DELAY) for module in modules]
    for module in modules:
        module.MIN_DELAY = module.MAX_DELAY = DELAY
    try:
        yield
    finally:
        for module, (low, high) in zip(modules, saved):
            module.MIN_DELAY, module.MAX_DELAY = low, high


def scripted(hazard):
    """A script applying ``hazard`` to a cell whose delays are pinned."""

    def script(context):
        clients = {node.node_id: node for node in context.deployment.users}
        log = []

        def probe():
            for node_id, client in sorted(clients.items()):
                heard = {}
                for addr, state in sorted(client.registrars.items()):
                    context.network.settle(state)
                    heard[addr] = state.last_heard
                log.append((context.sim.now, node_id, heard))

        for time in PROBES:
            context.sim.schedule_at(time, probe)
        hazard(context, clients[CLIENT])
        return log

    return script


def run_scripted(hazard, spec=None):
    """The scripted cell both ways; asserts they agree and returns the absorbing run."""
    spec = spec if spec is not None else base_spec()
    with pinned_delays():
        result, trace, probes = run_cell(spec, script=scripted(hazard))
        reference, ref_trace, ref_probes = run_cell(spec, decide=False, script=scripted(hazard))
    assert assert_only_work_moved(result, reference)[0] > 0
    assert trace == ref_trace
    assert probes == ref_probes
    return result, trace, probes


def _sends(trace, kind, sender=CLIENT):
    """Times of ``sender``'s sends of ``kind`` in ``trace``."""
    times = []
    for time, category, event, fields in trace:
        if (category, event) == ("net", "send") and fields["kind"] == kind:
            if fields["sender"] == sender:
                times.append(time)
    return times


def _first_syn(trace, sender=CLIENT):
    return min(t for t in _sends(trace, "tcp_syn", sender) if t > EMIT)


def _heard(probes, time, node=CLIENT):
    return next(heard for at, node_id, heard in probes if at == time and node_id == node)


def test_renew_rex_drops_the_registrar_while_a_copy_is_in_flight():
    """The drop empties the client's registrars, so it multicasts a discovery
    request at once; the registrar's UDP answer would arrive two delays
    later.  Copy 2, due first, finds the registrar unknown and re-learns it
    through ``_learn_registrar``, which connects to re-register for events:
    the client's first SYN after the copy's emission leaves at its due time."""

    def hazard(context, client):
        context.sim.schedule_at(IN_FLIGHT, client._drop_registrar, LUS, "renew_rex")

    _, trace, _ = run_scripted(hazard)
    assert IN_FLIGHT in _sends(trace, "discovery_request")
    assert _first_syn(trace) == DUE


def test_rx_outage_starting_inside_a_copy_flight_drops_it():
    """The receiver fails for 60 s from 20 µs into copy 2's flight.  By the
    first probe the client has dropped copy 2 and last heard the registrar
    at copy 1; by the second it has dropped copies 2-5, the only messages
    addressed to it during the outage."""
    dropped = []

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(CLIENT, IN_FLIGHT, 60.0, "rx")]
        counters = client.endpoint.interface.counters
        for time in PROBES:
            context.sim.schedule_at(time, lambda: dropped.append(counters.dropped_rx))

    _, _, probes = run_scripted(hazard)
    assert dropped == [1, 4, 1, 4]  # both runs
    assert _heard(probes, PROBES[0]) == {LUS: 240.0 + 0.1 + DELAY}


def test_churn_leave_inside_a_copy_flight_leaves_it_unheard():
    """The client leaves 20 µs into copy 2's flight and rejoins at 300 s.
    Copy 2 reaches the stopped node, which drops it, so the registrar was
    last heard at copy 1 when the probe reads it.  The rejoined client
    still knows the registrar, so all five clients and the Manager absorb
    the six copies of the announcement at 360 s, which refreshes it to its
    last copy's due time."""
    absorbed = []

    def hazard(context, client):
        context.injector.churn = [NodeChurn(CLIENT, leave=IN_FLIGHT, rejoin=300.0)]
        for time in (359.0, 361.0):
            context.sim.schedule_at(time, lambda: absorbed.append(context.network.absorbed))

    _, _, probes = run_scripted(hazard)
    assert _heard(probes, PROBES[0]) == {LUS: 240.0 + 0.1 + DELAY}
    assert _heard(probes, PROBES[1]) == {LUS: 360.0 + 0.5 + DELAY}
    before, after, oracle_before, oracle_after = absorbed
    assert (after - before, oracle_after - oracle_before) == (6 * 6, 0)


def test_copy_due_after_the_run_bound_is_not_received():
    """The run ends 20 µs into copy 2's flight, so copy 2 is still on the
    oracle's calendar at the end and counts nowhere; absorbed, it would
    count as received.  At the bound every client last heard the registrar
    at copy 1."""
    heard = []

    def hazard(context, client):
        def probe():
            for user in context.deployment.users:
                state = user.registrars[LUS]
                context.network.settle(state)
                heard.append(state.last_heard)

        context.sim.schedule_at(IN_FLIGHT, probe)

    run_scripted(hazard, base_spec(change_time=100.0, deadline=IN_FLIGHT))
    assert heard == [240.0 + 0.1 + DELAY] * 10  # five clients, both runs


def test_drop_at_exactly_a_pending_copy_time_before_it_fires():
    """The drop is scheduled before the run, so at copy 2's due time its key
    precedes the copy's: the drop fires first, and the copy then re-learns
    the registrar at that same instant, connecting to re-register."""

    def hazard(context, client):
        context.sim.schedule_at(DUE, client._drop_registrar, LUS, "renew_rex")

    _, trace, _ = run_scripted(hazard)
    assert _first_syn(trace) == DUE


def test_drop_at_exactly_a_pending_copy_time_after_it_fires():
    """The drop is scheduled from inside copy 2's flight, so its key follows
    the copy's: the copy refreshes the registrar, the drop then removes it,
    and the client re-learns it from the discovery request's answer, two
    delays later."""

    def hazard(context, client):
        sim = context.sim
        drop = client._drop_registrar
        sim.schedule_at(IN_FLIGHT, sim.schedule_at, DUE, drop, LUS, "renew_rex")

    _, trace, _ = run_scripted(hazard)
    assert _first_syn(trace) == DUE + DELAY + DELAY


def test_copy_of_an_announcement_overlapping_a_copy_in_flight_is_an_event():
    """The registrar announces again 10 µs into copy 2's flight, and the
    client drops it 20 µs in.  A record holds one absorbed copy, and copy 2
    is not yet due when the new announcement's first copy leaves, so that
    copy is posted as an event.  The drop puts copy 2 back on the calendar,
    and copy 2 re-learns the registrar at its due time, 10 µs before the
    new copy arrives."""

    def hazard(context, client):
        registrar = context.deployment.registries[0]
        context.sim.schedule_at(EMIT + 10e-6, registrar._announce)
        context.sim.schedule_at(IN_FLIGHT, client._drop_registrar, LUS, "renew_rex")

    _, trace, _ = run_scripted(hazard)
    assert _first_syn(trace) == DUE


def test_silence_check_settles_the_last_copy():
    """The renewal tick at 900 s is the one reader of ``last_heard``.  The
    last announcement before it is at 840 s; its copy 5 is due at
    840.5 s + 50 µs and copy 4 0.1 s earlier.  With the silence timeout at
    59.55 s the registrar is kept only if copy 5 counts, as it does: the
    tick renews the event registration instead of purging the registrar.
    (Later ticks, off the announcement grid, purge it in both runs.)"""

    def hazard(context, client):
        client.config = dataclasses.replace(client.config, registry_silence_timeout=59.55)

    _, trace, _ = run_scripted(hazard)
    purged = [
        time
        for time, category, event, _ in trace
        if (category, event) == (CLIENT, "registrar_purged")
    ]
    assert 900.0 not in purged and purged
    assert 900.0 in _sends(trace, "tcp_syn")


# --------------------------------------------------------------------------- decided events
def _net(result):
    return result.details["telemetry"]["net"]


def _record(context, times, read):
    """Append ``read()`` to the returned list at each of ``times``."""
    log = []
    for time in times:
        context.sim.schedule_at(time, lambda: log.append(read()))
    return log


def _counter(context, node, name):
    counters = context.network.endpoint(node).interface.counters
    return lambda: getattr(counters, name)


def _settled_heard(context, node=CLIENT):
    """``node``'s settled ``last_heard`` of the Lookup Service."""
    client = next(user for user in context.deployment.users if user.node_id == node)

    def read():
        state = client.registrars[LUS]
        context.network.settle(state)
        return state.last_heard

    return read


def test_restore_at_exactly_a_delivery_time_fires_first():
    """The client's receiver is down from 230 s until exactly copy 2's due
    time.  Copies 0 and 1 are due before it and are decided as dropped;
    copy 2 ties with the restore, which was armed first and fires first, so
    the copy is posted and heard at its due time."""
    assert 230.0 + (DUE - 230.0) == DUE  # the restore's calendar time

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(CLIENT, 230.0, DUE - 230.0, "rx")]

    result, _, probes = run_scripted(hazard)
    assert _heard(probes, PROBES[0]) == {LUS: DUE}
    assert _net(result)["decided_rx"] == 2


def test_restore_at_exactly_a_copy_time_fires_first():
    """The Lookup Service's transmitter is down from 230 s until exactly
    copy 2's emission time.  Copy 0 finds it down at once and copy 1 is
    decided as dropped; copy 2 ties with the restore, which fires first, so
    it leaves the transmitter and the client hears it."""
    assert 230.0 + (EMIT - 230.0) == EMIT
    logs = []

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(LUS, 230.0, EMIT - 230.0, "tx")]
        logs.append(_record(context, [PROBES[0]], _counter(context, LUS, "dropped_tx")))

    result, _, probes = run_scripted(hazard)
    assert [log[0] for log in logs] == [2, 2]
    assert _heard(probes, PROBES[0]) == {LUS: DUE}
    assert _net(result)["decided_tx"] == 1


def test_tx_onset_inside_a_copy_train_decides_nothing():
    """The Lookup Service's transmitter fails between copies 1 and 2 of its
    announcement, for 1 s.  Copies 2-5 were posted while it was up, so each
    is an event that finds it down; nothing is decided."""
    logs = []

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(LUS, 240.15, 1.0, "tx")]
        logs.append(_record(context, [COPY[5] + 0.01], _counter(context, LUS, "dropped_tx")))

    result, _, probes = run_scripted(hazard)
    assert [log[0] for log in logs] == [4, 4]  # both runs
    assert _heard(probes, PROBES[0]) == {LUS: COPY_DUE[1]}
    assert _net(result)["decided_tx"] == 0


def test_overlapping_rx_outages_decide_until_the_last_restore():
    """Two receiver outages on the client overlap: 230-240.25 s and
    240.05-240.45 s.  Copy 0 is decided against the first one's restore,
    copies 1-4 against the later restore of the second; copy 5 arrives after
    both and is heard."""
    logs = []

    def hazard(context, client):
        context.injector.plan = [
            InterfaceOutage(CLIENT, 230.0, 10.25, "rx"),
            InterfaceOutage(CLIENT, 240.05, 0.4, "rx"),
        ]
        at = [COPY[5] + 0.01]
        logs.append(_record(context, at, _counter(context, CLIENT, "dropped_rx")))
        logs.append(_record(context, at, _settled_heard(context)))

    result, _, _ = run_scripted(hazard)
    assert [log[0] for log in logs] == [5, COPY_DUE[5]] * 2
    assert _net(result)["decided_rx"] == 5


def test_restore_pending_from_before_a_rejoin_leaves_a_later_outage_alone():
    """The client's receiver fails at 230 s until 20 µs into copy 2's
    flight, but the client leaves at 235 s and rejoins at 236 s with a reset
    interface, which also discards the first outage's pending restore.  A
    second outage from 238 s to 258 s takes the receiver down again, and
    the discarded restore, due inside copy 2's flight, does not bring it
    back up.  So all six copies are decided as dropped, the client last
    heard the registrar at the announcement 120 s earlier, and only the
    second outage's restore is traced."""

    def hazard(context, client):
        context.injector.plan = [
            InterfaceOutage(CLIENT, 230.0, IN_FLIGHT - 230.0, "rx"),
            InterfaceOutage(CLIENT, 238.0, 20.0, "rx"),
        ]
        context.injector.churn = [NodeChurn(CLIENT, leave=235.0, rejoin=236.0)]

    result, trace, probes = run_scripted(hazard)
    assert _heard(probes, PROBES[0]) == {LUS: 120.0 + 0.5 + DELAY}
    assert _net(result)["decided_rx"] == 6
    assert [time for time, _, event, _ in trace if event == "interface_restored"] == [258.0]


def test_leave_inside_a_downed_sender_copy_train_stops_deciding():
    """The Lookup Service's transmitter is down from 230 s to 300 s, and it
    leaves at 240.25 s (rejoining at 241 s).  Copy 0 finds the transmitter
    down and copies 1 and 2, due before the leave, are decided as dropped;
    copies 3-5 find the sender gone and count nowhere."""
    logs = []

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(LUS, 230.0, 70.0, "tx")]
        context.injector.churn = [NodeChurn(LUS, leave=240.25, rejoin=241.0)]
        # Read through the node: the departed endpoint is off the network.
        counters = context.deployment.registries[0].endpoint.interface.counters
        logs.append(_record(context, [COPY[5] + 0.01], lambda: counters.dropped_tx))

    result, _, _ = run_scripted(hazard)
    assert [log[0] for log in logs] == [3, 3]
    assert _net(result)["decided_tx"] == 2


def test_leave_and_rejoin_inside_a_delivery_flight_deliver_it():
    """The client's receiver is down from 230 s to 300 s.  The client leaves
    10 µs into copy 2's flight and rejoins 10 µs later with a reset
    interface, so copy 2 reaches the restarted client and is heard; copies
    0 and 1, due before the leave, are decided as dropped."""

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(CLIENT, 230.0, 70.0, "rx")]
        context.injector.churn = [NodeChurn(CLIENT, leave=EMIT + 10e-6, rejoin=IN_FLIGHT)]

    result, _, probes = run_scripted(hazard)
    assert _heard(probes, PROBES[0]) == {LUS: DUE}
    assert _net(result)["decided_rx"] == 2


@pytest.mark.parametrize(
    "node,mode,counter", [(LUS, "tx", "dropped_tx"), (CLIENT, "rx", "dropped_rx")]
)
def test_decided_copies_and_deliveries_stop_at_the_run_bound(node, mode, counter):
    """The run ends 20 µs into copy 2's flight while a transmitter (or a
    receiver) is down.  Only the copies (or deliveries) due by then are
    decided: copies 1 and 2 of the Lookup Service's train, or the client's
    copies 0 and 1.  The rest stay on the calendar and count nowhere."""
    logs = []

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(node, 230.0, 70.0, mode)]
        logs.append(_record(context, [IN_FLIGHT], _counter(context, node, counter)))

    result, _, _ = run_scripted(hazard, base_spec(change_time=100.0, deadline=IN_FLIGHT))
    assert [log[0] for log in logs] == [3 if mode == "tx" else 2] * 2
    assert _net(result)["decided_" + mode] == 2


def _manager(context):
    return context.deployment.managers[0]


def _short_response_timeout(manager):
    """Let a registration or update in flight expire 1 µs after it was sent."""
    manager.config = dataclasses.replace(manager.config, response_timeout=1e-6)


def test_manager_change_service_releases_a_held_copy():
    """The Manager absorbs copy 2, and its service changes 20 µs into the
    copy's flight: it sends the update at once.  Copy 2 then finds the
    Lookup Service behind the new version and, the in-flight guard having
    expired, sends the update again at its due time."""

    def hazard(context, client):
        manager = _manager(context)
        _short_response_timeout(manager)
        context.sim.schedule_at(IN_FLIGHT, manager.change_service)

    _, trace, _ = run_scripted(hazard)
    syns = _sends(trace, "tcp_syn", MANAGER)
    assert [t for t in syns if EMIT < t <= DUE] == [IN_FLIGHT, DUE]


def test_manager_rex_drop_releases_a_held_copy():
    """The Manager drops the Lookup Service 20 µs into copy 2's flight, as a
    Remote Exception would.  Copy 2 re-learns it and registers at its due
    time."""

    def hazard(context, client):
        context.sim.schedule_at(IN_FLIGHT, _manager(context)._drop_registrar, LUS)

    _, trace, _ = run_scripted(hazard)
    assert _first_syn(trace, MANAGER) == DUE


def test_manager_register_renew_error_releases_a_held_copy():
    """A ``register_renew_error`` reaches the Manager 20 µs into copy 2's
    flight: it registers again at once.  Copy 2 finds the registration
    unacknowledged and, the in-flight guard having expired, registers again
    at its due time."""

    def hazard(context, client):
        manager = _manager(context)
        _short_response_timeout(manager)
        error = Message(LUS, MANAGER, "jini", "register_renew_error")
        context.sim.schedule_at(IN_FLIGHT, manager.handle_register_renew_error, error)

    _, trace, _ = run_scripted(hazard)
    syns = _sends(trace, "tcp_syn", MANAGER)
    assert [t for t in syns if EMIT < t <= DUE] == [IN_FLIGHT, DUE]


def test_manager_rx_outage_releases_a_held_copy():
    """The Manager's receiver fails 20 µs into copy 2's flight, for 60 s, so
    copy 2 is dropped at its due time instead of received."""
    logs = []

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(MANAGER, IN_FLIGHT, 60.0, "rx")]
        logs.append(_record(context, [PROBES[0]], _counter(context, MANAGER, "dropped_rx")))

    run_scripted(hazard)
    assert [log[0] for log in logs] == [1, 1]


def test_manager_resends_a_rex_dropped_update_on_the_next_announcement():
    """The Lookup Service's receiver is down from 1000 s to 1400 s, and the
    Manager's service changes at 1100 s.  Each update ends in a Remote
    Exception 78 s after it was sent, so the announcements at 1200, 1320
    and 1440 s each find the Lookup Service behind the new version and send
    the update again when their first copy arrives."""

    def hazard(context, client):
        context.injector.plan = [InterfaceOutage(LUS, 1000.0, 400.0, "rx")]
        context.sim.schedule_at(1100.0, _manager(context).change_service)

    _, trace, _ = run_scripted(hazard)
    syns = _sends(trace, "tcp_syn", MANAGER)
    assert {1200.0 + DELAY, 1320.0 + DELAY, 1440.0 + DELAY} <= set(syns)


def test_manager_stop_releases_a_held_copy():
    """The Manager leaves 10 µs into copy 2's flight, a Remote Exception
    drops the Lookup Service 5 µs later, and the Manager rejoins 5 µs after
    that.  Copy 2 reaches the restarted Manager, re-learns the Lookup
    Service and registers at its due time."""

    def hazard(context, client):
        manager = _manager(context)
        context.injector.churn = [NodeChurn(MANAGER, leave=EMIT + 10e-6, rejoin=IN_FLIGHT)]
        context.sim.schedule_at(EMIT + 15e-6, manager._drop_registrar, LUS)

    _, trace, _ = run_scripted(hazard)
    assert _first_syn(trace, MANAGER) == DUE


if __name__ == "__main__":
    # Every family, system and rate, at two seeds per rate.
    cells = ORACLE_CELLS + tuple((rate, seed + len(ORACLE_CELLS)) for rate, seed in ORACLE_CELLS)
    specs = oracle_specs(SCENARIOS.names(), cells)
    absorbed, decided_tx, decided_rx = check_oracle(specs)
    print(
        f"{len(specs)} cells agree with the oracle; {absorbed} copies absorbed, "
        f"{decided_tx} copies and {decided_rx} deliveries decided"
    )
    sys.exit(0)
