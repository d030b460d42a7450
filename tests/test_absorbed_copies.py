"""Absorbed announcement copies against an oracle that absorbs nothing.

The network absorbs a Jini client's copies of a known Lookup Service's
announcement instead of posting them as events (see
:class:`repro.net.network.Network`).  The oracle shares no code with that
path: it runs the same cell again with every endpoint's refresh maps
cleared after ``ExperimentRunner.setup``, so the network finds nothing to
absorb and every copy is an event, as before absorption existed.  The two
runs must agree on everything but the work counts, and on those
``events_fired + net.absorbed`` must equal the oracle's ``events_fired``
while ``heap_hwm`` can only fall.

The scripted cells put one hazard inside a copy's flight, where a wrong
absorption would show.  Delays are pinned to 50 µs, so the copy ``j`` of
the Lookup Service's announcement at 240 s is emitted at ``240 + 0.1 j`` s
and due 50 µs later; each hazard strikes copy 2 20 µs into its flight.
Every scripted cell also compares the in-memory traces and a probe of
each client's settled ``last_heard``, and checks the outcome derived by
hand in its docstring.

The tier-1 test runs one cell per system under three scenario families;
``python tests/test_absorbed_copies.py`` runs every family, system and
rate at two seeds each.
"""

import contextlib
import dataclasses
import sys

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.scenarios import SCENARIOS
from repro.net import network as network_module
from repro.net import tcp as tcp_module
from repro.net.failures import InterfaceOutage, NodeChurn

#: Push, pull, gossip, multi-homed and partitioned Jini deployments.
ORACLE_SYSTEMS = (
    "jini1",
    "jini2",
    "jini@k=4",
    "jini@k=4,mode=pull",
    "jini@assign=partition,k=2,mode=gossip",
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


def run_cell(spec, absorb=True, script=None):
    """Run ``spec``; return its result, its trace and the script's probe log.

    ``absorb=False`` is the oracle: the refresh maps are cleared before the
    run, so no copy is absorbed.  ``script(context)`` schedules the
    hazard and returns the list its probes append to.
    """
    runner = ExperimentRunner()
    context = runner.setup(spec)
    if not absorb:
        for endpoint in context.network.endpoints():
            endpoint.refresh.clear()
    probes = script(context) if script is not None else []
    result = runner.execute(context)
    sink = context.sim.tracer.sink  # a MemorySink for ``trace=True`` specs, else None
    records = sink.records if sink is not None else []
    trace = [(r.time, r.category, r.event, r.fields) for r in records]
    return result, trace, probes


def _pop_work(data):
    details = data["details"]
    engine = details["telemetry"]["engine"]
    fired = engine.pop("events_fired")
    assert details.pop("executed_events") == fired
    return fired, details["telemetry"]["net"].pop("absorbed"), engine.pop("heap_hwm")


def assert_only_work_moved(result, reference):
    """Equal results but for the work counts, which conserve; returns ``absorbed``."""
    got, want = result.to_dict(), reference.to_dict()
    fired, absorbed, hwm = _pop_work(got)
    want_fired, want_absorbed, want_hwm = _pop_work(want)
    assert got == want
    assert want_absorbed == 0
    assert fired + absorbed == want_fired
    assert hwm <= want_hwm
    return absorbed


def check_oracle(specs):
    """Run every cell both ways; returns the copies absorbed over all of them."""
    absorbed = 0
    for spec in specs:
        result, _, _ = run_cell(spec)
        reference, _, _ = run_cell(spec, absorb=False)
        absorbed += assert_only_work_moved(result, reference)
    return absorbed


@pytest.mark.parametrize("scenario", TIER1_SCENARIOS)
def test_absorbing_moves_only_the_work_counts(scenario):
    assert check_oracle(tier1_specs(scenario)) > 0


# --------------------------------------------------------------------------- scripted hazards
LUS = "jini-lus-1"
CLIENT = "jini-user-1"
DELAY = 50e-6
#: Copy 2 of the announcement at 240 s: emitted, and due.
EMIT = 240.0 + 2 * 0.1
DUE = EMIT + DELAY
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
        reference, ref_trace, ref_probes = run_cell(spec, absorb=False, script=scripted(hazard))
    assert assert_only_work_moved(result, reference) > 0
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


def _first_syn(trace):
    return min(t for t in _sends(trace, "tcp_syn") if t > EMIT)


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
    still knows the registrar, so all five clients absorb the six copies
    of the announcement at 360 s, which refreshes it to its last copy's
    due time."""
    absorbed = []

    def hazard(context, client):
        context.injector.churn = [NodeChurn(CLIENT, leave=IN_FLIGHT, rejoin=300.0)]
        for time in (359.0, 361.0):
            context.sim.schedule_at(time, lambda: absorbed.append(context.network.absorbed))

    _, _, probes = run_scripted(hazard)
    assert _heard(probes, PROBES[0]) == {LUS: 240.0 + 0.1 + DELAY}
    assert _heard(probes, PROBES[1]) == {LUS: 360.0 + 0.5 + DELAY}
    before, after, oracle_before, oracle_after = absorbed
    assert (after - before, oracle_after - oracle_before) == (5 * 6, 0)


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


if __name__ == "__main__":
    # Every family, system and rate, at two seeds per rate.
    cells = ORACLE_CELLS + tuple((rate, seed + len(ORACLE_CELLS)) for rate, seed in ORACLE_CELLS)
    specs = oracle_specs(SCENARIOS.names(), cells)
    total = check_oracle(specs)
    print(f"{len(specs)} cells agree with the oracle; {total} copies absorbed")
    sys.exit(0)
