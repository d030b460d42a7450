"""Send accounting against a recount of the trace.

Every send figure a run reports is a read of the network's send counter
(:class:`repro.net.stats.MessageStats`): y, its per-kind and per-registry
splits, the discovery and transport totals, and telemetry's five send
fields.  The :meth:`~repro.net.network.Network.record_send` call that feeds
the counter also writes a ``net/send`` trace record with the send's fields.
The oracle shares no code with the counter: it captures each cell's records
in a ``MemorySink`` and recounts every figure from them alone, by the
accounting rules of EXPERIMENTS.md (y: update-related, discovery layer,
``t >= change_time``; a multicast counts once, with its copies).

The tier-1 test runs every system under every scenario family at one rate,
rotated per family; ``python tests/test_send_accounting.py`` runs both rates,
0 and 40 %, for every system and family.
"""

import math
import sys
from collections import Counter

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.scenarios import SCENARIOS
from repro.protocols.registry import SYSTEMS

#: Every registered system, plus pull and gossip federations.
ORACLE_SYSTEMS = (*SYSTEMS.names(), "jini@k=4,mode=pull", "jini@k=2,mode=gossip")
#: One (failure rate, seed) cell per rate.
ORACLE_CELLS = ((0.0, 1), (0.4, 3))
#: Telemetry's ``net`` fields that count sends.
TELEMETRY_SEND_FIELDS = (
    "sends",
    "send_copies",
    "multicast_sends",
    "sends_by_layer",
    "update_sends",
)


def recount(records, change_time, registry_ids):
    """Every reported send figure, recounted from ``net/send`` records."""
    sends = copies = multicast = update = 0
    by_layer, by_kind, by_sender = Counter(), Counter(), Counter()
    for record in records:
        if (record.category, record.event) != ("net", "send"):
            continue
        fields = record.fields
        sends += 1
        copies += fields["copies"]
        multicast += fields["multicast"]
        by_layer[fields["layer"]] += 1
        if fields["update_related"] and fields["layer"] == "discovery":
            update += 1
            if record.time >= change_time:
                by_kind[f"{fields['protocol']}.{fields['kind']}"] += 1
                by_sender[fields["sender"]] += 1
    figures = {
        "y": sum(by_kind.values()),
        "update_counts_by_kind": dict(by_kind),
        "total_discovery_messages": by_layer["discovery"],
        "transport_message_count": by_layer["transport"],
        "sends": sends,
        "send_copies": copies,
        "multicast_sends": multicast,
        "sends_by_layer": dict(by_layer),
        "update_sends": update,
    }
    if registry_ids is not None:
        figures["per_registry_update_messages"] = {rid: by_sender[rid] for rid in registry_ids}
    return figures


def reported(result):
    """The same figures, as the run reported them."""
    details = result.details
    net = details["telemetry"]["net"]
    figures = {
        "y": result.update_message_count,
        "update_counts_by_kind": details["update_counts_by_kind"],
        "total_discovery_messages": result.total_discovery_messages,
        "transport_message_count": result.transport_message_count,
        **{name: net[name] for name in TELEMETRY_SEND_FIELDS},
    }
    if "federation" in details:
        federation = details["federation"]
        figures["per_registry_update_messages"] = federation["per_registry_update_messages"]
    return figures


def check_cell(spec):
    """Run ``spec`` traced in memory; return its reported and recounted figures."""
    runner = ExperimentRunner()
    context = runner.setup(spec)
    result = runner.execute(context)
    registry_ids = None
    if "federation" in result.details:
        registry_ids = [node.node_id for node in context.deployment.registries]
    records = context.sim.tracer.sink.records
    return reported(result), recount(records, result.change_time, registry_ids)


def oracle_specs(scenarios, cells=ORACLE_CELLS):
    """Every (scenario, system, cell) combination, traced in memory."""
    return [
        ScenarioSpec(system=system, failure_rate=rate, seed=seed, scenario=scenario, trace=True)
        for scenario in scenarios
        for system in ORACLE_SYSTEMS
        for rate, seed in cells
    ]


def tier1_specs(scenario):
    """Each system at one cell, rotated per scenario so each sees both rates."""
    shift = SCENARIOS.names().index(scenario)
    specs = []
    for index, system in enumerate(ORACLE_SYSTEMS):
        rate, seed = ORACLE_CELLS[(index + shift) % len(ORACLE_CELLS)]
        specs.append(
            ScenarioSpec(system=system, failure_rate=rate, seed=seed, scenario=scenario, trace=True)
        )
    return specs


@pytest.mark.parametrize("scenario", SCENARIOS.names())
def test_send_counters_equal_the_trace_recount(scenario):
    for spec in tier1_specs(scenario):
        got, want = check_cell(spec)
        assert got == want, spec.describe()


def test_collect_refuses_a_window_that_does_not_start_at_the_change():
    runner = ExperimentRunner()
    context = runner.setup(ScenarioSpec(system="frodo3", failure_rate=0.0, seed=1))
    result = runner.execute(context)
    stats = context.network.stats
    assert stats.window_start == result.change_time
    stats.window_start = math.nextafter(result.change_time, math.inf)
    with pytest.raises(RuntimeError, match="counted y from"):
        runner.collect(context)


if __name__ == "__main__":
    specs = oracle_specs(SCENARIOS.names())
    mismatches = 0
    for spec in specs:
        got, want = check_cell(spec)
        for name in sorted(want):
            if got[name] != want[name]:
                mismatches += 1
                print(f"{spec.describe()}: {name} reported {got[name]!r}, recounted {want[name]!r}")
    print(f"{len(specs)} cells, {mismatches} mismatches between the send counters and the trace")
    sys.exit(1 if mismatches else 0)
