"""Hand-computed fixtures for the Update Metrics (Section 4.5)."""

import pytest

from repro.core.metrics import (
    MetricSummary,
    RunResult,
    effectiveness,
    efficiency_degradation,
    responsiveness,
    update_efficiency,
)
from repro.net.addressing import MULTICAST_GROUP
from repro.net.messages import Message, MessageLayer
from repro.net.stats import MessageStats


def make_run(update_times, y=7, system="frodo3", rate=0.0, change=100.0, deadline=200.0):
    return RunResult(
        system=system,
        failure_rate=rate,
        seed=0,
        change_time=change,
        deadline=deadline,
        user_update_times=update_times,
        update_message_count=y,
    )


def test_latencies_hand_computed():
    # Change at 100, deadline at 200 -> window of 100 s.
    run = make_run({"u1": 125.0, "u2": 150.0, "u3": None})
    # L = (U - C) / (D - C): 0.25, 0.5, and 1.0 for the never-updated user.
    assert run.latencies() == [0.25, 0.5, 1.0]
    assert run.users_updated() == 2


def test_update_at_deadline_counts_as_miss():
    run = make_run({"u1": 200.0})
    assert run.latencies() == [1.0]
    assert run.users_updated() == 0


def test_responsiveness_is_median_of_one_minus_latency():
    run = make_run({"u1": 125.0, "u2": 150.0, "u3": None})
    # 1 - L values: 0.75, 0.5, 0.0 -> median 0.5.
    assert responsiveness([run]) == 0.5


def test_effectiveness_is_fraction_updated_before_deadline():
    runs = [
        make_run({"u1": 120.0, "u2": None}),
        make_run({"u1": 130.0, "u2": 180.0}),
    ]
    assert effectiveness(runs) == pytest.approx(3 / 4)


def test_update_efficiency_mean_of_capped_ratio():
    # m = 7; y = 14 and y = 7 -> ratios 0.5 and 1.0 -> mean 0.75.
    runs = [make_run({"u1": 120.0}, y=14), make_run({"u1": 120.0}, y=7)]
    assert update_efficiency(runs) == pytest.approx(0.75)


def test_update_efficiency_conventions():
    # y = 0 (no update messages at all) contributes 0, not a division error;
    # y < m is capped at 1 so partial propagation cannot beat the baseline.
    runs = [make_run({"u1": None}, y=0), make_run({"u1": 120.0}, y=3)]
    assert update_efficiency(runs) == pytest.approx((0.0 + 1.0) / 2)


def test_efficiency_degradation_uses_system_m_prime():
    runs = [make_run({"u1": 120.0}, y=20)]
    assert efficiency_degradation(runs, m_prime=10) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        efficiency_degradation(runs, m_prime=0)


def test_efficiency_degradation_y_zero_contributes_zero():
    # A run whose Manager was cut off for the whole propagation window sends
    # no update messages at all: its contribution is 0, not a ZeroDivisionError.
    runs = [make_run({"u1": None}, y=0), make_run({"u1": 120.0}, y=10)]
    assert efficiency_degradation(runs, m_prime=10) == pytest.approx((0.0 + 1.0) / 2)


def test_efficiency_degradation_capped_at_one():
    # y < m' (e.g. a lucky run with fewer messages than the baseline) must not
    # look *better* than failure-free: the ratio is capped at 1.
    runs = [make_run({"u1": 120.0}, y=3)]
    assert efficiency_degradation(runs, m_prime=7) == 1.0
    assert update_efficiency(runs) == 1.0


# --------------------------------------------------------------------------- message accounting
def _record(stats, time, message, copies=1):
    stats.record(
        time,
        message.sender,
        message.receiver,
        message.protocol,
        message.kind,
        message.layer,
        message.update_related,
        message.is_multicast,
        copies,
    )


def _multicast(kind="msearch", protocol="upnp", update_related=True):
    return Message(
        sender="a",
        receiver=MULTICAST_GROUP,
        protocol=protocol,
        kind=kind,
        update_related=update_related,
    )


def test_redundant_multicast_counts_once_logically():
    # Rule 4 (EXPERIMENTS.md): a logical multicast transmitted as 6 redundant
    # copies (UPnP/Jini, Table 3) counts once towards y; the copies remain
    # visible through total_copies.
    stats = MessageStats()
    _record(stats, 10.0, _multicast(), copies=6)
    assert stats.update_messages() == 1
    assert [rec.copies for rec in stats.sent] == [6]
    assert stats.total_sent(layer=MessageLayer.DISCOVERY) == 1
    assert stats.total_copies == 6


def test_unicast_messages_count_per_attempt():
    # The unicast rule: every attempt that leaves the transmitter is one
    # message — there is no copy collapsing for unicast sends.
    stats = MessageStats()
    for _ in range(3):
        _record(
            stats,
            10.0,
            Message(
                sender="a",
                receiver="b",
                protocol="jini",
                kind="service_update",
                update_related=True,
            ),
        )
    assert stats.update_messages() == 3
    assert stats.total_copies == 3


def test_transport_layer_excluded_from_update_count():
    # TCP segments are transport overhead: excluded from y (Table 2's note for
    # the UPnP/Jini models) but reported separately.
    stats = MessageStats()
    _record(
        stats,
        5.0,
        Message(
            sender="a", receiver="b", protocol="jini", kind="service_update", update_related=True
        ),
    )
    _record(
        stats,
        5.0,
        Message(
            sender="a",
            receiver="b",
            protocol="jini",
            kind="tcp_data_retransmit",
            update_related=True,
            layer=MessageLayer.TRANSPORT,
        ),
    )
    assert stats.update_messages() == 1
    assert sum(rec.update_related for rec in stats.sent) == 2
    assert stats.transport_overhead() == 1


def test_metric_summary_from_runs():
    runs = [
        make_run({"u1": 125.0, "u2": 150.0}, y=7),
        make_run({"u1": 150.0, "u2": None}, y=14),
    ]
    summary = MetricSummary.from_runs(runs, m_prime=7)
    assert summary.system == "frodo3"
    assert summary.runs == 2
    # Latencies: 0.25, 0.5, 0.5, 1.0 -> 1-L: 0.75, 0.5, 0.5, 0.0 -> median 0.5.
    assert summary.responsiveness == 0.5
    assert summary.effectiveness == pytest.approx(3 / 4)
    assert summary.update_efficiency == pytest.approx((1.0 + 0.5) / 2)
    assert summary.mean_update_messages == pytest.approx(10.5)


def test_metric_summary_rejects_mixed_cells():
    runs = [make_run({"u1": 120.0}), make_run({"u1": 120.0}, rate=0.2)]
    with pytest.raises(ValueError):
        MetricSummary.from_runs(runs, m_prime=7)
