"""Span arithmetic, layer derivation and wrapper removal."""

from __future__ import annotations

import pytest
from spans import COUNTS, ROOT_SPAN, SpanRecorder, install, layer_metrics, layer_of


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_direct_children() -> None:
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def leaf() -> None:
        clock.now += 2.0

    wrapped_leaf = recorder.wrap("leaf", leaf)

    def middle() -> None:
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 3.0
        wrapped_leaf()

    wrapped_middle = recorder.wrap("middle", middle)

    def top() -> None:
        wrapped_middle()
        clock.now += 0.5

    recorder.wrap("top", top)()

    edges = recorder.edges
    assert edges == {
        (ROOT_SPAN, "top"): [1, 8.5, 0.5],
        ("top", "middle"): [1, 8.0, 4.0],
        ("middle", "leaf"): [2, 4.0, 4.0],
    }
    # The self times partition the outermost span's duration.
    assert sum(stat[2] for stat in edges.values()) == edges[(ROOT_SPAN, "top")][1]


def test_a_raising_span_still_closes() -> None:
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def boom() -> None:
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    recorder.wrap("after", lambda: None)()
    assert recorder.edges[(ROOT_SPAN, "boom")] == [1, 1.0, 1.0]
    assert (ROOT_SPAN, "after") in recorder.edges


def test_callbacks_are_named_by_layer_and_wrapped_once() -> None:
    recorder = SpanRecorder()
    assert layer_of("repro.protocols.federation.registrar") == "protocols.federation"
    assert layer_of("repro.protocols.base") == "protocols"
    assert layer_of("repro.net.failures") == "failures"
    assert layer_of("repro.sim.timers") == "sim"
    assert layer_of("builtins") == "other"
    wrapped = recorder.wrap_callback(layer_of)
    assert wrapped.span_name == "other.timer"
    assert recorder.wrap_callback(wrapped) is wrapped


def test_layer_metrics_from_synthetic_edges() -> None:
    edges = {
        (ROOT_SPAN, "sim.run"): [1, 10.0, 2.0],
        ("sim.run", "net.deliver"): [6, 5.0, 3.0],
        ("net.deliver", "protocols.federation.handle"): [2, 1.5, 1.0],
        ("protocols.federation.handle", "protocols.jini.handle"): [1, 0.5, 0.5],
        ("net.deliver", "discovery.unhandled"): [3, 0.5, 0.5],
        ("sim.run", "sim.timer"): [3, 3.0, 1.0],
        ("sim.timer", "protocols.frodo.timer"): [3, 2.0, 2.0],
        (ROOT_SPAN, "experiments.report"): [1, 0.5, 0.5],
    }
    counts = dict.fromkeys(COUNTS, 0)
    counts.update({"sim.events_fired": 9, "net.deliveries": 6, "net.delivered": 5})
    metrics = layer_metrics(edges, counts, wall_s=11.0, untraced_wall_s=5.5)
    assert metrics["trace.residual_s"] == pytest.approx(0.5)
    assert metrics["trace.overhead"] == pytest.approx(2.0)
    assert metrics["trace.unattributed_events"] == 0
    assert metrics["sim.self_s"] == pytest.approx(3.0)
    # The jini handler ran inside the federation one: one message handled.
    assert metrics["discovery.handled"] == 2
    assert metrics["protocols.jini.handled"] == 1
    assert metrics["discovery.useful_ratio"] == pytest.approx(0.4)
    assert metrics["protocols.frodo.timers_fired"] == 3
    assert metrics["protocols.upnp.ns_per_handled"] == 0.0

    counts["sim.events_fired"] = 10
    assert layer_metrics(edges, counts, 11.0)["trace.unattributed_events"] == 1


def _snapshot() -> dict:
    from repro.core.metrics import MetricSummary
    from repro.discovery.node import DiscoveryNode
    from repro.experiments import report, runner
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import ScenarioFamily
    from repro.net.interfaces import Endpoint
    from repro.net.network import Network
    from repro.net.tcp import _TcpExchange
    from repro.protocols.registry import DeploymentRegistry
    from repro.sim.engine import Simulator
    from repro.sim.timers import OneShotTimer, PeriodicTimer, TimerWheel

    owners = [
        MetricSummary,
        report,
        runner,
        ExperimentRunner,
        ScenarioFamily,
        Endpoint,
        Network,
        _TcpExchange,
        DeploymentRegistry,
        Simulator,
        OneShotTimer,
        PeriodicTimer,
        TimerWheel,
        DiscoveryNode,
    ]
    stack = list(DiscoveryNode.__subclasses__())
    while stack:
        cls = stack.pop()
        owners.append(cls)
        stack.extend(cls.__subclasses__())
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_install_and_restore_put_every_attribute_back() -> None:
    from repro.net.interfaces import Endpoint

    original = vars(Endpoint)["deliver"]
    before = _snapshot()
    patches = install(SpanRecorder())
    try:
        assert vars(Endpoint)["deliver"] is not original
    finally:
        patches.restore()
    assert vars(Endpoint)["deliver"] is original
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
