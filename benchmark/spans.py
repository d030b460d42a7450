"""Outside-in span tracing of the ``repro`` layers (the benchmark's traced pass).

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the entry points of each layer at class (or module) level with span
wrappers before any deployment is built, and :meth:`Patches.restore` puts
the original attributes back.  Engine callbacks are covered in two ways:

* the seven targets the engine ``post``s (``Endpoint.deliver``,
  ``Network._emit_multicast_copy``, ``Network._deliver_with_callback`` and
  the four ``_TcpExchange`` steps) are wrapped once at class level, because
  wrapping each posted callback costs a closure per message;
* callbacks handed to ``Simulator.schedule``/``schedule_at``,
  ``TimerWheel.schedule``/``schedule_at`` and the ``OneShotTimer`` /
  ``PeriodicTimer`` constructors are wrapped as they are scheduled, and
  named after the layer of the module that defines them.

Spans aggregate in memory per (parent span, span) edge as [count, total
seconds, self seconds]; self time is a span's duration minus the duration
of its direct children, taken from a span stack.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Name of the implicit root frame (the parent of top-level spans).
ROOT_SPAN = ""

#: Protocol families reported per layer (the ``repro.protocols`` packages).
FAMILIES = ("frodo", "jini", "upnp", "federation")

#: The exact per-layer counts, taken from the runs' telemetry.
COUNTS = (
    "sim.events_fired",
    "sim.events_scheduled",
    "sim.timers_scheduled",
    "sim.timers_cancelled",
    "sim.heap_hwm",
    "net.sends",
    "net.send_copies",
    "net.multicast_sends",
    "net.deliveries",
    "net.delivered",
    "net.dropped_rx",
    "net.link_losses",
    "net.link_cut_drops",
)

Edges = Dict[Tuple[str, str], List[float]]


class SpanRecorder:
    """In-memory span aggregates keyed by (parent name, name)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # name -> parent name -> [count, total, self]; spans of one name
        # share the inner dict, so the hot path allocates no key tuple.
        self._by_name: Dict[str, Dict[str, List[float]]] = {}
        self._stack: List[List[Any]] = [[ROOT_SPAN, 0.0]]
        self._callback_names: Dict[str, str] = {}

    @property
    def edges(self) -> Edges:
        """The aggregates keyed by (parent name, name)."""
        return {
            (parent, name): list(stat)
            for name, parents in self._by_name.items()
            for parent, stat in parents.items()
        }

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        parents = self._by_name.setdefault(name, {})
        clock = self.clock

        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat = parents.get(parent[0])
                if stat is None:
                    stat = parents[parent[0]] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]

        span.span_name = name  # type: ignore[attr-defined]
        return span

    def wrap_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a scheduled callback in a ``<layer>.timer`` span (once)."""
        if getattr(callback, "span_name", None) is not None:
            return callback
        module = getattr(callback, "__module__", None) or ""
        name = self._callback_names.get(module)
        if name is None:
            name = self._callback_names[module] = layer_of(module) + ".timer"
        return self.wrap(name, callback)


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to (``protocols.<family>`` for protocols)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "protocols" and len(parts) > 3:
        return "protocols." + parts[2]
    if module == "repro.net.failures":
        return "failures"
    return parts[1]


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Any]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by ``make(function)``.

        Static and class methods are unwrapped first and re-wrapped after,
        so the replacement binds exactly as the original did.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new: Any = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _wrap_callback_argument(recorder: SpanRecorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` with its ``callback`` parameter passed through :meth:`wrap_callback`."""
    index = list(inspect.signature(fn).parameters).index("callback")
    wrap_callback = recorder.wrap_callback

    def patched(*args: Any, **kwargs: Any) -> Any:
        if len(args) > index:
            args = args[:index] + (wrap_callback(args[index]),) + args[index + 1 :]
        elif "callback" in kwargs:
            kwargs["callback"] = wrap_callback(kwargs["callback"])
        return fn(*args, **kwargs)

    return patched


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(recorder: SpanRecorder) -> Patches:
    """Install every span wrapper; call :meth:`Patches.restore` when done."""
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

    targets: List[Tuple[Any, str, str]] = [
        (Simulator, "run", "sim.run"),
        (Simulator, "post", "sim.post"),
        (Simulator, "post_at", "sim.post"),
        (ExperimentRunner, "setup", "experiments.setup"),
        (ExperimentRunner, "collect", "experiments.collect"),
        (DeploymentRegistry, "build", "protocols.build"),
        (ScenarioFamily, "build", "experiments.scenarios_build"),
        (runner, "collect_run_telemetry", "obs.telemetry"),
        (MetricSummary, "from_runs", "core.metrics"),
        (report, "sweep_to_dict", "experiments.report"),
        (report, "to_json", "experiments.report"),
        (Network, "transmit_unicast", "net.transmit_unicast"),
        (Network, "transmit_multicast", "net.transmit_multicast"),
        (Network, "_emit_multicast_copy", "net.emit_copy"),
        (Network, "_deliver_with_callback", "net.deliver_callback"),
        (Endpoint, "deliver", "net.deliver"),
        (_TcpExchange, "_attempt_connection", "net.tcp"),
        (_TcpExchange, "_start_data_transfer", "net.tcp"),
        (_TcpExchange, "_attempt_data", "net.tcp"),
        (_TcpExchange, "_deliver", "net.tcp"),
        (DiscoveryNode, "on_unhandled", "discovery.unhandled"),
    ]
    for cls in _subclasses(DiscoveryNode):
        name = layer_of(cls.__module__) + ".handle"
        targets.extend((cls, attr, name) for attr in vars(cls) if attr.startswith("handle_"))

    patches = Patches()
    try:
        for owner, attr, name in targets:
            patches.replace(owner, attr, lambda fn, name=name: recorder.wrap(name, fn))
        for owner, attr in (
            (Simulator, "schedule"),
            (Simulator, "schedule_at"),
            (TimerWheel, "schedule"),
            (TimerWheel, "schedule_at"),
            (OneShotTimer, "__init__"),
            (PeriodicTimer, "__init__"),
        ):
            patches.replace(owner, attr, lambda fn: _wrap_callback_argument(recorder, fn))
    except BaseException:
        patches.restore()
        raise
    return patches


# --------------------------------------------------------------------------- layer metrics
def by_name(edges: Edges) -> Dict[str, List[float]]:
    """Aggregate edges per span name: [count, total seconds, self seconds]."""
    out: Dict[str, List[float]] = {}
    for (_parent, name), (count, total, self_s) in edges.items():
        stat = out.setdefault(name, [0, 0.0, 0.0])
        stat[0] += count
        stat[1] += total
        stat[2] += self_s
    return out


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(
    edges: Edges,
    counts: Dict[str, int],
    wall_s: float,
    untraced_wall_s: Optional[float] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``edges`` are the traced pass's span aggregates, ``counts`` the exact
    telemetry counts of the same cells, ``wall_s`` the traced wall time the
    spans were recorded in, and ``untraced_wall_s`` the untraced wall time
    of the same work (for the overhead ratio).  Every ``*_s`` layer figure
    is self time, so the layers partition the traced wall time and
    ``trace.residual_s`` is the part no span covered.
    """
    names = by_name(edges)

    def count(name: str) -> int:
        return int(names.get(name, (0, 0.0, 0.0))[0])

    def self_s(*span_names: str) -> float:
        return sum(names.get(name, (0, 0.0, 0.0))[2] for name in span_names)

    handle_spans = {name for name in names if name.endswith(".handle")}
    outermost_handled = sum(
        stat[0]
        for (parent, name), stat in edges.items()
        if name in handle_spans and parent not in handle_spans
    )
    run_children = sum(stat[0] for (parent, _name), stat in edges.items() if parent == "sim.run")

    sim_s = self_s("sim.run", "sim.timer")
    metrics: Dict[str, float] = {name: counts[name] for name in COUNTS if name.startswith("sim.")}
    metrics.update(
        {
            "sim.self_s": sim_s,
            "sim.ns_per_event": _per(sim_s, counts["sim.events_fired"], 1e9),
            "sim.post_s": self_s("sim.post"),
            "sim.post_ns": _per(self_s("sim.post"), count("sim.post"), 1e9),
        }
    )
    metrics.update((name, counts[name]) for name in COUNTS if name.startswith("net."))
    emit_s = self_s("net.transmit_unicast", "net.transmit_multicast", "net.emit_copy")
    deliver_s = self_s("net.deliver", "net.deliver_callback")
    metrics.update(
        {
            "net.emit_s": emit_s,
            "net.emit_ns_per_delivery": _per(emit_s, counts["net.deliveries"], 1e9),
            "net.deliver_s": deliver_s,
            "net.deliver_ns": _per(deliver_s, count("net.deliver"), 1e9),
            "net.tcp_s": self_s("net.tcp"),
            "net.tcp_steps": count("net.tcp"),
            "discovery.handled": outermost_handled,
            "discovery.unhandled": count("discovery.unhandled"),
            "discovery.useful_ratio": _per(outermost_handled, counts["net.delivered"]),
            "discovery.unhandled_s": self_s("discovery.unhandled"),
        }
    )
    for family in FAMILIES:
        prefix = f"protocols.{family}"
        handle_s = self_s(prefix + ".handle")
        handled = count(prefix + ".handle")
        metrics[prefix + ".handle_s"] = handle_s
        metrics[prefix + ".handled"] = handled
        metrics[prefix + ".ns_per_handled"] = _per(handle_s, handled, 1e9)
        metrics[prefix + ".timer_s"] = self_s(prefix + ".timer")
        metrics[prefix + ".timers_fired"] = count(prefix + ".timer")
    total_self = sum(stat[2] for stat in names.values())
    metrics.update(
        {
            "protocols.build_s": self_s("protocols.build"),
            "failures.s": self_s("failures.timer"),
            "failures.ops": count("failures.timer"),
            "experiments.setup_s": self_s("experiments.setup"),
            "experiments.scenarios_build_s": self_s("experiments.scenarios_build"),
            "experiments.collect_s": self_s("experiments.collect"),
            "experiments.report_s": self_s("experiments.report"),
            "obs.telemetry_s": self_s("obs.telemetry"),
            "core.metrics_s": self_s("core.metrics"),
            "trace.wall_s": wall_s,
            "trace.residual_s": wall_s - total_self,
            "trace.overhead": _per(wall_s, untraced_wall_s or 0.0),
            "trace.unattributed_events": counts["sim.events_fired"] - run_children,
        }
    )
    return metrics
