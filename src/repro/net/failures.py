"""Failure injection: interface outages, node churn, lossy links (Section 5, Step 2).

The paper's model fails each node's transmitter, receiver, or both exactly
once per run: the outage begins at a random time drawn uniformly from
[100 s, 5400 s] and lasts for a fraction ``failure_rate`` of the 5400 s run.
Failing only one direction models a communication failure (the node can still
send but not receive, or vice versa); failing both models a node failure.

This module generalises that model into a typed *disruption plan*: a
deterministic, seed-derived list of events —

* :class:`InterfaceOutage` — one contiguous tx/rx/both outage.  Outages may
  repeat and overlap on the same node; the depth-counted
  :class:`~repro.net.interfaces.NetworkInterface` keeps a direction down
  until the last overlapping outage ends.
* :class:`NodeChurn` — a node leaves the network mid-run (its endpoint is
  removed and its process stopped) and optionally rejoins later with a fresh
  interface, re-running its protocol bootstrap (flash-crowd rediscovery).
* :class:`LossWindow` — a window during which every on-wire delivery is
  dropped independently with a fixed probability (lossy-link emulation via
  :meth:`~repro.net.network.Network.push_loss`).
* :class:`LinkCut` — a window during which one point-to-point link is
  severed entirely (network-partition emulation via
  :meth:`~repro.net.network.Network.cut_link`); the partition scenario
  family cuts every cross link of a federation bipartition this way.

A :class:`DisruptionPlan` bundles the three event lists plus any extra
service-change times; :class:`FailureInjector` applies a plan to a network
and accounts the *realized* per-node downtime against the measurement
deadline (an outage window overrunning the run contributes only its
in-run part, so nominal lambda and realized downtime can be compared
honestly — see :meth:`FailureInjector.failure_telemetry`).
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.addressing import Address
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import Process

#: The three outage modes and how they map onto interface directions.
FAILURE_MODES: Dict[str, Dict[str, bool]] = {
    "tx": {"tx": True, "rx": False},
    "rx": {"tx": False, "rx": True},
    "both": {"tx": True, "rx": True},
}


@dataclass(frozen=True)
class InterfaceOutage:
    """One contiguous outage of a node's transmitter and/or receiver."""

    node: Address
    start: float
    duration: float
    mode: str  # "tx", "rx" or "both"

    @property
    def end(self) -> float:
        """Time at which the interface is restored."""
        return self.start + self.duration

    @property
    def fails_tx(self) -> bool:
        """``True`` when the transmitter is down during the outage."""
        return FAILURE_MODES[self.mode]["tx"]

    @property
    def fails_rx(self) -> bool:
        """``True`` when the receiver is down during the outage."""
        return FAILURE_MODES[self.mode]["rx"]

    def covers(self, time: float) -> bool:
        """``True`` when ``time`` falls inside the outage window."""
        return self.start <= time < self.end

    def clamped(self, deadline: float) -> Tuple[float, float]:
        """The effective ``(start, end)`` window within a run ending at ``deadline``."""
        start = min(self.start, deadline)
        return start, max(start, min(self.end, deadline))


@dataclass(frozen=True)
class NodeChurn:
    """One node leaving the network mid-run, optionally rejoining later."""

    node: Address
    leave: float
    #: Rejoin time; ``None`` means the node never returns.
    rejoin: Optional[float] = None

    def validate(self) -> "NodeChurn":
        """Raise :class:`ValueError` on an inconsistent event."""
        if self.leave < 0:
            raise ValueError(f"leave time must be >= 0, got {self.leave!r}")
        if self.rejoin is not None and self.rejoin <= self.leave:
            raise ValueError(
                f"rejoin time {self.rejoin!r} must be after leave time {self.leave!r}"
            )
        return self


@dataclass(frozen=True)
class LossWindow:
    """A window during which on-wire deliveries drop with a fixed probability."""

    start: float
    duration: float
    drop_probability: float

    @property
    def end(self) -> float:
        """Time at which the window closes."""
        return self.start + self.duration

    def validate(self) -> "LossWindow":
        """Raise :class:`ValueError` on an inconsistent window."""
        if self.duration <= 0:
            raise ValueError(f"loss window duration must be positive, got {self.duration!r}")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1], got {self.drop_probability!r}"
            )
        return self


@dataclass(frozen=True)
class LinkCut:
    """A window during which the undirected ``a``-``b`` link is severed."""

    a: Address
    b: Address
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Time at which the link is healed."""
        return self.start + self.duration

    def validate(self) -> "LinkCut":
        """Raise :class:`ValueError` on an inconsistent cut."""
        if self.a == self.b:
            raise ValueError(f"link cut endpoints must differ, got {self.a!r} twice")
        if self.start < 0:
            raise ValueError(f"link cut start must be >= 0, got {self.start!r}")
        if self.duration <= 0:
            raise ValueError(f"link cut duration must be positive, got {self.duration!r}")
        return self


@dataclass(frozen=True)
class DisruptionPlan:
    """Every disruption of one run, as typed, seed-derived events.

    Plans are pure data: building one draws from RNG streams but applying it
    is deterministic, so a plan can be rebuilt from the spec for inspection.
    """

    outages: Tuple[InterfaceOutage, ...] = ()
    churn: Tuple[NodeChurn, ...] = ()
    loss_windows: Tuple[LossWindow, ...] = ()
    #: Additional service-change times on top of the spec's ``change_time``.
    extra_change_times: Tuple[float, ...] = ()
    #: Point-to-point links severed for a window (partition scenarios).
    link_cuts: Tuple[LinkCut, ...] = ()

    @property
    def n_events(self) -> int:
        """Total number of typed disruption events in the plan."""
        return (
            len(self.outages)
            + len(self.churn)
            + len(self.loss_windows)
            + len(self.extra_change_times)
            + len(self.link_cuts)
        )


#: Outages never start before this time: the discovery phase is failure-free.
EARLIEST_ONSET = 100.0


def build_interface_failure_plan(
    node_ids: Iterable[Address],
    failure_rate: float,
    rng: random.Random,
    deadline: float,
) -> List[InterfaceOutage]:
    """Draw one outage per node according to the paper's failure model.

    ``failure_rate`` is the paper's lambda (0 <= lambda <= 1): the proportion
    of the run (``deadline`` seconds) during which the chosen interface
    directions are down.  Each node's onset is drawn uniformly from
    [:data:`EARLIEST_ONSET`, ``deadline``] and its mode uniformly from
    :data:`FAILURE_MODES`, so a window drawn late overruns the run (the
    injector accounts only its in-run part).  A rate of zero yields an empty
    plan.
    """
    if not 0.0 <= failure_rate <= 1.0:
        raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate!r}")
    plan: List[InterfaceOutage] = []
    if failure_rate == 0.0:
        return plan
    duration = failure_rate * deadline
    latest_onset = max(EARLIEST_ONSET, deadline)
    modes = list(FAILURE_MODES)
    for node in node_ids:
        start = rng.uniform(EARLIEST_ONSET, latest_onset)
        mode = rng.choice(modes)
        plan.append(InterfaceOutage(node=node, start=start, duration=duration, mode=mode))
    return plan


def merged_downtime(
    outages: Iterable[InterfaceOutage], deadline: Optional[float] = None
) -> Dict[Address, float]:
    """Realized per-node downtime: the union of each node's outage windows.

    Windows are clamped to ``deadline`` (when given) before merging, so an
    outage that overruns the run contributes only its in-run part.  Overlapping
    and repeated windows on one node count once per covered second — exactly
    the time some chosen direction of the node was forced down.
    """
    windows: Dict[Address, List[Tuple[float, float]]] = {}
    for outage in outages:
        if deadline is None:
            span = (outage.start, outage.end)
        else:
            span = outage.clamped(deadline)
        if span[1] > span[0]:
            windows.setdefault(outage.node, []).append(span)
    realized: Dict[Address, float] = {}
    for node, spans in windows.items():
        spans.sort()
        total = 0.0
        current_start, current_end = spans[0]
        for start, end in spans[1:]:
            if start > current_end:
                total += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        total += current_end - current_start
        realized[node] = total
    return realized


class FailureInjector(Process):
    """Applies a disruption plan to the endpoints (and nodes) of a network.

    ``plan`` is the outage list; churn, loss windows and link cuts are
    optional extras.  ``deadline`` is the end of the run: events at or past
    it are not scheduled, and realized downtime is clamped to it.
    ``node_resolver`` maps a node id to its
    :class:`~repro.sim.process.Process` (one with an ``endpoint``), or to
    ``None``, so departed nodes can be stopped and rejoining nodes restarted.

    Every endpoint lookup is guarded: an outage (or restore) targeting a node
    that has departed the network is *skipped* — counted in
    :attr:`skipped_ops` and traced as ``failure_skipped`` — instead of
    raising ``KeyError`` mid-run.

    Applying an outage also records when each direction it fails is known
    to come back up (:attr:`~repro.net.interfaces.NetworkInterface.tx_until`
    / ``rx_until``), as the exact float the calendar holds for that event:
    the latest of the node's pending restores for that direction.  The
    node's next churn leave or rejoin caps it, since a leave takes the node
    off the network and a rejoin resets its interface.  Later outages only
    keep the direction down longer.  A rejoin also starts the node's
    pending restores afresh, so the restore of an outage applied before it
    does nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        plan: Sequence[InterfaceOutage],
        *,
        churn: Sequence[NodeChurn] = (),
        loss_windows: Sequence[LossWindow] = (),
        link_cuts: Sequence[LinkCut] = (),
        deadline: float,
        node_resolver: Callable[[Address], Optional[Process]],
    ) -> None:
        super().__init__(sim, "failure-injector")
        self.network = network
        self.plan = list(plan)
        self.churn = list(churn)
        self.loss_windows = list(loss_windows)
        self.link_cuts = list(link_cuts)
        self.deadline = deadline
        self.node_resolver = node_resolver
        #: Outage/churn operations skipped because their target had departed.
        self.skipped_ops = 0
        #: Nodes that left the network through churn (in event order).
        self.departed: List[Address] = []
        #: Nodes that rejoined the network through churn (in event order).
        self.rejoined: List[Address] = []
        # node -> calendar times of its restores not yet fired, per direction
        # (tx, rx), sorted, since its last rejoin; and node -> calendar times
        # of its armed churn.
        self._pending: Dict[Address, Tuple[List[float], List[float]]] = {}
        self._churn_at: Dict[Address, List[float]] = {}

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        deadline = self.deadline
        for outage in self.plan:
            if not self.network.has_endpoint(outage.node):
                continue
            start_delay = max(0.0, outage.start - self.now)
            self.after(start_delay, self._apply, outage)
        for event in self.churn:
            churn_at = self._churn_at.setdefault(event.node, [])
            if self.now <= event.leave < deadline:
                delay = event.leave - self.now
                self.after(delay, self._leave, event)
                insort(churn_at, self.now + delay)
            if event.rejoin is not None and event.rejoin < deadline:
                delay = max(0.0, event.rejoin - self.now)
                self.after(delay, self._rejoin, event)
                insort(churn_at, self.now + delay)
        for window in self.loss_windows:
            if window.start < deadline:
                self.after(max(0.0, window.start - self.now), self._loss_start, window)
        for cut in self.link_cuts:
            if cut.start < deadline:
                self.after(max(0.0, cut.start - self.now), self._cut, cut)

    # ------------------------------------------------------------------ outages
    def _apply(self, outage: InterfaceOutage) -> None:
        if not self.network.has_endpoint(outage.node):
            self._skip("apply", outage.node, mode=outage.mode)
            return
        interface = self.network.endpoint(outage.node).interface
        interface.fail(tx=outage.fails_tx, rx=outage.fails_rx)
        self.trace(
            "interface_failed",
            node=outage.node,
            mode=outage.mode,
            until=outage.end,
        )
        pending = self._pending.setdefault(outage.node, ([], []))
        self.after(outage.duration, self._restore, outage, pending)
        restore_at = self.now + outage.duration  # the restore's calendar time
        tx_pending, rx_pending = pending
        cap = next((t for t in self._churn_at.get(outage.node, ()) if t >= self.now), inf)
        if outage.fails_tx:
            insort(tx_pending, restore_at)
            interface.tx_until = min(tx_pending[-1], cap)
        if outage.fails_rx:
            insort(rx_pending, restore_at)
            interface.rx_until = min(rx_pending[-1], cap)
            self.network.rx_until = max(self.network.rx_until, interface.rx_until)

    def _restore(
        self, outage: InterfaceOutage, pending: Tuple[List[float], List[float]]
    ) -> None:
        if pending is not self._pending.get(outage.node):
            # A rejoin has reset the interface since this outage was applied.
            return
        # This event's time is the one _apply recorded for it.
        tx_pending, rx_pending = pending
        if outage.fails_tx:
            tx_pending.remove(self.now)
        if outage.fails_rx:
            rx_pending.remove(self.now)
        if not self.network.has_endpoint(outage.node):
            self._skip("restore", outage.node, mode=outage.mode)
            return
        endpoint = self.network.endpoint(outage.node)
        endpoint.interface.restore(tx=outage.fails_tx, rx=outage.fails_rx)
        self.trace("interface_restored", node=outage.node, mode=outage.mode)

    def _skip(self, operation: str, node: Address, **fields: object) -> None:
        self.skipped_ops += 1
        self.trace("failure_skipped", operation=operation, node=node, **fields)

    # ------------------------------------------------------------------ churn
    def _leave(self, event: NodeChurn) -> None:
        if not self.network.has_endpoint(event.node):
            self._skip("leave", event.node)
            return
        node = self.node_resolver(event.node)
        if node is not None:
            node.stop()
        self.network.leave(event.node)
        self.departed.append(event.node)
        self.trace("node_left", node=event.node, rejoin=event.rejoin)

    def _rejoin(self, event: NodeChurn) -> None:
        node = self.node_resolver(event.node)
        endpoint = getattr(node, "endpoint", None)
        if endpoint is None or self.network.has_endpoint(event.node):
            self._skip("rejoin", event.node)
            return
        # A rejoining node comes back with a fresh radio: outages applied (or
        # skipped) before it rejoined must not leave a direction stuck down,
        # nor end a later outage.
        endpoint.interface.reset()
        self._pending.pop(event.node, None)
        self.network.join(endpoint)
        node.restart()
        self.rejoined.append(event.node)
        self.trace("node_rejoined", node=event.node)

    # ------------------------------------------------------------------ lossy links
    def _loss_start(self, window: LossWindow) -> None:
        self.network.push_loss(window.drop_probability)
        self.trace("loss_window_opened", p=window.drop_probability, until=window.end)
        self.after(window.duration, self._loss_end, window)

    def _loss_end(self, window: LossWindow) -> None:
        self.network.pop_loss(window.drop_probability)
        self.trace("loss_window_closed", p=window.drop_probability)

    # ------------------------------------------------------------------ link cuts
    def _cut(self, cut: LinkCut) -> None:
        # Cuts act on the wire, not on endpoints, so no departed-node guard:
        # a cut between departed nodes is simply never exercised.
        self.network.cut_link(cut.a, cut.b)
        self.trace("link_cut", a=cut.a, b=cut.b, until=cut.end)
        self.after(cut.duration, self._heal, cut)

    def _heal(self, cut: LinkCut) -> None:
        self.network.heal_link(cut.a, cut.b)
        self.trace("link_healed", a=cut.a, b=cut.b)

    # ------------------------------------------------------------------ accounting
    def realized_downtime(self) -> Dict[Address, float]:
        """Per-node realized downtime, clamped to the deadline (see :func:`merged_downtime`)."""
        return merged_downtime(self.plan, self.deadline)

    def failure_telemetry(self) -> Dict[str, object]:
        """The deterministic failure counters of one run (RunTelemetry section).

        ``realized_downtime`` maps each failed node to the seconds some
        chosen direction of its interface was down inside the run;
        ``realized_fraction_mean`` is the mean of those figures over the
        failed nodes as a fraction of the deadline (the honest counterpart of
        the nominal lambda); ``last_outage_end`` is the clamped end of the
        latest outage window (the start of the failure-free recovery tail).
        """
        realized = self.realized_downtime()
        deadline = self.deadline
        last_end = max((outage.clamped(deadline)[1] for outage in self.plan), default=0.0)
        last_loss_end = max((min(w.end, deadline) for w in self.loss_windows), default=0.0)
        last_cut_end = max((min(c.end, deadline) for c in self.link_cuts), default=0.0)
        last_churn_end = max(
            (deadline if e.rejoin is None else min(e.rejoin, deadline) for e in self.churn),
            default=0.0,
        )
        fractions = [seconds / deadline for seconds in realized.values()] if deadline else []
        # Summed left to right: from Python 3.12 on, sum() compensates float
        # rounding, which would change the mean's last digit and the bytes
        # pinned on 3.9-3.11.
        total = 0.0
        for fraction in fractions:
            total += fraction
        return {
            "n_outages": len(self.plan),
            "n_churn": len(self.churn),
            "n_loss_windows": len(self.loss_windows),
            "n_link_cuts": len(self.link_cuts),
            "skipped_ops": self.skipped_ops,
            "departed": sorted(self.departed),
            "rejoined": sorted(self.rejoined),
            "realized_downtime": {node: realized[node] for node in sorted(realized)},
            "realized_fraction_mean": total / len(fractions) if fractions else 0.0,
            "last_outage_end": last_end,
            "last_loss_end": last_loss_end,
            "last_churn_end": last_churn_end,
            "last_cut_end": last_cut_end,
            "link_cut_drops": self.network.link_cut_drops,
        }
