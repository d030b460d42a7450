"""Per-run telemetry: the always-on counters assembled into one dict.

Every run carries a ``RunTelemetry`` dict under ``RunResult.details
["telemetry"]``.  The counters it aggregates are maintained inline by the
hot paths (one integer add per event/send — cheap enough to stay on for
every sweep) and read out once, after the run finished, by
:func:`collect_run_telemetry`.

Invariant: every value in the dict is a deterministic function of the run's
seed and spec.  Wall-clock time is deliberately *not* part of RunTelemetry —
per-cell wall time is measured by the sweep executors and reported through
the progress/telemetry-journal channel instead — so results (and therefore
sweep output, checkpoint journals, and the serial-vs-parallel byte-identity
gate) are unaffected by how fast the host happened to be.

Field glossary (see also EXPERIMENTS.md, "Observability")
---------------------------------------------------------
``engine.events_scheduled``
    Total calendar keys drawn (cancellable events + fire-and-forget posts +
    timers; the one sequence counter counts them all).
``engine.events_fired``
    Callbacks actually executed by the run loop.  Since version 5 the
    multicast copies in ``net.absorbed`` are received without one.
``engine.events_cancelled``
    Cancellations of calendar events, timers included (since version 6;
    before, it left out the ``timers.cancelled`` ones).
``engine.heap_hwm``
    High-water mark of the event heap (live + buried-cancelled entries),
    timers included since version 6.
``engine.heap_compactions``
    Times the event heap was rebuilt to shed cancelled entries.
``timers.scheduled`` / ``timers.cancelled``
    Timers armed and disarmed through
    :class:`~repro.sim.timers.TimerWheel`.  Since version 6 the timers
    share the event heap, so their own ``heap_hwm`` and ``compactions``
    are gone.
``net.sends``
    Logical transmissions recorded (one per unicast attempt that left the
    transmitter, one per multicast announcement).
``net.send_copies``
    Physical copies including multicast redundancy.
``net.multicast_sends``
    Logical multicast announcements.
``net.sends_by_layer``
    Logical sends split by accounting layer (``discovery``/``transport``).
``net.update_sends``
    Update-related discovery-layer sends over the whole run (unwindowed;
    the metric *y* additionally applies the change-time window).
``net.delivered``
    Messages that reached a receiver handler (receiver interface up).
    Multicast copies and callback-free unicasts count only at receivers
    that accept their kind.
``net.dropped_tx`` / ``net.dropped_rx``
    Transmission attempts suppressed by a downed transmitter / deliveries
    suppressed by a downed receiver, summed over all interfaces.  Like
    ``net.delivered``, ``dropped_rx`` excludes unaccepted deliveries.
``net.ignored``
    Deliveries not simulated because the receiver has no handler for their
    kind (:attr:`~repro.net.interfaces.Endpoint.accepts`): multicast copies,
    and unicasts sent without a delivery callback (in practice TCP
    ``tcp_syn``/``tcp_synack`` segments, since version 4).  They consume the
    same random draws as delivered messages but post no event, fire no
    callback and leave no ``unhandled_message`` trace record.
``net.absorbed``
    Multicast copies received without an event (version 5): a Jini
    client's copies of a known Lookup Service's announcement, folded into
    its registrar record by the network (see
    :class:`~repro.net.network.Network`).  They count in ``net.delivered``
    and consume their sequence number, so ``events_fired + absorbed`` is
    the count of version 4.
``net.link_losses``
    Deliveries dropped on the wire by scenario loss windows (zero outside
    lossy-link scenarios).
``failures`` (present when the run had a failure injector)
    Realized disruption accounting from
    :meth:`~repro.net.failures.FailureInjector.failure_telemetry`:
    ``n_outages``/``n_churn``/``n_loss_windows`` (plan sizes),
    ``skipped_ops`` (outage/churn operations skipped because their target
    had departed), ``departed``/``rejoined`` (churned node ids),
    ``realized_downtime`` (per-node seconds some failed direction was down
    *inside* the run — overlaps merged, windows clamped to the deadline),
    ``realized_fraction_mean`` (mean realized downtime over the failed
    nodes as a fraction of the deadline; the honest counterpart of the
    nominal failure rate), and ``last_outage_end``/``last_loss_end``/
    ``last_churn_end``/``last_cut_end`` (clamped end of the latest outage
    window, loss window, churn rejoin, and link cut — together the start of
    the disruption-free recovery tail).  Partition scenarios additionally
    contribute ``n_link_cuts`` (severed registry links in the plan) and
    ``link_cut_drops`` (deliveries that died on a severed link — zero
    outside partition scenarios).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # imported for annotations only
    from repro.net.failures import FailureInjector
    from repro.net.network import Network
    from repro.sim.engine import Simulator

#: Version of the RunTelemetry dict layout (bumped on incompatible changes).
TELEMETRY_SCHEMA_VERSION = 6


def collect_run_telemetry(
    sim: "Simulator",
    network: "Network",
    injector: Optional["FailureInjector"] = None,
) -> Dict[str, Any]:
    """Assemble the RunTelemetry dict from the engine and network counters.

    Called once per run after the simulation finished; reading the counters
    costs nothing on the hot path.  All values are plain ints/dicts (JSON
    native) and deterministic for a given spec + seed.  When ``injector``
    is given, its realized-disruption accounting is attached under
    ``failures``.
    """
    queue = sim._queue
    timers = sim.timers
    stats = network.stats
    delivered = dropped_tx = dropped_rx = 0
    for endpoint in network.endpoints():
        counters = endpoint.interface.counters
        delivered += counters.received
        dropped_tx += counters.dropped_tx
        dropped_rx += counters.dropped_rx
    telemetry: Dict[str, Any] = {
        "version": TELEMETRY_SCHEMA_VERSION,
        "engine": {
            "events_scheduled": queue._next_seq,
            "events_fired": sim.executed_events,
            "events_cancelled": queue.cancelled_total,
            "heap_hwm": queue.hwm,
            "heap_compactions": queue.compactions,
        },
        "timers": {
            "scheduled": timers.scheduled_total,
            "cancelled": timers.cancelled_total,
        },
        "net": {
            "sends": len(stats),
            "send_copies": stats.total_copies,
            "multicast_sends": stats.multicast_sends,
            "sends_by_layer": stats.counts_by_layer(),
            "update_sends": stats.update_messages(),
            "delivered": delivered,
            "dropped_tx": dropped_tx,
            "dropped_rx": dropped_rx,
            "link_losses": network.link_losses,
            "ignored": network.ignored,
            "absorbed": network.absorbed,
        },
    }
    if injector is not None:
        telemetry["failures"] = injector.failure_telemetry()
    return telemetry

