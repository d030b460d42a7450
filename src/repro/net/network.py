"""The shared local-area network.

The :class:`Network` owns the set of endpoints, imposes the 10-100 microsecond
transmission delay from Table 3, enforces interface up/down state at both the
sending and the receiving side, and counts every logical send in a
:class:`~repro.net.stats.MessageStats` counter (see :meth:`Network.record_send`).

Protocol nodes send UDP datagrams and multicasts through the two primitives
:meth:`Network.transmit_unicast` and :meth:`Network.transmit_multicast`
directly, and TCP messages through :func:`repro.net.tcp.send`.  The TCP
handshake calls the field-based core of ``transmit_unicast`` directly, so
its segments travel the same wire path without a
:class:`~repro.net.messages.Message` of their own.
"""

from __future__ import annotations

import itertools
from heapq import heappush
from math import inf
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.net.addressing import Address, MULTICAST_GROUP, validate_address
from repro.net.interfaces import Endpoint, NetworkInterface
from repro.net.messages import Message, MessageLayer
from repro.net.stats import MessageStats
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Lower bound of the uniform transmission delay, in seconds (10
#: microseconds, Table 3).
MIN_DELAY = 10e-6
#: Upper bound of the uniform transmission delay, in seconds (100
#: microseconds, Table 3).
MAX_DELAY = 100e-6
#: Spacing between redundant copies of a multicast transmission, in seconds.
MULTICAST_COPY_SPACING = 0.1


class FanoutPlan(NamedTuple):
    """How a multicast copy of one kind from one sender fans out (see :meth:`Network._plan`).

    The receivers are every other endpoint, in join order; the sender draws
    no delay.
    """

    #: Delay draws to skip before each receiver that accepts the kind (one
    #: per receiver that does not).
    skips: Tuple[int, ...]
    #: Their bound :meth:`Endpoint.deliver` methods.
    delivers: Tuple[Callable[[Message], bool], ...]
    #: Their interfaces.
    interfaces: Tuple[NetworkInterface, ...]
    #: Their refresh maps for the kind (``None`` where they have none);
    #: ``None`` when none of them has one.
    refresh: Optional[Tuple[Optional[Dict[Address, Any]], ...]]
    #: Delay draws to skip after the last of them.
    tail: int
    #: Receivers that do not accept the kind.
    ignoring: int


#: One kind's fan-out over every endpoint (see :meth:`Network._plan`): the
#: endpoints that accept it, their plan as if every endpoint drew a delay,
#: endpoint address -> accepting endpoints before it in join order, and the
#: sender plans built so far.
_Layout = Tuple[Tuple[Endpoint, ...], FanoutPlan, Dict[Address, int], Dict[int, FanoutPlan]]


class Network:
    """Single broadcast-domain network connecting all simulated nodes.

    Without loss windows or cut links, a multicast copy walks the fan-out
    plan of its kind and sender: the ``deliver`` methods of the receivers
    that accept the kind, each paired with the delay draws to skip before
    it.  Plans are cached until the next :meth:`join`/:meth:`leave`; an
    endpoint's :attr:`~repro.net.interfaces.Endpoint.accepts` is therefore
    fixed once it has joined.

    On that path a copy is *absorbed* instead of posted when its only
    effect would be to mark the sender as heard: the receiver's refresh map
    for the kind (:attr:`~repro.net.interfaces.Endpoint.refresh`) holds a
    record for the sender, its receiver is up, the record's previous
    absorbed copy is already in the past and the copy is due by the run's
    bound.  The record keeps ``last_heard`` and at most one absorbed copy
    (``copy_time``, ``copy_seq``, ``copy_message``); absorbing folds the
    previous one into ``last_heard`` and stores the new one.  The copy
    consumes its sequence number and counts as received and in
    :attr:`absorbed`, but posts no event.  The receiving node keeps it
    exact: before it reads ``last_heard`` it calls :meth:`settle`, which
    folds a copy that would have fired by then, and whenever the record
    leaves the map, the node stops or its receiver fails it calls
    :meth:`release`, which also puts a copy that would not have fired back
    on the calendar under its own key.

    An event whose outcome the failure plan already fixes is *decided*
    where it is emitted: it is counted in its fate and consumes its
    sequence number, so every other event keeps its key, but it is not
    posted.  That is a redundant multicast copy due strictly before its
    sender's known transmitter restore (:attr:`decided_tx`), and a delivery
    of a unicast or of a copy on the fan-out-plan path due strictly before
    its receiver's known receiver restore (:attr:`decided_rx`; its delay is
    still drawn), each due by the run's bound (see
    :attr:`~repro.net.interfaces.NetworkInterface.tx_until`).  At a tie the
    restore, armed first, fires first, so the copy or delivery is posted.
    """

    def __init__(self, sim: Simulator, rng: RngRegistry) -> None:
        self.sim = sim
        self.stats = MessageStats()
        self._endpoints: Dict[Address, Endpoint] = {}
        #: Run-scoped message-id source: every message of a run draws from
        #: this counter (not the process-wide fallback), so ids are
        #: deterministic per run regardless of what ran earlier in-process.
        self.msg_ids = itertools.count(1)
        # Bound methods hoisted once: a delay is drawn per delivery on the
        # hot path.  ``_rand`` is the raw C-level ``random()`` of the same
        # stream; inlining ``a + (b - a) * random()`` at the call sites is
        # bit-identical to ``uniform(a, b)`` while skipping a Python frame.
        delay_stream = rng.stream("network", "delay")
        self._uniform = delay_stream.uniform
        self._rand = delay_stream.random
        # ``random()`` consumes two 32-bit Mersenne-Twister words and
        # ``getrandbits(64 * k)`` exactly 2k, so one call skips k delay draws
        # in C (pinned by a test, since it is a CPython implementation detail).
        self._skip_bits = delay_stream.getrandbits
        # kind -> fan-out layout, built lazily and dropped on join/leave.
        self._layouts: Dict[str, _Layout] = {}
        # Lossy-link state (scenario library).  ``_loss_p`` is the combined
        # drop probability of the active loss windows; the delivery paths pay
        # one falsy check while it is zero.  The dedicated ``network/loss``
        # RNG stream is created lazily on the first window, so runs without
        # loss windows draw exactly the same random sequence as before the
        # feature existed.
        self._rng = rng
        self._loss_stack: List[float] = []
        self._loss_p = 0.0
        self._loss_rand: Optional[Callable[[], float]] = None
        #: Deliveries dropped on the wire by loss windows (telemetry).
        self.link_losses = 0
        # Severed point-to-point links (partition scenarios).  Undirected
        # pairs as frozensets; the delivery paths pay one falsy check while
        # no link is cut, so runs without partitions are untouched.
        self._cut_links: set = set()
        #: Deliveries dropped on the wire by severed links (telemetry).
        self.link_cut_drops = 0
        #: Deliveries not simulated because the receiving endpoint does not
        #: accept their kind: multicast copies, and unicasts sent without a
        #: delivery callback (telemetry; see :attr:`Endpoint.accepts`).
        self.ignored = 0
        #: Multicast copies received without an event: folded into their
        #: receiver's refresh record (telemetry; see the class docstring).
        self.absorbed = 0
        #: Redundant multicast copies and deliveries decided at emission as
        #: ``dropped_tx`` / ``dropped_rx`` (telemetry; see the class docstring).
        self.decided_tx = 0
        self.decided_rx = 0
        #: The latest known receiver restore of any endpoint: from then on,
        #: no delivery is decided, and a multicast copy without refresh maps
        #: posts its deliveries in one call.
        self.rx_until = -inf

    # ------------------------------------------------------------------ membership
    def join(self, endpoint: Endpoint) -> Endpoint:
        """Register an endpoint.  Raises on duplicate addresses."""
        address = validate_address(endpoint.address)
        if address in self._endpoints:
            raise ValueError(f"address already joined: {address!r}")
        self._endpoints[address] = endpoint
        self._layouts = {}
        return endpoint

    def leave(self, address: Address) -> None:
        """Remove an endpoint from the network."""
        if self._endpoints.pop(address, None) is not None:
            self._layouts = {}

    def _plan(self, kind: str, sender_ep: Endpoint) -> FanoutPlan:
        """The fan-out plan of ``kind`` from ``sender_ep``.

        A sender's plan takes the sender's draw out of the kind's layout
        (built by :meth:`_layout`): an accepting sender's entry goes and its
        gap joins the next, and otherwise the gap around the sender shrinks
        by one.  So every sender between the same two accepting endpoints
        gets the same plan, which the layout keeps once built.
        """
        layout = self._layouts.get(kind)
        if layout is None:
            layout = self._layouts[kind] = self._layout(kind)
        accepting, everyone, where, plans = layout
        at = where[sender_ep.address]
        own = at < len(accepting) and accepting[at] is sender_ep
        key = -1 - at if own else at  # an accepting sender's plan is its own
        plan = plans.get(key)
        if plan is not None:
            return plan
        skips, delivers, interfaces, refresh, tail, ignoring = everyone
        skips = list(skips)
        if own:
            carry = skips.pop(at)
            delivers = delivers[:at] + delivers[at + 1 :]
            interfaces = interfaces[:at] + interfaces[at + 1 :]
            if refresh is not None:
                refresh = refresh[:at] + refresh[at + 1 :]
        else:
            carry = -1
            ignoring -= 1
        if at < len(skips):
            skips[at] += carry
        else:
            tail += carry
        plan = plans[key] = FanoutPlan(tuple(skips), delivers, interfaces, refresh, tail, ignoring)
        return plan

    def _layout(self, kind: str) -> _Layout:
        """The fan-out of ``kind`` over every endpoint, in join order."""
        accepting: List[Endpoint] = []
        gaps: List[int] = []
        where: Dict[Address, int] = {}
        gap = 0
        for address, endpoint in self._endpoints.items():
            where[address] = len(accepting)
            accepts = endpoint.accepts
            if accepts is None or kind in accepts:
                accepting.append(endpoint)
                gaps.append(gap)
                gap = 0
            else:
                gap += 1
        maps = tuple(endpoint.refresh.get(kind) for endpoint in accepting)
        everyone = FanoutPlan(
            tuple(gaps),
            tuple(endpoint.deliver for endpoint in accepting),
            tuple(endpoint.interface for endpoint in accepting),
            maps if any(records is not None for records in maps) else None,
            gap,
            len(self._endpoints) - len(accepting),
        )
        return tuple(accepting), everyone, where, {}

    def endpoint(self, address: Address) -> Endpoint:
        """Return the endpoint registered under ``address``."""
        return self._endpoints[address]

    def has_endpoint(self, address: Address) -> bool:
        """``True`` when ``address`` is registered."""
        return address in self._endpoints

    def addresses(self) -> List[Address]:
        """All registered addresses, in join order."""
        return list(self._endpoints.keys())

    def endpoints(self) -> Iterable[Endpoint]:
        """All registered endpoints, in join order (telemetry aggregation)."""
        return self._endpoints.values()

    # ------------------------------------------------------------------ lossy links
    def push_loss(self, drop_probability: float) -> None:
        """Open a loss window: deliveries drop with ``drop_probability``.

        Windows nest; concurrent windows compose as independent drop chances
        (a delivery survives only when it survives every active window).
        """
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {drop_probability!r}")
        self._loss_stack.append(drop_probability)
        self._recompute_loss()

    def pop_loss(self, drop_probability: float) -> None:
        """Close one loss window previously opened with :meth:`push_loss`."""
        try:
            # Remove the most recent matching window (windows may share p).
            index = len(self._loss_stack) - 1 - self._loss_stack[::-1].index(drop_probability)
        except ValueError:
            raise ValueError(f"no active loss window with p={drop_probability!r}") from None
        del self._loss_stack[index]
        self._recompute_loss()

    def _recompute_loss(self) -> None:
        survive = 1.0
        for p in self._loss_stack:
            survive *= 1.0 - p
        self._loss_p = 1.0 - survive
        if self._loss_p and self._loss_rand is None:
            self._loss_rand = self._rng.stream("network", "loss").random

    @property
    def loss_probability(self) -> float:
        """Combined drop probability of the currently active loss windows."""
        return self._loss_p

    # ------------------------------------------------------------------ link cuts
    def cut_link(self, a: Address, b: Address) -> None:
        """Sever the undirected link between ``a`` and ``b``.

        While cut, every delivery between the pair — either direction,
        unicast or multicast — dies on the wire: the send is still spent and
        recorded (the sender cannot tell), but nothing arrives.  Transports
        see it as ordinary message loss and run their usual retry/REX
        machinery, which is exactly how a network partition presents itself
        to the protocols under test.
        """
        if a == b:
            raise ValueError(f"cannot cut a link from a node to itself: {a!r}")
        self._cut_links.add(frozenset((a, b)))

    def heal_link(self, a: Address, b: Address) -> None:
        """Restore a link previously severed with :meth:`cut_link`."""
        self._cut_links.discard(frozenset((a, b)))

    def link_is_cut(self, a: Address, b: Address) -> bool:
        """``True`` while the ``a``-``b`` link is severed."""
        return bool(self._cut_links) and frozenset((a, b)) in self._cut_links

    # ------------------------------------------------------------------ helpers
    def transmission_delay(self) -> float:
        """Draw one transmission delay from the uniform 10-100 microsecond range."""
        return self._uniform(MIN_DELAY, MAX_DELAY)

    # ------------------------------------------------------------------ primitives
    def record_send(
        self,
        sender: Address,
        receiver: Address,
        protocol: str,
        kind: str,
        layer: MessageLayer,
        update_related: bool,
        multicast: bool,
        copies: int,
        msg_id: int,
    ) -> None:
        """Account one logical send at the current time.

        Every send record goes through here: each unicast that leaves its
        transmitter, the first multicast copy that does (with its copy
        count), and TCP's application message, acknowledgements and data
        retransmissions.  The fields feed the :attr:`stats` counter and,
        only while tracing is on, a ``net/send`` trace record at the same
        time, so every send count a run reports can be recounted from its
        trace.
        """
        sim = self.sim
        now = sim.now
        self.stats.record(now, sender, protocol, kind, layer, update_related, multicast, copies)
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record(
                now,
                "net",
                "send",
                protocol=protocol,
                kind=kind,
                sender=sender,
                receiver=receiver,
                layer=layer.value,
                update_related=update_related,
                multicast=multicast,
                copies=copies,
                msg_id=msg_id,
            )

    def transmit_unicast(
        self,
        message: Message,
        on_delivered: Optional[Callable[[Message], None]] = None,
    ) -> bool:
        """Attempt a single unicast transmission.

        The attempt is recorded in the statistics regardless of outcome (a
        node that transmits into a failed receiver still spent the message).
        Returns ``True`` when the message left the sender's transmitter; the
        eventual delivery happens one transmission delay later and only if
        the receiver interface is up at that instant.  Without
        ``on_delivered``, a message whose kind the receiver does not accept
        still draws its delay but is counted in :attr:`ignored` instead of
        being delivered.
        """
        return self._unicast(
            message.sender,
            message.receiver,
            message.protocol,
            message.kind,
            message.layer,
            message.update_related,
            message.msg_id,
            message,
            on_delivered,
        )

    def _unicast(
        self,
        sender: Address,
        receiver: Address,
        protocol: str,
        kind: str,
        layer: MessageLayer,
        update_related: bool,
        msg_id: int,
        message: Optional[Message],
        on_delivered: Optional[Callable[[Message], None]],
    ) -> bool:
        """:meth:`transmit_unicast` from the message's fields.

        ``message`` is ``None`` for a TCP segment, which is sent without a
        delivery callback: a :class:`Message` is built for it only when the
        receiver accepts its kind, which no protocol node does.
        """
        endpoints = self._endpoints
        sender_ep = endpoints.get(sender)
        if sender_ep is None:
            # Sender departed (churn): its radio is gone, nothing is emitted.
            # In-flight transport machinery (e.g. a TCP handshake scheduled
            # before the node left) sees an ordinary send failure and runs
            # its normal retry/REX response.
            return False
        interface = sender_ep.interface
        if not interface.tx_up:
            interface.counters.dropped_tx += 1
            # The node tried to send but its transmitter is down: nothing is
            # emitted on the wire, so the attempt is not counted as traffic.
            return False

        self.record_send(sender, receiver, protocol, kind, layer, update_related, False, 1, msg_id)

        receiver_ep = endpoints.get(receiver)
        if receiver_ep is None:
            # Destination unknown / departed: message is lost on the wire.
            return True

        if self._cut_links and frozenset((sender, receiver)) in self._cut_links:
            # Severed link (partition scenarios): the send was spent but the
            # message dies on the wire, exactly like a loss-window drop.  The
            # cut check comes before the loss draw so cut-dropped deliveries
            # never consume the loss stream.
            self.link_cut_drops += 1
            return True

        if self._loss_p and self._loss_rand() < self._loss_p:
            # Lost on the wire inside an active loss window: the send was
            # spent (recorded above) but nothing arrives.
            self.link_losses += 1
            return True

        delay = MIN_DELAY + (MAX_DELAY - MIN_DELAY) * self._rand()
        if on_delivered is None:
            # Hot path: no closure, no Event allocation.
            accepts = receiver_ep.accepts
            if accepts is None or kind in accepts:
                sim = self.sim
                time = sim._now + delay
                rx = receiver_ep.interface
                if time < rx.rx_until and time <= sim.bound:
                    # Decided: the receiver is down until after it is due.
                    rx.counters.dropped_rx += 1
                    self.decided_rx += 1
                    sim._queue._next_seq += 1
                    return True
                if message is None:
                    message = Message(
                        sender,
                        receiver,
                        protocol,
                        kind,
                        None,
                        update_related,
                        layer,
                        msg_id,
                    )
                sim.post(delay, receiver_ep.deliver, message)
            else:
                self.ignored += 1
        else:
            self.sim.post(delay, self._deliver_with_callback, receiver_ep, message, on_delivered)
        return True

    @staticmethod
    def _deliver_with_callback(
        receiver_ep: Endpoint,
        message: Message,
        on_delivered: Callable[[Message], None],
    ) -> None:
        if receiver_ep.deliver(message):
            on_delivered(message)

    def transmit_multicast(self, message: Message, copies: int = 1) -> bool:
        """Transmit a multicast message to every other endpoint.

        ``copies`` (at least 1) models the redundant transmissions used by
        UPnP and Jini announcements (Table 3); copies are spaced by
        :data:`MULTICAST_COPY_SPACING` seconds.  The first copy
        is emitted immediately and the return value reports whether it left
        the transmitter; later copies are evaluated against the interface
        state at their own emission times, or decided now when the
        transmitter is known to be down then (see the class docstring).
        Copies for endpoints that do not accept the message's kind are
        counted in :attr:`ignored` instead of being delivered; every
        delivered copy keeps the delay it would draw if all endpoints
        accepted.
        """
        if message.receiver != MULTICAST_GROUP:
            raise ValueError("multicast message must be addressed to MULTICAST_GROUP")
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies!r}")
        sender_ep = self._endpoints.get(message.sender)
        if sender_ep is None:
            # Sender departed (churn): see transmit_unicast.
            return False

        # ``recorded`` is shared by all copies so that one logical multicast
        # is recorded at most once — by the first copy that actually leaves
        # the transmitter (matching the unicast rule that a blocked
        # transmitter emits nothing on the wire and is not counted).
        state = {"recorded": False}
        first_copy_sent = self._emit_multicast_copy(message, sender_ep, state, copies)
        sim = self.sim
        now = sim._now
        tx = sender_ep.interface
        for copy_index in range(1, copies):
            offset = copy_index * MULTICAST_COPY_SPACING
            time = now + offset
            if time < tx.tx_until and time <= sim.bound:
                # Decided: the copy would find the transmitter down.
                tx.counters.dropped_tx += 1
                self.decided_tx += 1
                sim._queue._next_seq += 1
            else:
                sim.post(offset, self._emit_multicast_copy, message, sender_ep, state, copies)
        return first_copy_sent

    def _emit_multicast_copy(
        self,
        message: Message,
        sender_ep: Endpoint,
        state: Dict[str, bool],
        copies: int,
    ) -> bool:
        if self._endpoints.get(message.sender) is not sender_ep:
            # The sender departed between redundant copies (churn): the
            # remaining copies die with its radio.
            return False
        if not sender_ep.interface.can_send():
            sender_ep.interface.counters.dropped_tx += 1
            return False
        if not state["recorded"]:
            # One logical multicast send is recorded once, with its copy count,
            # so that Table 2 style accounting counts announcements once while
            # the redundant copies remain visible in ``stats.copies``.
            state["recorded"] = True
            self.record_send(
                message.sender,
                message.receiver,
                message.protocol,
                message.kind,
                message.layer,
                message.update_related,
                True,
                copies,
                message.msg_id,
            )
        rand = self._rand
        min_delay = MIN_DELAY
        delay_span = MAX_DELAY - MIN_DELAY
        sender = message.sender
        kind = message.kind
        loss_p = self._loss_p
        cuts = self._cut_links
        # Every receiver consumes its cut check, loss draw and delay draw in
        # endpoint order whether or not it accepts the kind, so the copies
        # that are simulated keep exactly the timestamps they would have if
        # every copy were; the rest are only counted.
        if loss_p or cuts:
            ignored = 0
            loss_rand = self._loss_rand
            post = self.sim.post
            for address, endpoint in self._endpoints.items():
                if address == sender:
                    continue
                if cuts and frozenset((sender, address)) in cuts:
                    self.link_cut_drops += 1
                    continue
                if loss_p and loss_rand() < loss_p:
                    self.link_losses += 1
                    continue
                delay = min_delay + delay_span * rand()
                accepts = endpoint.accepts
                if accepts is None or kind in accepts:
                    post(delay, endpoint.deliver, message)
                else:
                    ignored += 1
            self.ignored += ignored
            return True
        # Without loss or cuts only delay draws are made, one per receiver
        # in endpoint order (the sender draws none).  Walk the plan of the
        # kind and sender: draw for each accepting receiver and skip the
        # others' draws in C.
        skips, delivers, interfaces, refresh, tail, ignored = self._plan(kind, sender_ep)
        if not ignored:
            delays = [min_delay + delay_span * rand() for _ in delivers]
        else:
            skip_bits = self._skip_bits
            delays = []
            for skip in skips:
                if skip:
                    skip_bits(64 * skip)
                delays.append(min_delay + delay_span * rand())
            if tail:
                skip_bits(64 * tail)
            self.ignored += ignored
        sim = self.sim
        now = sim._now
        if refresh is None and now >= self.rx_until:
            # One engine call posts them all, exactly as one post() each would.
            sim.post_each(delays, delivers, message)
            return True
        # post_each inlined, absorbing and deciding the deliveries the class
        # docstring names: each receiver takes its sequence number either way.
        bound = sim.bound
        queue = sim._queue
        heap = queue._heap
        seq = queue._next_seq
        args = (message,)
        absorbed = decided = 0
        for delay, deliver, interface, records in zip(
            delays, delivers, interfaces, refresh or itertools.repeat(None)
        ):
            time = now + delay
            if time < interface.rx_until:
                if time <= bound:
                    interface.counters.dropped_rx += 1
                    decided += 1
                    seq += 1
                    continue
            elif records is not None and time <= bound and interface.rx_up:
                record = records.get(sender)
                if record is not None and record.copy_time < now:
                    if record.copy_time > record.last_heard:
                        record.last_heard = record.copy_time
                    record.copy_time = time
                    record.copy_seq = seq
                    record.copy_message = message
                    interface.counters.received += 1
                    absorbed += 1
                    seq += 1
                    continue
            heappush(heap, (time, seq, deliver, args))
            seq += 1
        queue._next_seq = seq
        if len(heap) > queue.hwm:
            queue.hwm = len(heap)
        self.absorbed += absorbed
        self.decided_rx += decided
        return True

    # ------------------------------------------------------------------ absorbed copies
    def settle(self, record: Any) -> bool:
        """Fold ``record``'s absorbed copy into ``last_heard`` once it would have fired.

        That is, once its key precedes the firing event's in heap order
        (:meth:`Simulator.has_fired`).  Returns ``True`` while a copy that
        would not have fired yet is held.
        """
        if record.copy_message is None:
            return False
        if not self.sim.has_fired(record.copy_time, record.copy_seq):
            return True
        if record.copy_time > record.last_heard:
            record.last_heard = record.copy_time
        record.copy_time = -inf
        record.copy_message = None
        return False

    def release(self, endpoint: Endpoint, record: Any) -> None:
        """Settle ``record`` and put a copy still held back on the calendar.

        The copy takes its own key and becomes a delivery to ``endpoint``
        again, taken back out of ``received`` and :attr:`absorbed`.
        """
        if not self.settle(record):
            return
        self.sim.post_reserved(
            record.copy_time, record.copy_seq, endpoint.deliver, record.copy_message
        )
        endpoint.interface.counters.received -= 1
        self.absorbed -= 1
        record.copy_time = -inf
        record.copy_message = None
