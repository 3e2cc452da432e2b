"""Point-to-point and multicast message delivery with the paper's delay model.

A :class:`Network` owns the topology and the cost parameters.  Sending a
message from ``a`` to ``b`` costs::

    hops(a, b) * hop_latency  +  size_bytes / link_bandwidth

Channels are FIFO: the network never delivers message *m2* sent after
*m1* on the same ``(src, dst)`` channel before *m1* arrives, even if *m2*
is smaller.  Group write consistency's sequencing guarantee is built on
this property, exactly as Sesame builds it on ordered hardware links.

:meth:`Network.send` delivers one :class:`Message`.
:meth:`Network.send_fanout` and :meth:`Network.send_fanout_train` send
one payload, or a train of them, to many targets through one loop,
:meth:`Network._fanout`.  Each logical message keeps its own
:class:`Message`, stats and FIFO-clamped arrival, but the deliveries of
one call that share an arrival instant ride ONE heap event
(:func:`~repro.net.message.fire_batch`).  A member's arrival depends
only on its hop count, so a multicast costs a few events, not one per
member.  Order is unchanged: every delivery has priority 0 and one call
owns a contiguous seq block, so nothing sorts between two deliveries of
a batch, and anything a handler schedules gets a later seq.  Fanout
plans cache each target's FIFO cell, hop latency and resolved handler.
The loss model, fault injector and tracer run per message in that same
loop; under a shard router each message goes through :meth:`send`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable

from repro.errors import NetworkError
from repro.net.message import Message, fire_batch
from repro.net.topology import Topology
from repro.params import MachineParams
from repro.sim.event import PRIORITY_ARRIVAL_BAND
from repro.sim.kernel import Simulator

#: Handler signature for delivered messages.
Handler = Callable[[Message], None]
#: One fanout target: ``(dst, FIFO cell, base latency, handler)``.
PlanEntry = tuple[int, list[float], float, Handler]
#: Initial FIFO cell value: earlier than any arrival.
_NEVER = float("-inf")


@dataclass(slots=True)
class ChannelStats:
    """Aggregate traffic counters kept by the network."""

    messages: int = 0
    bytes: int = 0
    #: Messages removed before delivery — by the loss model or by a
    #: fault injector.  Dropped messages still count as sent traffic
    #: (``messages`` / ``bytes`` / ``outbound``) but never as received
    #: load.  The per-cause split lives in ``loss_dropped`` /
    #: ``fault_dropped``.
    dropped: int = 0
    #: Drops charged to the random :class:`~repro.net.loss.LossModel`.
    loss_dropped: int = 0
    #: Drops charged to a fault injector (crashed endpoint / partition).
    fault_dropped: int = 0
    #: Messages whose delivery a fault injector postponed.
    fault_delayed: int = 0
    #: Extra delivery copies created by duplicate faults.
    fault_duplicated: int = 0
    #: Root-failover counters: apply/heartbeat packets fenced out by
    #: members because they carried a superseded sequencer epoch,
    #: origin writes and lock requests re-issued toward a new root
    #: after its election, and completed root failovers.
    stale_epoch_discards: int = 0
    rerouted_requests: int = 0
    failovers: int = 0
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Messages received per node — the load metric that exposes
    #: hot-spots such as an overloaded global root.
    inbound: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    outbound: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Messages dropped per destination node (loss + fault causes).
    dropped_inbound: dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def hottest_receiver(self) -> tuple[int, int]:
        """(node, message count) of the most-loaded receiver."""
        if not self.inbound:
            return (-1, 0)
        node = max(self.inbound, key=lambda n: self.inbound[n])
        return (node, self.inbound[node])


class Network:
    """Delivers :class:`Message` objects between attached node handlers."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        params: MachineParams,
        loss_model: "LossModel | None" = None,  # noqa: F821
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.params = params
        self.loss_model = loss_model
        self.stats = ChannelStats()
        self._handlers: dict[int, Handler] = {}
        #: Optional per-node kind resolvers (see :meth:`attach`) and the
        #: lazily filled ``(dst, kind) -> delivery callable`` cache they
        #: feed.  Resolution collapses the per-message dispatch chain to
        #: one dict lookup in :meth:`send`.
        self._resolvers: dict[int, Callable[[str], Handler]] = {}
        self._direct: dict[tuple[int, str], Handler] = {}
        #: Fanout plans: ``(src, kind, targets) -> (PlanEntry, ...)``,
        #: built from ``_direct`` and ``_base_latency`` on first use.
        self._plans: dict[tuple[int, str, tuple[int, ...]], tuple[PlanEntry, ...]] = {}
        #: FIFO cell per (src, dst) channel: a one-item list holding the
        #: last scheduled arrival, shared by send() and fanout plans.
        self._last_arrival: dict[tuple[int, int], list[float]] = {}
        #: Memoized ``hops * hop_latency`` per (src, dst) pair, so the
        #: delay model is a dict lookup plus one serialization division.
        self._base_latency: dict[tuple[int, int], float] = {}
        self._link_bandwidth = params.link_bandwidth
        self._hop_latency = params.hop_latency
        #: Deliveries are fire-and-forget (nothing cancels an in-flight
        #: message) and the arrival time is provably >= now, so sends
        #: push heap entries directly: no Event handle, no past-check,
        #: and no per-send ``partial`` allocation.
        self._queue = sim._queue
        #: Optional fault injector (see :mod:`repro.faults.injector`).
        #: ``None`` on the hot path keeps fault support free for normal
        #: runs: one identity check per send.
        self._injector: "FaultInjector | None" = None  # noqa: F821
        #: Optional shard router (see :mod:`repro.sim.shards`).  When
        #: installed, sends addressed to a node this replica does not
        #: own divert to the router's outbox instead of the local heap,
        #: and intra-shard arrivals are keyed in the arrival band (see
        #: :data:`~repro.sim.event.PRIORITY_ARRIVAL_BAND`) so same-time
        #: arrivals order identically to a serial run.  ``None`` costs
        #: one identity check per send, exactly like the injector hook.
        self._router: "ShardRouter | None" = None  # noqa: F821
        #: Per-source-node send counters, used only under a shard
        #: router: the third element of each arrival-band ordering
        #: token.  Deterministic replay of a replica reproduces the
        #: exact same counter values.
        self._node_send_seq: dict[int, int] = {}

    def install_injector(self, injector: "FaultInjector") -> None:  # noqa: F821
        """Hook a fault injector into the send and delivery paths.

        At most one injector per network.  Installing clears the
        ``(dst, kind)`` delivery cache and the fanout plans so future
        resolutions wrap the handler in the injector's delivery guard,
        which drops in-flight messages addressed to a node that crashed
        after they were sent.
        """
        if self._injector is not None:
            raise NetworkError("a fault injector is already installed")
        self._injector = injector
        self._direct.clear()
        self._plans.clear()

    def install_shard_router(self, router: "ShardRouter") -> None:  # noqa: F821
        """Hook a shard router into the send path (one per network).

        Cross-shard sends — ``msg.dst`` outside the router's owned node
        set — are classified after the full delay model has run (base
        latency, serialization, loss, faults, FIFO clamping), so a
        diverted message carries exactly the arrival time the serial
        kernel would have scheduled it at.  The receiving replica counts
        the inbound load; the sender only counts outbound, keeping the
        merged per-node stats identical to a serial run.
        """
        if self._router is not None:
            raise NetworkError("a shard router is already installed")
        self._router = router

    def attach(
        self,
        node: int,
        handler: Handler,
        resolver: Callable[[str], Handler] | None = None,
    ) -> None:
        """Register the delivery handler for ``node`` (one per node).

        Args:
            node: Destination node id.
            handler: Generic per-message delivery callable.
            resolver: Optional ``resolver(kind) -> callable`` giving the
                final per-kind delivery target, letting the network skip
                the handler's internal dispatch on every message.  Only
                valid when dispatch is stateless per message (e.g. no
                serialized interface-service queueing).
        """
        if node in self._handlers:
            raise NetworkError(f"node {node} already has a handler attached")
        if not 0 <= node < self.topology.n_nodes:
            raise NetworkError(f"node {node} not in topology {self.topology!r}")
        self._handlers[node] = handler
        if resolver is not None:
            self._resolvers[node] = resolver

    def _resolve_direct(self, dst: int, kind: str) -> Handler:
        """Fill the ``(dst, kind)`` delivery cache (slow path, once)."""
        resolver = self._resolvers.get(dst)
        if resolver is not None:
            fn = resolver(kind)
        else:
            fn = self._handlers.get(dst)
            if fn is None:
                raise NetworkError(f"no handler attached for destination {dst}")
        injector = self._injector
        if injector is not None:
            fn = injector.guard_delivery(dst, fn)
        self._direct[(dst, kind)] = fn
        return fn

    def _base(self, key: tuple[int, int]) -> float:
        """Memoized ``hops * hop_latency`` for one ``(src, dst)`` channel."""
        base = self._base_latency.get(key)
        if base is None:
            base = self.topology.hops(*key) * self._hop_latency
            self._base_latency[key] = base
        return base

    def _fifo(self, key: tuple[int, int]) -> list[float]:
        """The FIFO cell of one ``(src, dst)`` channel: ``[last arrival]``."""
        fifo = self._last_arrival.get(key)
        if fifo is None:
            fifo = self._last_arrival[key] = [_NEVER]
        return fifo

    def _plan(
        self, src: int, kind: str, targets: tuple[int, ...]
    ) -> tuple[PlanEntry, ...]:
        """Fill the fanout plan cache for one target set (slow path, once)."""
        direct = self._direct
        entries = []
        for dst in targets:
            handler = direct.get((dst, kind))
            if handler is None:
                handler = self._resolve_direct(dst, kind)
            key = (src, dst)
            entries.append((dst, self._fifo(key), self._base(key), handler))
        plan = self._plans[(src, kind, targets)] = tuple(entries)
        return plan

    def delay(self, src: int, dst: int, size_bytes: int) -> float:
        """Raw transfer delay for a message, before FIFO clamping."""
        return self._base((src, dst)) + size_bytes / self._link_bandwidth

    def _admit(
        self, msg: Message, arrival: float
    ) -> tuple[float, int, bool] | None:
        """Run the loss model and fault injector on one outbound message.

        Returns ``(arrival, copies, clamp_fifo)``, or ``None`` when the
        message is dropped (already counted and traced).
        """
        stats = self.stats
        sim = self.sim
        if self.loss_model is not None and self.loss_model.should_drop(msg):
            stats.dropped += 1
            stats.loss_dropped += 1
            stats.dropped_inbound[msg.dst] += 1
            if sim.trace_enabled:
                sim.tracer.record(
                    sim._now, "net.dropped", msg=str(msg), arrival=arrival
                )
            return None
        injector = self._injector
        verdict = None if injector is None else injector.on_send(msg)
        if verdict is None:
            return arrival, 1, True
        extra_delay, copies, clamp_fifo = verdict
        if copies == 0:
            # Crashed endpoint or partition-crossing message.
            stats.dropped += 1
            stats.fault_dropped += 1
            stats.dropped_inbound[msg.dst] += 1
            if sim.trace_enabled:
                sim.tracer.record(
                    sim._now, "fault.dropped", msg=str(msg), arrival=arrival
                )
            return None
        if extra_delay > 0.0:
            arrival += extra_delay
            stats.fault_delayed += 1
        if copies > 1:
            stats.fault_duplicated += copies - 1
        return arrival, copies, clamp_fifo

    def send(self, msg: Message) -> float:
        """Inject ``msg``; returns its scheduled arrival time.

        Local sends (``src == dst``) are delivered with zero wire delay but
        still go through the event queue so handler re-entrancy is
        impossible.
        """
        dst = msg.dst
        kind = msg.kind
        handler = self._direct.get((dst, kind))
        if handler is None:
            handler = self._resolve_direct(dst, kind)
        sim = self.sim
        now = sim._now
        msg.sent_at = now

        src = msg.src
        size_bytes = msg.size_bytes
        stats = self.stats
        stats.messages += 1
        stats.bytes += size_bytes
        stats.by_kind[kind] += 1
        stats.outbound[src] += 1

        # Inlined self.delay(): one dict probe plus the serialization
        # division, with the per-pair hop latency memoized on first use.
        key = (src, dst)
        base = self._base_latency.get(key)
        if base is None:
            base = self._base(key)
        arrival = now + (base + size_bytes / self._link_bandwidth)
        copies = 1
        clamp_fifo = True
        if self.loss_model is not None or self._injector is not None:
            admitted = self._admit(msg, arrival)
            if admitted is None:
                return arrival
            arrival, copies, clamp_fifo = admitted
        if clamp_fifo:
            fifo = self._last_arrival.get(key)
            if fifo is None:
                fifo = self._fifo(key)
            if arrival < fifo[0]:
                arrival = fifo[0]
            fifo[0] = arrival
        router = self._router
        if router is not None:
            # Sharded replica: every arrival — intra- or cross-shard —
            # is keyed in the arrival band by a (send time, src, per-src
            # send index) token.  The token reproduces the serial
            # kernel's ordering, where a delivery's sequence number is
            # allocated at send time, while staying independent of any
            # replica-local counter — so a front replica and its
            # replaying base stamp identical keys, and arrivals from
            # different shards order consistently at equal times.
            seq_map = self._node_send_seq
            idx = seq_map.get(src, 0)
            seq_map[src] = idx + copies
            if dst not in router.owned:
                # Cross-shard: the owning replica delivers (and counts
                # the inbound load); this replica only recorded the send.
                router.emit(msg, arrival, copies, (now, src, idx))
                if sim.trace_enabled:
                    sim.tracer.record(
                        now, "net.shard_route", msg=str(msg), arrival=arrival
                    )
                return arrival
            stats.inbound[dst] += copies
            queue = self._queue
            heap = queue._heap
            for offset in range(copies):
                heappush(
                    heap,
                    (
                        arrival,
                        PRIORITY_ARRIVAL_BAND,
                        (now, src, idx + offset),
                        handler,
                        msg,
                    ),
                )
            queue._live += copies
            if sim.trace_enabled:
                sim.tracer.record(now, "net.send", msg=str(msg), arrival=arrival)
            return arrival
        stats.inbound[dst] += copies

        # Inlined EventQueue.push_call: one heap event carries every
        # delivery copy (duplicate faults) of this message.
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + copies
        if copies == 1:
            heappush(queue._heap, (arrival, 0, seq, handler, msg))
        else:
            heappush(
                queue._heap,
                (arrival, 0, seq, fire_batch, [(handler, msg)] * copies),
            )
        queue._live += 1
        if sim.trace_enabled:
            sim.tracer.record(now, "net.send", msg=str(msg), arrival=arrival)
        return arrival

    def send_fanout(
        self,
        src: int,
        targets: tuple[int, ...],
        kind: str,
        payload: object,
        size_bytes: int,
    ) -> None:
        """Send one payload from ``src`` to every target (multicast path).

        Observably identical to building and :meth:`send`-ing one
        :class:`Message` per target, in target order; see
        :meth:`_fanout`.
        """
        self._fanout(src, targets, kind, (payload,), (size_bytes,))

    def send_fanout_train(
        self,
        src: int,
        targets: tuple[int, ...],
        kind: str,
        payloads: "list[object] | tuple[object, ...]",
        sizes: "list[int] | tuple[int, ...]",
    ) -> None:
        """Send a train of payloads from ``src`` to every target.

        Observably identical to calling :meth:`send_fanout` once per
        ``(payload, size)`` entry, in entry order, except that arrival
        times round as a train (see :meth:`_fanout`).  Messages sent back-to-back on a FIFO channel
        arrive together whenever no later message is larger than the
        running maximum, so a k-burst of same-size updates costs one
        heap event per distinct arrival instant, not k per member.
        """
        self._fanout(src, targets, kind, payloads, sizes)

    def _fanout(
        self,
        src: int,
        targets: tuple[int, ...],
        kind: str,
        payloads: "list[object] | tuple[object, ...]",
        sizes: "list[int] | tuple[int, ...]",
    ) -> None:
        """The one fanout loop: send every ``(payload, size)`` pair to
        every target, one heap event per distinct arrival instant.

        Messages are built entry-major, in the order one :meth:`send`
        per message would take, so seqs, loss-RNG draws and trace
        records keep their per-message order.  Each message takes one
        seq per delivery copy; a batch takes the seq of its first
        delivery and holds its deliveries in seq order.
        """
        sim = self.sim
        now = sim._now
        plan = self._plans.get((src, kind, targets))
        if plan is None:
            plan = self._plan(src, kind, targets)
        router = self._router
        trace = sim.trace_enabled
        hooked = (
            self.loss_model is not None
            or self._injector is not None
            or router is not None
            or trace
        )
        if router is None:
            # Under a router, send() does the accounting per message.
            n = len(plan) * len(sizes)
            stats = self.stats
            stats.messages += n
            stats.bytes += len(plan) * sum(sizes)
            stats.by_kind[kind] += n
            stats.outbound[src] += n
            inbound = stats.inbound
        # An unhooked train rounds as ``(now + base) + size * (1 / bw)``,
        # everything else as send() does, ``now + (base + size / bw)``.
        # The goldens pin both roundings bit for bit.
        staged = not hooked and len(sizes) > 1
        bandwidth = self._link_bandwidth
        inverse = 1.0 / bandwidth
        queue = self._queue
        seq = queue._next_seq
        #: arrival -> [(handler, msg), ...] and the seq of its first entry.
        batches: dict[float, list] = {}
        firsts: dict[float, int] = {}
        for payload, size in zip(payloads, sizes):
            serial = size * inverse if staged else size / bandwidth
            for dst, fifo, base, handler in plan:
                msg = Message(src, dst, kind, payload, size, None, now)
                arrival = (now + base) + serial if staged else now + (base + serial)
                copies = 1
                if hooked:
                    if router is not None:
                        self.send(msg)
                        continue
                    admitted = self._admit(msg, arrival)
                    if admitted is None:
                        continue
                    arrival, copies, clamp_fifo = admitted
                    if not clamp_fifo:
                        fifo = [arrival]
                if arrival < fifo[0]:
                    arrival = fifo[0]
                fifo[0] = arrival
                inbound[dst] += copies
                batch = batches.get(arrival)
                if batch is None:
                    batch = batches[arrival] = []
                    firsts[arrival] = seq
                batch.append((handler, msg))
                seq += copies
                if hooked:
                    batch.extend([(handler, msg)] * (copies - 1))
                    if trace:
                        sim.tracer.record(
                            now, "net.send", msg=str(msg), arrival=arrival
                        )
        heap = queue._heap
        for arrival, batch in batches.items():
            if len(batch) == 1:
                handler, msg = batch[0]
                heappush(heap, (arrival, 0, firsts[arrival], handler, msg))
            else:
                heappush(heap, (arrival, 0, firsts[arrival], fire_batch, batch))
        queue._next_seq = seq
        queue._live += len(batches)
