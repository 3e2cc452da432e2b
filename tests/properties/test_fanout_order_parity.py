"""Property: batched fanout delivery is order-identical to per-message sends.

``Network.send_fanout`` and ``Network.send_fanout_train`` put all
deliveries of one call that share an arrival instant into one heap
event.  That is only a mechanical change if nothing observable moves:
every handler call, and every event a handler schedules, must happen at
the same simulated time and in the same global order as when each
logical message goes through ``Network.send`` on its own.

The traffic mixes below interleave point-to-point sends, fanouts and
trains from several sources, with large warm-up messages so the FIFO
clamp engages, and handlers that schedule zero-delay follow-on events
or send replies from inside a batch.  They run bare, under a loss model,
under a tracer, and under a delay/duplicate fault plan.  The cost model
uses power-of-two latency and bandwidth so every arrival time is exact:
the property is about order, and the goldens pin the rounding.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, delay, duplicate
from repro.net.loss import LossModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import MeshTorus
from repro.params import MachineParams
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

N_NODES = 9
#: Dyadic cost model: 2**-20 s per hop, 2**30 bytes/s per link.
PARAMS = MachineParams(hop_latency=2.0**-20, link_bandwidth_bits=8 * 2.0**30)
TICK = 2.0**-22
SIZES = (16, 64, 256, 4096, 65536)
FOLLOW = ("none", "event", "reply")

nodes = st.integers(min_value=0, max_value=N_NODES - 1)
entry = st.tuples(st.sampled_from(SIZES), st.sampled_from(FOLLOW))
operation = st.one_of(
    st.tuples(
        st.just("send"), nodes, st.tuples(nodes), st.lists(entry, min_size=1, max_size=1)
    ),
    st.tuples(
        st.just("fanout"),
        nodes,
        st.lists(nodes, min_size=1, max_size=N_NODES, unique=True).map(tuple),
        st.lists(entry, min_size=1, max_size=1),
    ),
    st.tuples(
        st.just("train"),
        nodes,
        st.lists(nodes, min_size=1, max_size=N_NODES, unique=True).map(tuple),
        st.lists(entry, min_size=1, max_size=5),
    ),
)
script = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), operation),
    min_size=1,
    max_size=25,
)


def simulate(ops, batched, hooks=None):
    """Run ``ops``; return the delivery log, the stats and the trace."""
    tracer = Tracer() if hooks == "trace" else None
    sim = Simulator(seed=3, tracer=tracer)
    loss = None
    if hooks == "loss":
        loss = LossModel(0.3, random.Random(11), lossy_kinds=frozenset({"k"}))
    elif hooks == "lossless":
        loss = LossModel(0.0, random.Random(11))
    net = Network(sim, MeshTorus(N_NODES), PARAMS, loss)
    if hooks == "faults":
        plan = FaultPlan(
            [
                delay(2 * TICK, 2.0**-19, until=20 * TICK, kinds=("k",), nodes=(1, 4)),
                delay(
                    10 * TICK, 2.0**-18, until=30 * TICK, nodes=(2,), preserve_fifo=False
                ),
                duplicate(5 * TICK, until=25 * TICK, kinds=("k",), probability=0.5),
                duplicate(15 * TICK, until=35 * TICK, kinds=("reply",), copies=3),
            ],
            seed=5,
        )
        machine = SimpleNamespace(
            sim=sim, network=net, n_nodes=N_NODES, groups={}, root_engine=None
        )
        FaultInjector(machine, plan).install()
    log = []

    def handler(node):
        def deliver(msg):
            log.append(
                (sim.now, node, msg.src, msg.kind, msg.payload, msg.size_bytes)
            )
            if msg.kind != "k":
                return
            follow = msg.payload[-1]
            if follow == "event":
                sim.schedule_fn(
                    0.0, lambda: log.append((sim.now, node, "follow", msg.payload))
                )
            elif follow == "reply":
                net.send(Message(node, msg.src, "reply", msg.payload, 16))

        return deliver

    for node in range(N_NODES):
        net.attach(node, handler(node))

    def start(index, kind, src, targets, entries):
        payloads = [(index, i, follow) for i, (_, follow) in enumerate(entries)]
        sizes = [size for size, _ in entries]
        if not batched or kind == "send":
            for payload, size in zip(payloads, sizes):
                for dst in targets:
                    net.send(Message(src, dst, "k", payload, size))
        elif kind == "fanout":
            net.send_fanout(src, targets, "k", payloads[0], sizes[0])
        else:
            net.send_fanout_train(src, targets, "k", payloads, sizes)

    for index, (slot, op) in enumerate(ops):
        sim.at(slot * TICK, lambda i=index, op=op: start(i, *op))
    sim.run()
    stats = net.stats
    counters = (
        stats.messages,
        stats.bytes,
        stats.dropped,
        stats.fault_delayed,
        stats.fault_duplicated,
        dict(stats.by_kind),
        dict(stats.inbound),
        dict(stats.outbound),
        dict(stats.dropped_inbound),
    )
    trace = [
        (r.time, r.category, r.detail.get("arrival")) for r in (tracer or [])
    ]
    return log, counters, trace, sim.events_fired


def assert_parity(ops, hooks=None):
    per_message = simulate(ops, batched=False, hooks=hooks)
    batched = simulate(ops, batched=True, hooks=hooks)
    assert batched[:3] == per_message[:3]
    # Batching may only ever remove heap events.
    assert batched[3] <= per_message[3]


class TestFanoutOrderParity:
    @settings(max_examples=60, deadline=None)
    @given(ops=script)
    def test_bare_network(self, ops):
        assert_parity(ops)

    @settings(max_examples=30, deadline=None)
    @given(ops=script, hooks=st.sampled_from(["lossless", "loss", "trace"]))
    def test_loss_model_and_tracer(self, ops, hooks):
        assert_parity(ops, hooks)

    @settings(max_examples=40, deadline=None)
    @given(ops=script)
    def test_delay_and_duplicate_faults(self, ops):
        assert_parity(ops, "faults")

    def test_batching_cuts_heap_events(self):
        ops = [(0, ("fanout", 0, tuple(range(N_NODES)), [(16, "none")]))]
        per_message = simulate(ops, batched=False)
        batched = simulate(ops, batched=True)
        assert batched[0] == per_message[0]
        # One start event plus one delivery per member, against one
        # start event plus one per distinct hop count (0, 1 and 2).
        assert per_message[3] == 1 + N_NODES
        assert batched[3] == 1 + 3


class TestPlanCacheReset:
    def test_install_injector_after_fanout_guards_later_deliveries(self):
        sim = Simulator()
        net = Network(sim, MeshTorus(N_NODES), PARAMS)
        got = {node: [] for node in range(N_NODES)}
        for node in range(N_NODES):
            net.attach(node, lambda msg, node=node: got[node].append(msg.payload))
        targets = tuple(range(1, N_NODES))
        net.send_fanout(0, targets, "k", "before", 16)
        sim.run()
        machine = SimpleNamespace(
            sim=sim, network=net, n_nodes=N_NODES, groups={}, root_engine=None
        )
        injector = FaultInjector(machine, FaultPlan([], seed=0))
        injector.install()
        net.send_fanout(0, targets, "k", "after", 16)
        # Node 3 crashes while the second fanout is in flight: only the
        # injector's delivery guard can stop it now.
        injector.crashed.add(3)
        sim.run()
        assert got[3] == ["before"]
        assert injector.inflight_dropped == 1
        assert all(got[node] == ["before", "after"] for node in targets if node != 3)
