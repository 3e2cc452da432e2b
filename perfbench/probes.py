"""Probes the benchmark installs around repro's public calls.

Nothing here edits repro.  Every probe replaces a class or module
attribute, inside the one process that runs a pass, with a wrapper that
calls the original.  Two kinds exist:

* :class:`PassProbe` is installed in every pass, traced or not.  It
  wraps one call per simulation run (not per event or message): it
  clocks ``Simulator.run`` so set-up time can be split off, reads each
  machine's deterministic work counts once its run ends, and records
  every state hash the workloads compute.
* :class:`Tracer` is installed only in traced passes.  It wraps the
  per-message and per-write layer boundaries, so it costs time; the
  traced pass is therefore never used for end-to-end timings.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

from repro.consistency.entry import EntrySystem
from repro.consistency.gwc import GroupRootEngine
from repro.core.machine import DSMMachine
from repro.experiments.runner import SweepExecutor
from repro.locks.gwc_lock import GwcLockClient, GwcLockManager
from repro.memory.interface import NodeInterface
from repro.net.network import Network
from repro.sim import statehash
from repro.sim.kernel import Simulator

clock = time.perf_counter


class PassProbe:
    """Run clock, per-run model outcomes, work counts and state hashes."""

    def __init__(self) -> None:
        #: Host seconds spent inside ``Simulator.run``.
        self.run_s = 0.0
        #: One summary per completed machine run, in run order.
        self.runs: list[dict[str, Any]] = []
        #: Deterministic work counts summed over every machine run.
        self.counts: Counter = Counter()
        #: Simulated seconds of rolled-back speculative work.
        self.wasted_sim_s = 0.0
        self.state_hashes: list[str] = []

    def install(self) -> None:
        probe = self
        sim_run = Simulator.run
        machine_run = DSMMachine.run
        state_hash = statehash.machine_state_hash

        def timed_sim_run(self: Simulator, *args: Any, **kwargs: Any) -> float:
            start = clock()
            try:
                return sim_run(self, *args, **kwargs)
            finally:
                probe.run_s += clock() - start

        def counted_machine_run(
            self: DSMMachine, *args: Any, **kwargs: Any
        ) -> float:
            elapsed = machine_run(self, *args, **kwargs)
            probe._collect(self)
            return elapsed

        def recorded_state_hash(machine: DSMMachine) -> str:
            digest = state_hash(machine)
            probe.state_hashes.append(digest)
            return digest

        Simulator.run = timed_sim_run
        DSMMachine.run = counted_machine_run
        statehash.machine_state_hash = recorded_state_hash

    def _collect(self, machine: DSMMachine) -> None:
        metrics = machine.metrics
        self.runs.append(
            {
                "n_nodes": machine.n_nodes,
                "elapsed": metrics.elapsed,
                "speedup": metrics.speedup(),
            }
        )
        self.wasted_sim_s += metrics.total_wasted()
        counts = self.counts
        stats = machine.network.stats
        counts["net.msgs"] += stats.messages
        counts["net.bytes"] += stats.bytes
        counts["net.dropped"] += stats.dropped
        for kind, n in stats.by_kind.items():
            counts[f"net.msgs.{kind}"] += n
        for node in metrics.nodes:
            for name, n in node.counters.items():
                counts[f"node.{name}"] += n
        counts["memory.relayed_applies"] += sum(
            node.iface.relayed_applies for node in machine.nodes
        )


class Tracer:
    """Self-time spans and simulated lock waits at layer boundaries.

    A span's self time is its duration minus the time of the spans
    nested inside it.  Per-message spans are aggregated as they close
    (calls, total, self); only the coarse spans listed in ``KEEP`` are
    also kept whole, in memory, and written out when the pass ends, so
    tracing a pass with a million applies does not hold a million
    records.
    """

    KEEP = frozenset(
        {"sim.run", "experiments.sweep.point", "core.machine.build",
         "core.machine.create_group"}
    )

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list[float]] = {}
        #: Kept spans: (name, start, end, parent index or -1).
        self.spans: list[tuple[str, float, float, int]] = []
        #: Open spans: [name, child seconds, kept-span index or -1].
        self._stack: list[list[Any]] = [["root", 0.0, -1]]
        #: Simulated seconds each lock acquisition waited.
        self.lock_waits: list[float] = []
        #: Nodes inside a recorded acquisition (see :meth:`lock_wait`).
        self._waiting: set[int] = set()
        self._origin = clock()

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is one ``name`` span."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        keep = name in self.KEEP
        spans = self.spans
        origin = self._origin

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = -1
            if keep:
                index = len(spans)
                spans.append((name, 0.0, 0.0, stack[-1][2]))
            frame = [name, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if keep:
                    spans[index] = (
                        name, start - origin, end - origin, spans[index][3]
                    )

        return traced

    def lock_wait(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a lock-acquire generator to record its simulated wait.

        Acquire generators nest (``acquire`` delegates to
        ``await_grant``); only the outermost one per node is recorded.
        """
        waits = self.lock_waits
        waiting = self._waiting

        def timed(owner: Any, node: Any, *args: Any, **kwargs: Any) -> Any:
            if node.id in waiting:
                return (yield from fn(owner, node, *args, **kwargs))
            waiting.add(node.id)
            try:
                start = node.sim.now
                result = yield from fn(owner, node, *args, **kwargs)
                waits.append(node.sim.now - start)
                return result
            finally:
                waiting.discard(node.id)

        return timed

    def install(self) -> None:
        span = self.span
        Simulator.run = span("sim.run", Simulator.run)
        Network.send = span("net.send", Network.send)
        Network.send_fanout = span("net.fanout", Network.send_fanout)
        Network.send_fanout_train = span("net.train", Network.send_fanout_train)
        NodeInterface.share_write = span(
            "memory.share_write", NodeInterface.share_write
        )
        delivery_for = NodeInterface.delivery_for

        def traced_delivery_for(self: NodeInterface, kind: str) -> Any:
            name = "memory.apply" if kind == "gwc.apply" else "memory.deliver_other"
            return span(name, delivery_for(self, kind))

        NodeInterface.delivery_for = traced_delivery_for
        GroupRootEngine.on_update = span(
            "consistency.root", GroupRootEngine.on_update
        )
        GroupRootEngine.on_update_burst = span(
            "consistency.root", GroupRootEngine.on_update_burst
        )
        register = DSMMachine.register_kind_handler

        def traced_register(
            self: DSMMachine, prefix: str, handler: Any, per_node: Any = None
        ) -> None:
            if prefix == "ec":
                handler = span("consistency.entry.handler", handler)
            register(self, prefix, handler, per_node)

        DSMMachine.register_kind_handler = traced_register
        GwcLockManager.on_write = span("locks.manager", GwcLockManager.on_write)
        GwcLockClient.acquire = self.lock_wait(GwcLockClient.acquire)
        GwcLockClient.await_grant = self.lock_wait(GwcLockClient.await_grant)
        EntrySystem.acquire = self.lock_wait(EntrySystem.acquire)
        sweep_map = SweepExecutor.map

        def traced_map(self: SweepExecutor, fn: Any, items: Any) -> list[Any]:
            return sweep_map(self, span("experiments.sweep.point", fn), items)

        SweepExecutor.map = traced_map
        DSMMachine.__init__ = span("core.machine.build", DSMMachine.__init__)
        DSMMachine.create_group = span(
            "core.machine.create_group", DSMMachine.create_group
        )
