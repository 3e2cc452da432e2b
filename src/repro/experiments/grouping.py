"""Grouping ablation: per-group roots vs. one overloaded global root.

Section 1.2 of the paper: "Group write consistency could also guarantee
ordering between overlapping groups ... However ... combining
overlapping groups into one global group can prevent scaling in large
networks by overloading the global root and greatly reducing
performance."  (A single global group is also how total store ordering's
"centralized memory write arbitrator" behaves — which the paper calls
"not viable for large distributed memories".)

This experiment runs K independent lock-protected counters on N nodes
in two configurations:

* **split** — K sharing groups, each with its own root spread across the
  machine (the Sesame design);
* **merged** — everything in one global group rooted at node 0 (the
  TSO-arbitrator strawman).

With a non-zero interface service time the merged configuration's root
must process every update, grant, and echo in the machine; the split
configuration distributes that load over K roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consistency.base import make_system
from repro.consistency.checker import MutualExclusionChecker
from repro.core.machine import DSMMachine
from repro.core.node import NodeHandle
from repro.core.section import Section, SectionContext
from repro.errors import ExperimentError
from repro.experiments.common import PaperExpectation
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams

from dataclasses import replace


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Parameters for the grouping ablation."""

    n_nodes: int = 16
    #: Independent counters/locks; nodes are partitioned over them.
    n_partitions: int = 4
    increments_per_node: int = 8
    think_time: float = 4e-6
    update_time: float = 0.5e-6
    #: Interface processing time per message (must be > 0 for the root
    #: bottleneck to exist at all).
    interface_service_time: float = 0.5e-6
    params: MachineParams = PAPER_PARAMS
    seed: int = 0


def _counter_body(ctx: SectionContext):
    var = ctx.node.locals["_var"]
    value = ctx.read(var)
    yield from ctx.compute(ctx.node.locals["_update_time"])
    if ctx.aborted:
        return
    ctx.write(var, value + 1)


def run_grouping(config: GroupingConfig, merged: bool) -> dict[str, float]:
    """Run one configuration; returns elapsed time and root load."""
    if config.n_nodes % config.n_partitions != 0:
        raise ExperimentError(
            f"{config.n_partitions} partitions must divide {config.n_nodes} nodes"
        )
    params = replace(
        config.params, interface_service_time=config.interface_service_time
    )
    checker = MutualExclusionChecker()
    machine = DSMMachine(
        n_nodes=config.n_nodes,
        params=params,
        seed=config.seed,
        checker=checker,
    )
    per_group = config.n_nodes // config.n_partitions
    partitions = [
        tuple(range(p * per_group, (p + 1) * per_group))
        for p in range(config.n_partitions)
    ]

    sections = {}
    for p, members in enumerate(partitions):
        var = f"counter_{p}"
        lock = f"lock_{p}"
        if merged:
            group = "global"
            if p == 0:
                machine.create_group(group, root=0)
        else:
            group = f"g{p}"
            machine.create_group(group, members=members, root=members[0])
        machine.declare_variable(group, var, 0, mutex_lock=lock)
        machine.declare_lock(group, lock, protects=(var,))
        sections[p] = Section(
            lock=lock,
            body=_counter_body,
            shared_reads=(var,),
            shared_writes=(var,),
            label=f"grouping-{p}",
        )

    system = make_system("gwc", machine)

    def worker(node: NodeHandle, partition: int):
        node.locals["_var"] = f"counter_{partition}"
        node.locals["_update_time"] = config.update_time
        for _ in range(config.increments_per_node):
            yield from node.busy(config.think_time, kind="useful")
            yield from system.run_section(node, sections[partition])

    for p, members in enumerate(partitions):
        for node_id in members:
            machine.spawn(
                worker(machine.nodes[node_id], p), name=f"w{node_id}"
            )
    elapsed = machine.run()
    machine.sim.check_quiescent()
    checker.verify_no_occupancy()

    for p, members in enumerate(partitions):
        expected = per_group * config.increments_per_node
        holder = machine.nodes[members[0]]
        if holder.store.read(f"counter_{p}") != expected:
            raise ExperimentError(
                f"partition {p}: lost updates "
                f"({holder.store.read(f'counter_{p}')} != {expected})"
            )

    stats = machine.network.stats
    hot_node, hot_load = stats.hottest_receiver()
    return {
        "elapsed": elapsed,
        "messages": float(stats.messages),
        "hottest_node": float(hot_node),
        "hottest_load": float(hot_load),
        "merged": float(merged),
    }


@dataclass(frozen=True, slots=True)
class GroupingRow:
    n_nodes: int
    split_elapsed: float
    merged_elapsed: float

    @property
    def slowdown(self) -> float:
        return self.merged_elapsed / self.split_elapsed


def run_grouping_sweep(
    sizes: tuple[int, ...] = (8, 16, 32),
    partitions_per_size: int = 4,
    config: GroupingConfig = GroupingConfig(),
) -> list[GroupingRow]:
    """Sweep machine sizes; the merged/split gap must widen with size."""
    rows = []
    for n_nodes in sizes:
        sized = replace(
            config, n_nodes=n_nodes, n_partitions=partitions_per_size
        )
        split = run_grouping(sized, merged=False)
        merged = run_grouping(sized, merged=True)
        rows.append(
            GroupingRow(
                n_nodes=n_nodes,
                split_elapsed=split["elapsed"],
                merged_elapsed=merged["elapsed"],
            )
        )
    return rows


def render(rows: list[GroupingRow]) -> str:
    return format_table(
        ["CPUs", "split roots (us)", "global root (us)", "slowdown"],
        [
            [
                row.n_nodes,
                row.split_elapsed * 1e6,
                row.merged_elapsed * 1e6,
                row.slowdown,
            ]
            for row in rows
        ],
        title="Grouping ablation: per-group roots vs one global root",
    )


def expectations(rows: list[GroupingRow]) -> list[PaperExpectation]:
    """Section 1.2's warning, checked against the sweep."""
    checks = [
        PaperExpectation(
            "one global root is more than 1.5x slower than per-group roots "
            "at every size (min slowdown "
            f"{min(row.slowdown for row in rows):.2f})",
            all(row.slowdown > 1.5 for row in rows),
        )
    ]
    if len(rows) > 1:
        checks.append(
            PaperExpectation(
                "the global root's elapsed time grows from the smallest "
                "machine to the largest",
                rows[-1].merged_elapsed > rows[0].merged_elapsed,
            )
        )
    return checks
