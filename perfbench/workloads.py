"""The benchmark's four workloads, each one pass through repro's public API.

Every workload runs serially (``jobs=1``) in the pass process, so host
time measures the simulator and not the scheduler of a small shared
host.  A workload returns :class:`Outcome`: the rows its experiment
function produced (digested), the correctness checks it ran, and its
modelled results.  Modelled results come from the simulation alone and
are deterministic for a given seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments import figure2, figure8, rootshard
from repro.experiments.runner import SweepExecutor
from repro.workloads.synthetic import SyntheticConfig, run_synthetic


@dataclass
class Outcome:
    rows: list[Any]
    #: (claim, holds) for each correctness check.
    checks: list[tuple[str, bool]]
    #: Modelled results: speedups per series, simulated time, root load.
    sim: dict[str, float]


def _expectations(checks: list[Any]) -> list[tuple[str, bool]]:
    return [(check.claim, bool(check.holds)) for check in checks]


def fig2_taskqueue(seed: int, runs: list[dict[str, Any]]) -> Outcome:
    """Figure 2 task queue at 17, 33 and 65 CPUs (takes no seed)."""
    rows = figure2.run_figure2(sizes=(17, 33, 65), total_tasks=1024, jobs=1)
    last = rows[-1]
    return Outcome(
        rows=[dataclasses.asdict(row) for row in rows],
        checks=_expectations(figure2.expectations(rows)),
        sim={"speedup_gwc": last.gwc, "speedup_entry": last.entry},
    )


def fig8_pipeline(seed: int, runs: list[dict[str, Any]]) -> Outcome:
    """Figure 8 pipeline at 8 and 32 CPUs (takes no seed)."""
    rows = figure8.run_figure8(sizes=(8, 32), data_size=1024, jobs=1)
    last = rows[-1]
    return Outcome(
        rows=[dataclasses.asdict(row) for row in rows],
        checks=_expectations(figure8.expectations(rows)),
        sim={
            "speedup_gwc": last.gwc,
            "speedup_optimistic": last.optimistic,
            "speedup_entry": last.entry,
        },
    )


def _contention_point(point: tuple[str, int]) -> dict[str, Any]:
    system, seed = point
    result = run_synthetic(
        SyntheticConfig(
            system=system,
            n_nodes=16,
            sections_per_node=256,
            mean_think=100e-6,
            mean_section=1e-6,
            seed=seed,
        )
    )
    return {
        "system": system,
        "speedup": result.speedup,
        "elapsed": result.elapsed,
        "correct": result.extra["correct"],
        "converged": result.extra["converged"],
    }


def optimistic_contention(seed: int, runs: list[dict[str, Any]]) -> Outcome:
    """Seeded lock contention under optimistic and regular GWC."""
    rows = SweepExecutor(1).map(
        _contention_point, [("gwc_optimistic", seed), ("gwc", seed)]
    )
    optimistic, gwc = rows
    checks = []
    for row in rows:
        checks.append((f"{row['system']}: counter reaches its expected value",
                       bool(row["correct"])))
        checks.append((f"{row['system']}: every member converges",
                       bool(row["converged"])))
    return Outcome(
        rows=rows,
        checks=checks,
        sim={
            "speedup_gwc": gwc["speedup"],
            "speedup_optimistic": optimistic["speedup"],
        },
    )


def rootshard_rebalance(seed: int, runs: list[dict[str, Any]]) -> Outcome:
    """256 CPUs, 4 roots, relay fanout 8, one online re-partition."""
    rows = rootshard.run_rootshard_sweep(
        sizes=(256,), roots=4, fanout=8, rebalance=True, seed=seed, jobs=1
    )
    row = rows[-1]
    # The sweep point runs the serial-root baseline, then the sharded
    # run; the last machine run is the sharded one.
    sharded = runs[-1]
    return Outcome(
        rows=[dataclasses.asdict(r) for r in rows],
        checks=_expectations(rootshard.expectations(rows)),
        sim={
            "speedup_gwc": sharded["speedup"],
            "elapsed_us": row.sharded_elapsed * 1e6,
            "root_load_ratio": row.max_over_mean_after,
            "repartition_moves": row.migration_moves,
            "repartition_locks_transferred": row.locks_transferred,
            "repartition_discards": row.migration_discards,
        },
    )


#: name -> (function, number of checks it runs).  The count is what a
#: pass that raises is charged as failed.
WORKLOADS: dict[str, tuple[Callable[[int, list], Outcome], int]] = {
    "fig2_taskqueue": (fig2_taskqueue, 5),
    "fig8_pipeline": (fig8_pipeline, 6),
    "optimistic_contention": (optimistic_contention, 4),
    "rootshard_rebalance": (rootshard_rebalance, 5),
}
