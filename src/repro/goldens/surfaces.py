"""The registry of artifact-producing surfaces covered by goldens.

A *surface* is one reproducible artifact set: a figure sweep, an
ablation, a chaos matrix, a fault campaign.  Each surface's
``generate`` function writes its artifacts through a crash-safe
:class:`RunWriter` at **quick scale** (Figures 2 and 8 take theirs
from :mod:`repro.experiments.common`), with nothing read from the
environment, so two runs on any two hosts produce byte-identical
files.

Everything recorded here is regenerated from code and is
simulated-time deterministic: no surface reads a committed file or
records a host fingerprint or a wall-clock measurement.  Host
performance is measured by ``perfbench/``, never by a golden.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExperimentError
from repro.goldens.writer import RunWriter

#: Repository root (src layout: src/repro/goldens/surfaces.py -> root).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def _rows_payload(rows: list[Any]) -> list[dict[str, Any]]:
    return [dataclasses.asdict(row) for row in rows]


def _expectations_payload(checks: list[Any]) -> dict[str, bool]:
    return {check.claim: check.holds for check in checks}


def _generate_figure1(run: RunWriter) -> None:
    from repro.experiments import figure1

    rows = figure1.run_figure1()
    run.write_json(
        "figure1.json",
        {
            "rows": _rows_payload(rows),
            "expectations": _expectations_payload(figure1.expectations(rows)),
        },
    )


def _generate_figure2(run: RunWriter) -> None:
    from repro.experiments import figure2
    from repro.experiments.common import figure2_scale

    rows = figure2.run_figure2(*figure2_scale())
    run.write_csv("figure2.csv", rows)
    run.write_json(
        "expectations.json", _expectations_payload(figure2.expectations(rows))
    )


def _generate_figure8(run: RunWriter) -> None:
    from repro.experiments import figure8
    from repro.experiments.common import figure8_scale

    rows = figure8.run_figure8(*figure8_scale())
    run.write_csv("figure8.csv", rows)
    run.write_json(
        "expectations.json", _expectations_payload(figure8.expectations(rows))
    )


def _generate_ablation(run: RunWriter) -> None:
    from repro.experiments.ablation import (
        run_echo_blocking_ablation,
        run_lock_primitive_shootout,
        run_lock_protocol_shootout,
        run_threshold_sweep,
    )

    run.write_csv(
        "threshold.csv", run_threshold_sweep(think_times=(15e-6, 50e-6))
    )
    run.write_csv("lock_protocols.csv", run_lock_protocol_shootout())
    run.write_csv("lock_primitives.csv", run_lock_primitive_shootout())
    with_filter, without_filter = run_echo_blocking_ablation()
    run.write_json(
        "echo_blocking.json",
        {
            "with_filter": {
                "correct": with_filter.extra["correct"],
                "chain_ok": with_filter.extra["chain_ok"],
            },
            "without_filter": {
                "correct": without_filter.extra["correct"],
                "chain_ok": without_filter.extra["chain_ok"],
            },
        },
    )


def _generate_validation(run: RunWriter) -> None:
    """Analytic model vs simulation, and the forced optimism modes."""
    from repro.experiments.ablation import run_force_modes
    from repro.experiments.analytic import run_analytic_validation

    run.write_csv(
        "analytic_validation.csv",
        run_analytic_validation(sizes=(2, 4, 8, 16, 32), data_size=128),
    )
    run.write_csv(
        "force_modes.csv",
        run_force_modes(n_nodes=6, increments_per_node=12, think_time=4e-6),
    )


def _generate_sensitivity(run: RunWriter) -> None:
    from repro.experiments.sensitivity import (
        run_bandwidth_sweep,
        run_hop_latency_sweep,
    )

    run.write_csv("hop_latency.csv", run_hop_latency_sweep())
    run.write_csv("bandwidth.csv", run_bandwidth_sweep())


def _generate_grouping(run: RunWriter) -> None:
    from repro.experiments.grouping import run_grouping_sweep

    rows = run_grouping_sweep(sizes=(8, 16, 32))
    run.write_csv(
        "grouping.csv",
        [
            {
                "n_nodes": row.n_nodes,
                "split_elapsed": row.split_elapsed,
                "merged_elapsed": row.merged_elapsed,
                "slowdown": row.slowdown,
            }
            for row in rows
        ],
    )


def _generate_replication(run: RunWriter) -> None:
    """Multi-seed replication: per-seed values plus the determinism check.

    Replicating one seed five times must collapse the confidence
    interval to a point (std == 0); that property is recorded as data,
    and it keeps this artifact independent of whether scipy's Student-t
    table is installed on the host.
    """
    from repro.experiments.replication import replicate
    from repro.workloads.counter import CounterConfig, run_counter

    def one(seed: int) -> float:
        result = run_counter(
            CounterConfig(system="gwc", n_nodes=6, increments_per_node=8, seed=seed)
        )
        return result.elapsed

    per_seed = {str(seed): one(seed) for seed in range(5)}
    collapsed = replicate(lambda _seed: one(0), seeds=range(5), name="elapsed")
    run.write_json(
        "replication.json",
        {
            "per_seed_elapsed": per_seed,
            "same_seed": {
                "n": collapsed.n,
                "mean": collapsed.mean,
                "std": collapsed.std,
                "ci_collapses_to_point": collapsed.ci_low == collapsed.ci_high,
            },
        },
    )


def _generate_burst(run: RunWriter) -> None:
    from repro.experiments.burst import DEFAULT_SIZES, run_burst_sweep

    rows = run_burst_sweep(
        sizes=DEFAULT_SIZES, n_nodes=8, rounds=4, writes_per_round=8
    )
    run.write_csv("burst.csv", rows)


def _generate_chaos(run: RunWriter) -> None:
    """The ``repro chaos --smoke`` matrix (incl. ``crash_root``), seed 0."""
    from repro.faults.chaos import SMOKE_MATRIX, ChaosConfig, chaos_csv_row, run_chaos

    rows = []
    for system, workload, scenario in SMOKE_MATRIX:
        result = run_chaos(
            ChaosConfig(
                system=system, workload=workload, scenario=scenario, seed=0
            )
        )
        rows.append(chaos_csv_row(result))
    run.write_csv("chaos.csv", rows)


def _generate_campaign(run: RunWriter) -> None:
    """The ``repro campaign --smoke`` summary: generated plans + oracles.

    Uses the exact :func:`repro.faults.campaign.smoke_config` the CLI
    smoke path runs, so a drift here means either the plan generator,
    a trial's protocol behaviour, or the shared chaos-run CSV schema
    changed.  Every smoke trial must pass — a red trial is a bug, not
    a golden.
    """
    from repro.faults.campaign import run_campaign, smoke_config

    campaign = run_campaign(smoke_config())
    failed = [o.trial.index for o in campaign.failures()]
    if failed:
        raise ExperimentError(
            f"campaign smoke trial(s) {failed} failed; fix the run before "
            "regenerating goldens"
        )
    run.write_csv("campaign.csv", campaign.rows())


def _generate_failover(run: RunWriter) -> None:
    """The root-kill matrix behind ``make failover-smoke``: 2 systems x 3 seeds."""
    from repro.faults.chaos import ChaosConfig, chaos_csv_row, run_chaos

    rows = []
    for system in ("gwc", "gwc_optimistic"):
        for seed in range(3):
            result = run_chaos(
                ChaosConfig(
                    system=system,
                    workload="counter",
                    scenario="crash_root",
                    seed=seed,
                )
            )
            rows.append(chaos_csv_row(result))
    run.write_csv("failover.csv", rows)


def _generate_sharded_root(run: RunWriter) -> None:
    """Sharded-root fileset: serial-parity hashes plus handoff counters.

    One pinned (seed, topology, partition) triple per record: the
    sharded family, with and without relay trees and with an online
    re-partition mid-run, must converge to the byte-identical
    serial-baseline state.  The handoff counters (moves, transferred
    locks, epoch restarts) are deterministic per seed, so drift in the
    fence or migration order shows up here before any sweep does.
    """
    from repro.workloads.rootshard import RootShardConfig, run_rootshard

    def config(
        roots: int, fanout: int | None, rebalance: bool, partition_seed: int
    ):
        return RootShardConfig(
            n_nodes=16,
            roots=roots,
            fanout=fanout,
            hot_rounds=48,
            cold_units=4,
            cold_rounds=8,
            n_locks=2,
            n_lockers=6,
            increments=4,
            rebalance=rebalance,
            rebalance_frac=0.35,
            seed=0,
            partition_seed=partition_seed,
            topology="mesh_torus",
        )

    serial = run_rootshard(config(1, None, False, 0))
    records: list[dict[str, Any]] = []
    # The last point's partition seed deliberately lands the hot key on
    # a crowded root so the mid-run rebalance provably migrates units
    # (including a lock handoff between two live roots).
    for roots, fanout, rebalance, partition_seed in (
        (2, None, False, 0),
        (4, None, False, 0),
        (4, 3, False, 0),
        (4, 3, True, 1),
    ):
        sharded = run_rootshard(
            config(roots, fanout, rebalance, partition_seed)
        )
        moves = sharded.extra["migration_moves"]
        records.append(
            {
                "seed": 0,
                "partition_seed": partition_seed,
                "topology": "mesh_torus",
                "n_nodes": 16,
                "roots": roots,
                "fanout": fanout,
                "rebalance": rebalance,
                "serial_hash": serial.extra["shared_hash"],
                "sharded_hash": sharded.extra["shared_hash"],
                "parity": sharded.extra["shared_hash"]
                == serial.extra["shared_hash"],
                "correct": sharded.extra["correct"],
                "load_total": list(sharded.extra["load_total"]),
                "migration_moves": len(moves) if moves else 0,
                "locks_transferred": sharded.extra["locks_transferred"],
                "relayed_applies": sharded.extra["relayed_applies"],
                "epoch_restarts": sharded.extra["epoch_restarts"],
            }
        )
    if not all(r["parity"] and r["correct"] for r in records):
        raise ExperimentError(
            "sharded-root parity violated while generating goldens; "
            "refusing to snapshot broken root sharding"
        )
    if not any(
        r["rebalance"] and r["migration_moves"] > 0 and r["locks_transferred"]
        for r in records
    ):
        raise ExperimentError(
            "sharded-root rebalance point migrated nothing; refusing to "
            "snapshot a vacuous handoff golden"
        )
    run.write_json("sharded_root.json", {"records": records})


@dataclass(frozen=True, slots=True)
class Surface:
    """One golden-covered artifact surface."""

    name: str
    generate: Callable[[RunWriter], None]
    description: str


#: Every artifact-producing surface, in verification order (fast first).
SURFACES: tuple[Surface, ...] = (
    Surface("figure1", _generate_figure1, "3-CPU locking comparison"),
    Surface("replication", _generate_replication,
            "multi-seed replication + same-seed determinism collapse"),
    Surface("figure2", _generate_figure2, "task-management speedup sweep"),
    Surface("figure8", _generate_figure8, "mutex methods on the pipeline"),
    Surface("grouping", _generate_grouping,
            "per-group roots vs one global root"),
    Surface("burst", _generate_burst, "write-burst wire-traffic sweep"),
    Surface("sensitivity", _generate_sensitivity,
            "network-cost sensitivity sweeps"),
    Surface("ablation", _generate_ablation,
            "threshold / shootout / echo-blocking ablations"),
    Surface("validation", _generate_validation,
            "analytic-model validation + forced optimism modes"),
    Surface("sharded_root", _generate_sharded_root,
            "sharded-root serial-parity hashes + handoff counters"),
    Surface("failover", _generate_failover,
            "crash_root failover matrix (2 systems x 3 seeds)"),
    Surface("campaign", _generate_campaign,
            "randomized fault-campaign smoke (generated plans + oracles)"),
    Surface("chaos", _generate_chaos,
            "chaos smoke matrix incl. crash_root"),
)

SURFACES_BY_NAME: dict[str, Surface] = {s.name: s for s in SURFACES}


def surface_names() -> tuple[str, ...]:
    return tuple(s.name for s in SURFACES)


def get_surfaces(only: tuple[str, ...] | None = None) -> tuple[Surface, ...]:
    """Resolve a ``--only`` selection, raising on unknown names."""
    if only is None:
        return SURFACES
    unknown = [name for name in only if name not in SURFACES_BY_NAME]
    if unknown:
        raise ExperimentError(
            f"unknown golden surface(s) {unknown}; known: {list(surface_names())}"
        )
    return tuple(SURFACES_BY_NAME[name] for name in only)
