"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro reproduce [--full]   # every artefact + pass/fail digest
    python -m repro figure1 [--update-us F] [--delay-us F]
    python -m repro figure2 [--full] [--sizes 3,5,9] [--tasks N] [--chart]
    python -m repro figure8 [--full] [--sizes 2,4,8] [--data N] [--chart]
    python -m repro figure7
    python -m repro ablations
    python -m repro grouping [--sizes 8,16,32]
    python -m repro systems          # list registered consistency systems
    python -m repro burst [--sizes 1,2,4,8,0] [--nodes N] [--csv F]
    python -m repro chaos [--smoke] [--scenario crash_holder|...|mixed]
                          [--systems gwc,...] [--seeds N] [--csv F]
    python -m repro campaign [--smoke] [--trials N] [--seed S]
                          [--profile churn|...|all] [--bundle-dir D] [--csv F]
    python -m repro verify-goldens [--only figure2,chaos] [--dir D]
    python -m repro update-goldens   # needs REPRO_REGEN_GOLDENS=1

Exit codes are uniform across commands: 0 = clean, 1 = a check failed
(expectation miss, chaos stall/invariant, golden drift), 2 = usage
error (unknown scenario/system/surface, missing kill-switch).

Every command prints the same rows/series the paper's figure reports,
followed by the qualitative expectation checklist.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.consistency.base import system_names
from repro.errors import UsageError
from repro.experiments import digest, figure1, figure2, figure8
from repro.experiments.common import figure2_scale, figure8_scale
from repro.metrics.report import format_table


def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep points (default: $REPRO_JOBS, "
            "else serial); results are identical at any job count"
        ),
    )


def _exit_code(failures: int) -> int:
    return 1 if failures else 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    rows = figure1.run_figure1(
        update_time=args.update_us * 1e-6, cpu2_delay=args.delay_us * 1e-6
    )
    return _exit_code(digest.report(figure1.render(rows), figure1.expectations(rows)))


def _cmd_figure2(args: argparse.Namespace) -> int:
    sizes, tasks = figure2_scale(args.full)
    rows = figure2.run_figure2(
        sizes=_parse_sizes(args.sizes) if args.sizes else sizes,
        total_tasks=args.tasks or tasks,
        jobs=args.jobs,
    )
    text = figure2.render(rows)
    if args.chart:
        text += "\n\n" + figure2.chart(rows)
    return _exit_code(digest.report(text, figure2.expectations(rows)))


def _cmd_figure8(args: argparse.Namespace) -> int:
    sizes, data = figure8_scale(args.full)
    rows = figure8.run_figure8(
        sizes=_parse_sizes(args.sizes) if args.sizes else sizes,
        data_size=args.data or data,
        jobs=args.jobs,
    )
    text = figure8.render(rows)
    if args.chart:
        text += "\n\n" + figure8.chart(rows)
    return _exit_code(digest.report(text, figure8.expectations(rows)))


def _cmd_rootshard(args: argparse.Namespace) -> int:
    """Sharded-root sweep: serial-vs-sharded parity + per-root load."""
    from repro.experiments import rootshard

    if args.sizes:
        sizes = _parse_sizes(args.sizes)
    elif args.full:
        sizes = (16, 64, 256, 1024)
    else:
        sizes = (16, 64, 128)
    fanout = None if args.fanout == 0 else args.fanout
    rows = rootshard.run_rootshard_sweep(
        sizes=sizes,
        roots=args.roots,
        fanout=fanout,
        seed=args.seed,
        rebalance=not args.no_rebalance,
        jobs=args.jobs,
    )
    print(rootshard.render(rows))
    print()
    for row in rows:
        if row.load_after:
            print(
                f"  n={row.n_nodes}: per-root load after re-partition "
                f"{row.load_after} (before fence: {row.load_before})"
            )
    print()
    checks = rootshard.expectations(rows)
    for check in checks:
        print(check)
    return 0 if all(c.holds for c in checks) else 1


def _cmd_sharded_root_smoke(args: argparse.Namespace) -> int:
    """Sharded-root parity smoke: every layout must match serial."""
    from repro.experiments.rootshard import MAX_OVER_MEAN_BAR, point_config
    from repro.params import PAPER_PARAMS
    from repro.workloads.rootshard import run_rootshard

    failures = 0
    print("sharded-root smoke (semantic parity vs single-root serial):")
    for n_nodes, seed, topology in (
        (16, 0, "mesh_torus"),
        (24, 1, "ring"),
    ):
        serial = run_rootshard(
            point_config(
                n_nodes, 1, None, seed, topology, PAPER_PARAMS,
                rebalance=False,
            )
        )
        for roots, fanout, rebalance in (
            (2, None, False),
            (4, None, False),
            (4, 3, False),
            (4, 3, True),
        ):
            result = run_rootshard(
                point_config(
                    n_nodes, roots, fanout, seed, topology, PAPER_PARAMS,
                    rebalance=rebalance,
                )
            )
            ok = (
                result.extra["shared_hash"] == serial.extra["shared_hash"]
                and result.extra["correct"]
            )
            ratio = result.extra["max_over_mean_after"]
            if rebalance and (ratio is None or ratio > MAX_OVER_MEAN_BAR):
                ok = False
            failures += not ok
            detail = (
                f"max/mean={ratio:.2f} "
                f"moves={len(result.extra['migration_moves'] or {})}"
                if rebalance and ratio is not None
                else f"load={result.extra['load_total']}"
            )
            print(
                f"  {topology:<10s} n={n_nodes:<3d} roots={roots} "
                f"fanout={fanout if fanout is not None else '-'} "
                f"rebalance={'y' if rebalance else 'n'} "
                f"{'OK  ' if ok else 'FAIL'} {detail}"
            )
    print("PARITY OK" if failures == 0 else f"PARITY FAILED ({failures})")
    return 0 if failures == 0 else 1


def _cmd_figure7(args: argparse.Namespace) -> int:
    return _exit_code(digest.run_sections((digest.FIGURE7,)))


def _cmd_ablations(args: argparse.Namespace) -> int:
    return _exit_code(digest.run_sections(digest.ABLATION_SECTIONS, jobs=args.jobs))


def _cmd_grouping(args: argparse.Namespace) -> int:
    from repro.experiments import grouping

    sizes = _parse_sizes(args.sizes) if args.sizes else (8, 16, 32)
    rows = grouping.run_grouping_sweep(sizes=sizes)
    return _exit_code(digest.report(grouping.render(rows), grouping.expectations(rows)))


def _chaos_combos(args: argparse.Namespace) -> list[tuple[str, str, str]]:
    """Expand the chaos flags into (system, workload, scenario) runs."""
    from repro.faults.chaos import GWC_FAMILY, SCENARIOS, SMOKE_MATRIX

    if args.smoke:
        # The fixed, deterministic mini-matrix covering every scenario,
        # both workloads, and a non-GWC system.  Keep it fast: this runs
        # inside the default `make test` (and feeds the chaos goldens).
        return list(SMOKE_MATRIX)
    systems = [name for name in args.systems.split(",") if name]
    combos: list[tuple[str, str, str]] = []
    if args.scenario == "mixed":
        for system in systems:
            scenarios = SCENARIOS if system in GWC_FAMILY else ("delay",)
            for scenario in scenarios:
                if args.workload == "task_queue" and scenario in (
                    "crash_holder",
                    "crash_root",
                    "churn",
                ):
                    continue
                combos.append((system, args.workload, scenario))
    else:
        combos = [(system, args.workload, args.scenario) for system in systems]
    return combos


def _unknown_name(kind: str, value: str, known: Sequence[str]) -> str | None:
    """Shared name validation for chaos and campaign flags.

    Returns the usage-error line (with the full valid-name list) for an
    unknown ``value``, or None when it is valid — so a typo in either
    command produces the same exit-2 diagnostic shape.
    """
    if value in known:
        return None
    return f"unknown {kind} {value!r}; known: {', '.join(known)}"


def _unknown_names(
    kind: str, requested: Sequence[str], known: Sequence[str]
) -> str | None:
    """Plural variant of :func:`_unknown_name` for comma-separated flags."""
    unknown = [name for name in requested if name not in known]
    if not unknown:
        return None
    return (
        f"unknown {kind}(s) {', '.join(unknown)}; known: "
        f"{', '.join(sorted(known))}"
    )


def _chaos_usage_errors(args: argparse.Namespace) -> list[str]:
    """Validate chaos flags; non-empty means a usage error (exit 2)."""
    from repro.faults.chaos import GWC_FAMILY, SCENARIOS

    errors: list[str] = []
    if not args.smoke:
        for line in (
            _unknown_name("scenario", args.scenario, SCENARIOS + ("mixed",)),
            _unknown_name("workload", args.workload, ("counter", "task_queue")),
            _unknown_names(
                "system",
                [name for name in args.systems.split(",") if name],
                system_names(),
            ),
        ):
            if line is not None:
                errors.append(line)
        requested = [name for name in args.systems.split(",") if name]
        if args.scenario != "mixed" and not errors:
            non_gwc = [s for s in requested if s not in GWC_FAMILY]
            if args.scenario != "delay" and non_gwc:
                errors.append(
                    f"scenario {args.scenario!r} needs the GWC-family "
                    f"recovery stack; {', '.join(non_gwc)} only support "
                    "'delay'"
                )
            if args.workload == "task_queue" and args.scenario in (
                "crash_holder",
                "crash_root",
                "churn",
            ):
                errors.append(
                    "crash scenarios are only meaningful on the counter "
                    "workload"
                )
    return errors


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import ChaosConfig, chaos_csv_row, run_chaos
    from repro.metrics.export import write_csv

    usage = _chaos_usage_errors(args)
    if usage:
        for error in usage:
            print(f"chaos: {error}", file=sys.stderr)
        return 2

    combos = _chaos_combos(args)
    seeds = range(args.seed, args.seed + (1 if args.smoke else args.seeds))
    results = []
    for system, workload, scenario in combos:
        for seed in seeds:
            config = ChaosConfig(
                system=system,
                workload=workload,
                scenario=scenario,
                n_nodes=args.nodes,
                ops_per_node=args.ops,
                seed=seed,
                recovery=not args.no_recovery,
                failover=not args.no_failover,
            )
            results.append(run_chaos(config))

    rows = []
    csv_rows = []
    for result in results:
        cfg = result.config
        if result.stall is not None:
            status = "STALL"
        elif result.invariant_errors:
            status = "FAIL"
        else:
            status = "ok"
        recovery_us = (
            f"{1e6 * sum(result.recovery_times) / len(result.recovery_times):.1f}"
            if result.recovery_times
            else "-"
        )
        summary = result.fault_summary
        rows.append(
            [
                cfg.system,
                cfg.workload,
                cfg.scenario,
                cfg.seed,
                status,
                f"{result.final_counter}/{result.chain_length}",
                result.lock_timeouts,
                result.lock_retries,
                summary["lock_reclaims"],
                summary["failovers"],
                recovery_us,
                result.messages,
                result.dropped,
            ]
        )
        csv_rows.append(chaos_csv_row(result))

    print(
        format_table(
            [
                "system",
                "workload",
                "scenario",
                "seed",
                "status",
                "done/chain",
                "timeouts",
                "retries",
                "reclaims",
                "failovers",
                "recovery us",
                "msgs",
                "dropped",
            ],
            rows,
            title="Chaos soak: seeded faults vs the recovery stack",
        )
    )
    failures = [r for r in results if not r.ok]
    for result in failures:
        cfg = result.config
        label = f"{cfg.system}/{cfg.workload}/{cfg.scenario}/seed{cfg.seed}"
        if result.stall is not None:
            print(f"STALL {label}: {result.stall}")
        for error in result.invariant_errors:
            print(f"FAIL  {label}: {error}")
    if args.csv:
        path = write_csv(args.csv, csv_rows)
        print(f"wrote {path}")
    print(
        f"chaos: {len(results) - len(failures)}/{len(results)} run(s) ok"
    )
    return 0 if not failures else 1


def _campaign_usage_errors(args: argparse.Namespace) -> list[str]:
    """Validate campaign flags; non-empty means a usage error (exit 2).

    Shares :func:`_unknown_name` with the chaos command so a typo'd
    profile/workload/system gets the same exit-2 valid-name diagnostic.
    """
    from repro.faults.campaign import PROFILES
    from repro.faults.chaos import GWC_FAMILY

    errors: list[str] = []
    if args.smoke:
        return errors
    requested = [name for name in args.systems.split(",") if name]
    for line in (
        _unknown_name("profile", args.profile, PROFILES + ("all",)),
        _unknown_name("workload", args.workload, ("counter", "task_queue")),
        _unknown_names("system", requested, system_names()),
    ):
        if line is not None:
            errors.append(line)
    if not errors:
        non_gwc = [name for name in requested if name not in GWC_FAMILY]
        if non_gwc:
            errors.append(
                f"campaign trials need the GWC-family recovery stack; "
                f"{', '.join(non_gwc)} not in: {', '.join(GWC_FAMILY)}"
            )
    if args.trials < 1:
        errors.append(f"--trials must be >= 1 (got {args.trials})")
    if args.nodes < 3:
        errors.append(f"--nodes must be >= 3 (got {args.nodes})")
    return errors


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run a randomized fault campaign with online oracles.

    Exit codes: 0 = every trial clean, 1 = at least one trial failed
    (each failure minimized + bundled when enabled), 2 = usage error.
    """
    from repro.faults.campaign import (
        CampaignConfig,
        run_campaign,
        smoke_config,
    )
    from repro.metrics.export import write_csv

    usage = _campaign_usage_errors(args)
    if usage:
        for error in usage:
            print(f"campaign: {error}", file=sys.stderr)
        return 2

    if args.smoke:
        config = smoke_config()
    else:
        config = CampaignConfig(
            trials=args.trials,
            seed=args.seed,
            profile=args.profile,
            systems=tuple(name for name in args.systems.split(",") if name),
            workload=args.workload,
            n_nodes=args.nodes,
            ops_per_node=args.ops,
            minimize=not args.no_minimize,
            bundle_dir=args.bundle_dir or None,
        )
    campaign = run_campaign(config, out=print)

    rows = []
    for outcome in campaign.outcomes:
        trial = outcome.trial
        detail = outcome.detail
        rows.append(
            [
                trial.index,
                trial.profile,
                trial.system,
                trial.topology,
                "ok" if outcome.ok else "FAIL",
                "/".join(outcome.signature) if outcome.signature else "-",
                (
                    f"{len(trial.config.plan.events)}"
                    + (
                        f"->{len(outcome.minimized.plan.events)}"
                        if outcome.minimized is not None
                        else ""
                    )
                    if trial.config.plan is not None
                    else "-"
                ),
                detail[:60] if detail else "-",
            ]
        )
    print(
        format_table(
            [
                "trial",
                "profile",
                "system",
                "topology",
                "status",
                "signature",
                "events",
                "detail",
            ],
            rows,
            title="Chaos campaign: seeded random fault plans vs online oracles",
        )
    )
    failures = campaign.failures()
    for outcome in failures:
        label = (
            f"trial {outcome.trial.index} "
            f"({outcome.trial.profile}/{outcome.trial.system}/"
            f"{outcome.trial.topology})"
        )
        print(f"FAIL {label}: {'/'.join(outcome.signature or ())}")
        if outcome.minimized is not None:
            print(
                f"     minimized {outcome.minimized.original_events} -> "
                f"{len(outcome.minimized.plan.events)} event(s) at "
                f"n_nodes={outcome.minimized.n_nodes} "
                f"({outcome.minimized.probes} probe(s))"
            )
        if outcome.bundle_path is not None:
            print(f"     repro bundle: {outcome.bundle_path}")
    if args.csv:
        path = write_csv(args.csv, campaign.rows())
        print(f"wrote {path}")
    total = len(campaign.outcomes)
    print(f"campaign: {total - len(failures)}/{total} trial(s) ok")
    return 0 if not failures else 1


def _cmd_burst(args: argparse.Namespace) -> int:
    from repro.experiments.burst import DEFAULT_SIZES, render, run_burst_sweep
    from repro.metrics.export import write_csv

    sizes = _parse_sizes(args.sizes) if args.sizes else DEFAULT_SIZES
    rows = run_burst_sweep(
        sizes=sizes,
        n_nodes=args.nodes,
        rounds=args.rounds,
        writes_per_round=args.writes,
    )
    print(render(rows))
    print()
    print(
        "every burst size converged to the identical final shared-memory "
        "image (checked in-sweep)"
    )
    if args.csv:
        path = write_csv(args.csv, rows)
        print(f"wrote {path}")
    # Monotone sanity: growing the burst never adds origin->root traffic.
    ordered = sorted(rows, key=lambda r: float("inf") if r.burst == 0 else r.burst)
    monotone = all(
        earlier.origin_messages >= later.origin_messages
        for earlier, later in zip(ordered, ordered[1:])
    )
    return 0 if monotone else 1


def _cmd_systems(args: argparse.Namespace) -> int:
    for name in system_names():
        print(name)
    return 0


def _goldens_only(args: argparse.Namespace) -> tuple[str, ...] | None:
    return tuple(part for part in args.only.split(",") if part) or None


def _cmd_verify_goldens(args: argparse.Namespace) -> int:
    """Drift gate: regenerate every surface, compare to committed goldens.

    Exit codes: 0 clean, 1 drift (with a per-file / per-field report),
    2 usage (unknown surface).
    """
    from repro.goldens.verify import verify_goldens

    return verify_goldens(
        goldens_dir=args.dir or None, only=_goldens_only(args)
    )


def _cmd_update_goldens(args: argparse.Namespace) -> int:
    """Rewrite the committed goldens (REPRO_REGEN_GOLDENS=1 required)."""
    from repro.goldens.verify import update_goldens

    return update_goldens(
        goldens_dir=args.dir or None, only=_goldens_only(args)
    )


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every digest section and print the pass/fail summary."""
    failures = digest.run_sections(digest.SECTIONS, full=args.full, jobs=args.jobs)
    print()
    if failures:
        print(f"REPRODUCTION DIGEST: {failures} expectation(s) FAILED")
        return 1
    print("REPRODUCTION DIGEST: every paper expectation held")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Optimistic Synchronization in Distributed Shared "
            "Memory' (Hermannsson & Wittie, ICDCS 1994)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("figure1", help="3-CPU locking comparison")
    p1.add_argument("--update-us", type=float, default=4.0)
    p1.add_argument("--delay-us", type=float, default=10.0)
    p1.set_defaults(fn=_cmd_figure1)

    p2 = sub.add_parser("figure2", help="task-management speedup sweep")
    p2.add_argument("--full", action="store_true", help="paper scale")
    p2.add_argument("--sizes", type=str, default="")
    p2.add_argument("--tasks", type=int, default=0)
    p2.add_argument("--chart", action="store_true", help="draw an ASCII chart")
    _add_jobs(p2)
    p2.set_defaults(fn=_cmd_figure2)

    p8 = sub.add_parser("figure8", help="mutex methods on the pipeline")
    p8.add_argument("--full", action="store_true", help="paper scale")
    p8.add_argument("--sizes", type=str, default="")
    p8.add_argument("--data", type=int, default=0)
    p8.add_argument("--chart", action="store_true", help="draw an ASCII chart")
    _add_jobs(p8)
    p8.set_defaults(fn=_cmd_figure8)

    p7 = sub.add_parser("figure7", help="rollback interaction scenario")
    p7.set_defaults(fn=_cmd_figure7)

    prs = sub.add_parser(
        "rootshard",
        help="sharded group roots: serial parity + per-root load sweep",
    )
    prs.add_argument("--full", action="store_true", help="sweep up to 1024 CPUs")
    prs.add_argument("--sizes", type=str, default="")
    prs.add_argument(
        "--roots", type=int, default=4, metavar="K",
        help="root partitions per group (default 4)",
    )
    prs.add_argument(
        "--fanout", type=int, default=8, metavar="F",
        help="relay-tree fanout for hierarchical multicast; 0 = direct",
    )
    prs.add_argument("--seed", type=int, default=0)
    prs.add_argument(
        "--no-rebalance", action="store_true",
        help="skip the online re-partition of the injected hot key",
    )
    _add_jobs(prs)
    prs.set_defaults(fn=_cmd_rootshard)

    prsm = sub.add_parser(
        "sharded-root-smoke",
        help="sharded-root parity smoke: every root layout must match serial",
    )
    prsm.set_defaults(fn=_cmd_sharded_root_smoke)

    pa = sub.add_parser("ablations", help="threshold / filter / protocol ablations")
    _add_jobs(pa)
    pa.set_defaults(fn=_cmd_ablations)

    pg = sub.add_parser(
        "grouping", help="per-group roots vs one global root (section 1.2)"
    )
    pg.add_argument("--sizes", type=str, default="")
    pg.set_defaults(fn=_cmd_grouping)

    ps = sub.add_parser("systems", help="list consistency systems")
    ps.set_defaults(fn=_cmd_systems)

    for name, fn, help_text in (
        (
            "verify-goldens",
            _cmd_verify_goldens,
            "drift gate: regenerate artifacts, diff vs committed goldens "
            "(0 clean, 1 drift, 2 usage)",
        ),
        (
            "update-goldens",
            _cmd_update_goldens,
            "rewrite committed goldens (requires REPRO_REGEN_GOLDENS=1)",
        ),
    ):
        pg2 = sub.add_parser(name, help=help_text)
        pg2.add_argument(
            "--only",
            type=str,
            default="",
            metavar="A,B",
            help="comma-separated surface names (default: all)",
        )
        pg2.add_argument(
            "--dir",
            type=str,
            default="",
            metavar="DIR",
            help="goldens tree (default: <repo>/goldens)",
        )
        pg2.set_defaults(fn=fn)

    pb = sub.add_parser(
        "burst", help="write-burst sensitivity: wire messages vs burst size"
    )
    pb.add_argument(
        "--sizes",
        type=str,
        default="",
        help="comma-separated burst sizes, 0 = unbounded (default 1,2,4,8,0)",
    )
    pb.add_argument("--nodes", type=int, default=8)
    pb.add_argument("--rounds", type=int, default=8, help="sync rounds per node")
    pb.add_argument(
        "--writes", type=int, default=16, help="plain writes per node per round"
    )
    pb.add_argument("--csv", type=str, default="", metavar="FILE")
    pb.set_defaults(fn=_cmd_burst)

    pc = sub.add_parser(
        "chaos", help="seeded fault injection against the recovery stack"
    )
    pc.add_argument(
        "--scenario",
        type=str,
        default="mixed",
        help="crash_holder|crash_root|churn|partition|delay|duplicate|mixed"
        " (default)",
    )
    pc.add_argument(
        "--systems",
        type=str,
        default="gwc,gwc_optimistic",
        metavar="A,B",
        help="comma-separated consistency systems (default: GWC family)",
    )
    pc.add_argument(
        "--workload", type=str, default="counter", help="counter|task_queue"
    )
    pc.add_argument("--nodes", type=int, default=6)
    pc.add_argument("--ops", type=int, default=8, help="operations per node")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument(
        "--seeds", type=int, default=1, metavar="N", help="run N seeds from --seed"
    )
    pc.add_argument(
        "--no-recovery",
        action="store_true",
        help="disarm leases/retries (crash scenarios then end in a STALL)",
    )
    pc.add_argument(
        "--no-failover",
        action="store_true",
        help="disarm root re-election (crash_root then ends in a STALL)",
    )
    pc.add_argument(
        "--smoke",
        action="store_true",
        help="fixed deterministic mini-matrix (used by `make chaos-smoke`)",
    )
    pc.add_argument("--csv", type=str, default="", metavar="FILE")
    pc.set_defaults(fn=_cmd_chaos)

    pca = sub.add_parser(
        "campaign",
        help="randomized fault campaign: generated plans, online oracles, "
        "failing-seed minimization",
    )
    pca.add_argument(
        "--trials", type=int, default=25, help="chaos trials to run"
    )
    pca.add_argument("--seed", type=int, default=7)
    pca.add_argument(
        "--profile",
        type=str,
        default="mixed",
        help="churn|splitbrain|rootstorm|wire|mixed|all (default: mixed)",
    )
    pca.add_argument(
        "--systems",
        type=str,
        default="gwc,gwc_optimistic",
        metavar="A,B",
        help="comma-separated GWC-family systems (campaigns need the "
        "recovery stack)",
    )
    pca.add_argument(
        "--workload", type=str, default="counter", help="counter|task_queue"
    )
    pca.add_argument("--nodes", type=int, default=6)
    pca.add_argument("--ops", type=int, default=6, help="operations per node")
    pca.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip delta-debugging failing plans",
    )
    pca.add_argument(
        "--bundle-dir",
        type=str,
        default="",
        metavar="DIR",
        help="write a repro bundle per failing trial under DIR",
    )
    pca.add_argument(
        "--smoke",
        action="store_true",
        help="fixed bounded campaign (used by `make campaign-smoke` and "
        "the campaign golden surface)",
    )
    pca.add_argument("--csv", type=str, default="", metavar="FILE")
    pca.set_defaults(fn=_cmd_campaign)

    pr = sub.add_parser(
        "reproduce", help="regenerate every paper artefact and print a digest"
    )
    pr.add_argument("--full", action="store_true", help="paper scale")
    _add_jobs(pr)
    pr.set_defaults(fn=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
