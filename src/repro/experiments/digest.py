"""The paper-claims digest behind ``repro reproduce [--full]``.

Each :class:`Section` is one experiment: how to run it at quick or full
scale, how to print its rows, and the ``expectations`` that check the
paper's claims against those rows.  ``repro reproduce`` runs every
section and ``repro ablations`` the ablation sections; every failed
expectation counts toward the exit code.  This is the one gate for
paper claims: goldens pin the artifacts, ``perfbench/`` measures time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments import (
    ablation,
    analytic,
    figure1,
    figure2,
    figure8,
    grouping,
    replication,
    sensitivity,
)
from repro.experiments.common import PaperExpectation, figure2_scale, figure8_scale
from repro.metrics.report import format_table
from repro.workloads import scenarios

BANNER = "=" * 68


@dataclass(frozen=True, slots=True)
class Section:
    """One experiment of the digest."""

    title: str
    #: ``run(full, jobs)`` returns the rows; only Figures 2 and 8 have a
    #: full scale, and only parallel sweeps use ``jobs``.
    run: Callable[[bool, int | None], Any]
    render: Callable[[Any], str]
    expectations: Callable[[Any], list[PaperExpectation]]


def report(text: str, checks: list[PaperExpectation]) -> int:
    """Print a table and its checklist; returns the failed-check count."""
    print(text)
    print()
    for check in checks:
        print(check)
    return sum(not check.holds for check in checks)


def run_sections(
    sections: tuple[Section, ...], full: bool = False, jobs: int | None = None
) -> int:
    """Run, print and check each section; returns the failed-check count."""
    failures = 0
    for index, section in enumerate(sections):
        if index:
            print()
        print(BANNER)
        print(section.title)
        print(BANNER)
        rows = section.run(full, jobs)
        failures += report(section.render(rows), section.expectations(rows))
    return failures


def _render_figure7(extra: dict[str, Any]) -> str:
    return format_table(
        ["event", "value"],
        [
            ["requester rolled back", extra["requester_rolled_back"]],
            ["stale echoes dropped (Fig. 6)", extra["echoes_dropped"]],
            ["speculative root discards", extra["root_discards"]],
            ["all nodes converged", extra["converged"]],
        ],
        title="Figure 7: the most complex rollback interaction",
    )


def _figure7_expectations(extra: dict[str, Any]) -> list[PaperExpectation]:
    return [
        PaperExpectation(
            "the requester rolls back its optimistic section",
            bool(extra["requester_rolled_back"]),
        ),
        PaperExpectation(
            "every node converges to the same shared values",
            bool(extra["converged"]),
        ),
    ]


FIGURE7 = Section(
    "FIGURE 7 — rollback interaction",
    lambda full, jobs: scenarios.run_figure7(scenarios.Figure7Config()).extra,
    _render_figure7,
    _figure7_expectations,
)

ABLATION_SECTIONS: tuple[Section, ...] = (
    Section(
        "ABLATION A1 — optimism threshold",
        lambda full, jobs: ablation.run_threshold_sweep(
            think_times=(15e-6, 50e-6), jobs=jobs
        ),
        ablation.render_threshold,
        ablation.threshold_expectations,
    ),
    Section(
        "ABLATION A2 — echo blocking (Figure 6 filter)",
        lambda full, jobs: ablation.run_echo_blocking_ablation(),
        ablation.render_echo_blocking,
        ablation.echo_blocking_expectations,
    ),
    Section(
        "ABLATION A3a — consistency systems on the counter kernel",
        lambda full, jobs: ablation.run_lock_protocol_shootout(jobs=jobs),
        ablation.render_shootout,
        ablation.shootout_expectations,
    ),
    Section(
        "ABLATION A3b — lock primitives",
        lambda full, jobs: ablation.run_lock_primitive_shootout(jobs=jobs),
        ablation.render_shootout,
        ablation.shootout_expectations,
    ),
    Section(
        "ABLATION A5 — forced optimism modes",
        lambda full, jobs: ablation.run_force_modes(),
        ablation.render_force_modes,
        ablation.force_mode_expectations,
    ),
)

SECTIONS: tuple[Section, ...] = (
    Section(
        "FIGURE 1 — locking comparison (3 CPUs)",
        lambda full, jobs: figure1.run_figure1(),
        figure1.render,
        figure1.expectations,
    ),
    Section(
        "FIGURE 1 — longer sections (12 us updates, CPU2 25 us late)",
        lambda full, jobs: figure1.run_figure1(12e-6, 25e-6),
        figure1.render,
        figure1.expectations,
    ),
    Section(
        "FIGURE 2 — task-management speedup",
        lambda full, jobs: figure2.run_figure2(*figure2_scale(full), jobs=jobs),
        lambda rows: f"{figure2.render(rows)}\n\n{figure2.chart(rows)}",
        figure2.expectations,
    ),
    Section(
        "FIGURE 8 — mutex methods on the pipeline",
        lambda full, jobs: figure8.run_figure8(*figure8_scale(full), jobs=jobs),
        lambda rows: f"{figure8.render(rows)}\n\n{figure8.chart(rows)}",
        figure8.expectations,
    ),
    FIGURE7,
    *ABLATION_SECTIONS,
    Section(
        "GROUPING — per-group roots vs one global root (section 1.2)",
        lambda full, jobs: grouping.run_grouping_sweep(),
        grouping.render,
        grouping.expectations,
    ),
    Section(
        "SENSITIVITY — per-hop latency",
        lambda full, jobs: sensitivity.run_hop_latency_sweep(jobs=jobs),
        sensitivity.render,
        sensitivity.expectations,
    ),
    Section(
        "SENSITIVITY — link bandwidth",
        lambda full, jobs: sensitivity.run_bandwidth_sweep(jobs=jobs),
        sensitivity.render,
        sensitivity.expectations,
    ),
    Section(
        "ANALYTIC MODEL — closed form vs simulation (Figure 8 pipeline)",
        lambda full, jobs: analytic.run_analytic_validation(),
        analytic.render,
        analytic.expectations,
    ),
    Section(
        "REPLICATION — synthetic contention over 8 seeds",
        lambda full, jobs: replication.run_replicated_synthetic(),
        replication.render,
        replication.expectations,
    ),
)
