"""Parameter-sensitivity sweeps for the optimistic-locking advantage.

The paper's conclusion: "For very large systems, the disparity between
group write consistency and the other models will be significantly
larger, since network delays will be much longer than local update
times", and §4: "In huge networks, safe preposting of shared changes is
usually the major source of benefit from optimistic locking."

These sweeps quantify both statements on the Figure 8 pipeline: hold
the workload fixed, scale one network cost, and watch the optimistic
protocol's absolute saving grow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.common import PaperExpectation
from repro.experiments.runner import SweepExecutor
from repro.metrics.report import format_table
from repro.params import PAPER_PARAMS, MachineParams
from repro.workloads.pipeline import PipelineConfig, run_pipeline


@dataclass(frozen=True, slots=True)
class SensitivityRow:
    """One network-cost setting's outcome."""

    parameter: str
    value: float
    optimistic_power: float
    gwc_power: float
    entry_power: float

    @property
    def optimistic_gain(self) -> float:
        return self.optimistic_power / self.gwc_power


def run_hop_latency_sweep(
    hops: tuple[float, ...] = (100e-9, 200e-9, 400e-9, 800e-9),
    n_nodes: int = 16,
    data_size: int = 128,
    base: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[SensitivityRow]:
    """Scale the per-hop switching latency (the paper's 200 ns)."""
    points = [
        ("hop_latency_ns", hop * 1e9, n_nodes, data_size,
         replace(base, hop_latency=hop))
        for hop in hops
    ]
    return SweepExecutor(jobs).map(_measure_point, points)


def run_bandwidth_sweep(
    gbits: tuple[float, ...] = (4.0, 1.0, 0.25),
    n_nodes: int = 16,
    data_size: int = 128,
    base: MachineParams = PAPER_PARAMS,
    jobs: int | None = None,
) -> list[SensitivityRow]:
    """Scale the link bandwidth (the paper's 1 Gb/s) downward."""
    points = [
        ("link_gbit", gbit, n_nodes, data_size,
         replace(base, link_bandwidth_bits=gbit * 1e9))
        for gbit in gbits
    ]
    return SweepExecutor(jobs).map(_measure_point, points)


def _measure_point(
    point: tuple[str, float, int, int, MachineParams],
) -> SensitivityRow:
    """One network-cost setting (module-level: picklable)."""
    return _measure(*point)


def _measure(
    parameter: str,
    value: float,
    n_nodes: int,
    data_size: int,
    params: MachineParams,
) -> SensitivityRow:
    base = dict(n_nodes=n_nodes, data_size=data_size, params=params)
    optimistic = run_pipeline(PipelineConfig(system="gwc_optimistic", **base))
    gwc = run_pipeline(PipelineConfig(system="gwc", **base))
    entry = run_pipeline(PipelineConfig(system="entry", **base))
    for result in (optimistic, gwc, entry):
        assert result.extra["acc_correct"]
    return SensitivityRow(
        parameter=parameter,
        value=value,
        optimistic_power=optimistic.speedup,
        gwc_power=gwc.speedup,
        entry_power=entry.speedup,
    )


def render(rows: list[SensitivityRow]) -> str:
    return format_table(
        [rows[0].parameter if rows else "value", "optimistic", "non-opt GWC",
         "entry", "opt/non-opt"],
        [
            [row.value, row.optimistic_power, row.gwc_power, row.entry_power,
             row.optimistic_gain]
            for row in rows
        ],
        title="Sensitivity: network power vs. network cost (Fig. 8 pipeline)",
    )


def expectations(rows: list[SensitivityRow]) -> list[PaperExpectation]:
    """The optimistic advantage under the swept network cost."""
    checks = [
        PaperExpectation(
            "optimistic beats non-optimistic GWC at every setting",
            all(row.optimistic_power > row.gwc_power for row in rows),
        )
    ]
    if rows[0].parameter == "hop_latency_ns":
        # The gain grows while the lock round trip still fits under the
        # mutex section, then saturates: speculation hides at most the
        # section's own length (the paper sizes M so the round trip "can
        # initially be overlapped").
        gains = [row.optimistic_gain for row in rows]
        checks += [
            PaperExpectation(
                "the optimistic gain grows from the first hop latency to "
                f"the second ({gains[0]:.3f} -> {gains[1]:.3f})",
                gains[1] > gains[0],
            ),
            PaperExpectation(
                "optimistic > non-optimistic GWC > entry at every hop latency",
                all(
                    row.optimistic_power > row.gwc_power > row.entry_power
                    for row in rows
                ),
            ),
        ]
    else:
        powers = [row.optimistic_power for row in rows]
        checks.append(
            PaperExpectation(
                "scarcer bandwidth never raises optimistic power",
                powers == sorted(powers, reverse=True),
            )
        )
    return checks
