"""Multi-seed replication and summary statistics.

The simulator is deterministic per seed; workloads with randomized
timing (the synthetic contention generator, lossy-network runs) are
replicated across seeds and summarized as mean, standard deviation, and
a Student-t 95% confidence interval.  Deterministic workloads replicate
to identical values — the CI collapses to a point, which doubles as a
regression check on determinism.

:func:`run_replicated_synthetic` is the reported example: optimistic
locking on the synthetic contention generator across eight seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ExperimentError
from repro.experiments.common import PaperExpectation
from repro.metrics.report import format_table
from repro.workloads.synthetic import SyntheticConfig, run_synthetic


@dataclass(frozen=True, slots=True)
class ReplicatedMetric:
    """Summary of one metric across replicated runs."""

    name: str
    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    values: tuple[float, ...]

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.6g} +/- {self.ci_half_width:.3g} "
            f"(95% CI, n={self.n})"
        )


def _t_critical(dof: int) -> float:
    """Two-sided 95% Student-t critical value."""
    try:
        from scipy import stats

        return float(stats.t.ppf(0.975, dof))
    except ImportError:  # pragma: no cover - scipy is available in CI
        # Conservative fallback table for small dof, else normal approx.
        table = {1: 12.71, 2: 4.30, 3: 3.18, 4: 2.78, 5: 2.57, 6: 2.45,
                 7: 2.36, 8: 2.31, 9: 2.26, 10: 2.23}
        return table.get(dof, 1.96)


def summarize(name: str, values: Iterable[float]) -> ReplicatedMetric:
    """Mean / std / 95% CI of a sample of replicated measurements."""
    data = tuple(float(v) for v in values)
    if not data:
        raise ExperimentError(f"metric {name!r}: no replications")
    n = len(data)
    mean = sum(data) / n
    if n == 1:
        return ReplicatedMetric(
            name=name, n=1, mean=mean, std=0.0, ci_low=mean, ci_high=mean,
            values=data,
        )
    var = sum((v - mean) ** 2 for v in data) / (n - 1)
    std = math.sqrt(var)
    half = _t_critical(n - 1) * std / math.sqrt(n)
    return ReplicatedMetric(
        name=name,
        n=n,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        values=data,
    )


def replicate(
    run: Callable[[int], float],
    seeds: Iterable[int] = range(5),
    name: str = "metric",
) -> ReplicatedMetric:
    """Run ``run(seed)`` for each seed and summarize the results."""
    return summarize(name, (run(seed) for seed in seeds))


def replicate_many(
    run: Callable[[int], dict[str, float]],
    seeds: Iterable[int] = range(5),
) -> dict[str, ReplicatedMetric]:
    """Replicate a run that reports several metrics at once."""
    collected: dict[str, list[float]] = {}
    for seed in seeds:
        for key, value in run(seed).items():
            collected.setdefault(key, []).append(value)
    return {key: summarize(key, values) for key, values in collected.items()}


def _synthetic_seed(seed: int) -> dict[str, float]:
    result = run_synthetic(
        SyntheticConfig(
            system="gwc_optimistic", n_nodes=6, sections_per_node=10, seed=seed
        )
    )
    if not result.extra["correct"]:
        raise ExperimentError(f"synthetic seed {seed}: lost updates")
    return {
        "elapsed_us": result.elapsed * 1e6,
        "rollbacks": float(result.counter("opt.rollbacks")),
        "optimistic_successes": float(result.counter("opt.successes")),
        "wasted_us": result.metrics.total_wasted() * 1e6,
    }


def run_replicated_synthetic(
    seeds: Iterable[int] = range(8),
) -> list[ReplicatedMetric]:
    """Synthetic contention under optimistic locking, one row per metric."""
    return list(replicate_many(_synthetic_seed, seeds=seeds).values())


def render(rows: list[ReplicatedMetric]) -> str:
    return format_table(
        ["metric", "mean", "std", "95% CI low", "95% CI high", "n"],
        [[m.name, m.mean, m.std, m.ci_low, m.ci_high, m.n] for m in rows],
        title="Synthetic contention under optimistic locking (seed-replicated)",
    )


def expectations(rows: list[ReplicatedMetric]) -> list[PaperExpectation]:
    """The replicated synthetic run is random and its CI is meaningful."""
    by_name = {m.name: m for m in rows}
    return [
        PaperExpectation(
            "elapsed time varies across seeds (the workload is randomized)",
            by_name["elapsed_us"].std > 0,
        ),
        PaperExpectation(
            "the optimistic-success count's 95% CI starts at or above 0",
            by_name["optimistic_successes"].ci_low >= 0,
        ),
    ]
