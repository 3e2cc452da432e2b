"""Every paper-claim bound in the experiment modules can fail.

Hand-built rows sit just past each bound; the matching expectation
must report ``holds is False``.  Rows on the passing side show the
same bound holding, so each test pins one bound from both sides.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments import (
    ablation,
    analytic,
    figure2,
    figure8,
    grouping,
    replication,
    sensitivity,
)
from repro.experiments.ablation import ForceModeRow, ShootoutRow, ThresholdRow
from repro.experiments.analytic import AnalyticRow
from repro.experiments.figure2 import Figure2Row
from repro.experiments.figure8 import Figure8Row
from repro.experiments.grouping import GroupingRow
from repro.experiments.replication import ReplicatedMetric
from repro.experiments.sensitivity import SensitivityRow


def holds(checks, text: str) -> bool:
    """The verdict of the one check whose claim contains ``text``."""
    matching = [check for check in checks if text in check.claim]
    assert len(matching) == 1, [check.claim for check in checks]
    return matching[0].holds


class TestFigure2FullScale:
    SIZES = (3, 5, 9, 17, 33, 65, 129)

    def rows(self, gwc_peak: float, entry_peak: float) -> list[Figure2Row]:
        # Entry peaks at 33 and then collapses; GWC peaks at 129.
        rows = []
        for n in self.SIZES:
            entry = entry_peak if n == 33 else min(n - 1, entry_peak) * 0.9
            gwc = gwc_peak if n == 129 else min(n - 1.0, gwc_peak * 0.9)
            gwc = max(gwc, entry + 1)
            rows.append(Figure2Row(n, max_speedup=n, gwc=gwc, entry=entry))
        return rows

    def test_paper_like_sweep_holds(self):
        checks = figure2.expectations(self.rows(gwc_peak=84.1, entry_peak=22.5))
        assert all(check.holds for check in checks)
        assert len(checks) == 8

    def test_peak_ratio_must_exceed_two(self):
        checks = figure2.expectations(self.rows(gwc_peak=50.0, entry_peak=25.0))
        assert holds(checks, "more than 2x") is False

    @pytest.mark.parametrize("entry_peak", [15.0, 35.0])
    def test_entry_peak_band(self, entry_peak):
        checks = figure2.expectations(self.rows(gwc_peak=84.1, entry_peak=entry_peak))
        assert holds(checks, "between 15 and 35") is False

    def test_gwc_peak_must_exceed_45(self):
        checks = figure2.expectations(self.rows(gwc_peak=45.0, entry_peak=16.0))
        assert holds(checks, "GWC peaks above 45") is False

    def test_checks_need_the_129_cpu_sweep(self):
        rows = [row for row in self.rows(84.1, 22.5) if row.n_nodes <= 65]
        assert len(figure2.expectations(rows)) == 5


class TestFigure8FullScale:
    SIZES = (2, 4, 8, 16, 32, 64, 128)

    def rows(self, optimistic: float, gwc: float, entry: float) -> list[Figure8Row]:
        return [
            Figure8Row(
                n,
                max_power=1.89,
                optimistic=optimistic - 0.08 * i,
                gwc=gwc - 0.08 * i,
                entry=entry - 0.02 * i,
                rollbacks=0,
            )
            for i, n in enumerate(self.SIZES)
        ]

    def test_paper_like_sweep_holds(self):
        checks = figure8.expectations(self.rows(1.68, 1.53, 0.81))
        assert all(check.holds for check in checks)
        assert len(checks) == 9

    @pytest.mark.parametrize("optimistic", [1.5, 1.8])
    def test_optimistic_band(self, optimistic):
        checks = figure8.expectations(self.rows(optimistic, 1.45, 0.7))
        assert holds(checks, "optimistic power at 2 CPUs") is False

    @pytest.mark.parametrize("gwc", [1.4, 1.7])
    def test_gwc_band(self, gwc):
        checks = figure8.expectations(self.rows(1.75, gwc, 0.7))
        assert holds(checks, "non-optimistic GWC power at 2 CPUs") is False

    def test_entry_below_one(self):
        checks = figure8.expectations(self.rows(1.68, 1.53, 1.0))
        assert holds(checks, "entry consistency power at 2 CPUs") is False

    def test_checks_need_the_2_to_128_sweep(self):
        rows = self.rows(1.68, 1.53, 0.81)
        assert len(figure8.expectations(rows[1:])) == 6
        assert len(figure8.expectations(rows[:-1])) == 6


class TestAblations:
    @staticmethod
    def threshold_rows(ratio: float) -> list[ThresholdRow]:
        return [
            ThresholdRow(threshold, 50e-6, elapsed, 0, 0, 0, 0, 0.0)
            for threshold, elapsed in ((0.0, 100e-6), (0.3, 100e-6 * ratio))
        ]

    def test_threshold_bound(self):
        for ratio, verdict in ((1.02, True), (1.03, False)):
            checks = ablation.threshold_expectations(self.threshold_rows(ratio))
            assert holds(checks, "0.3") is verdict

    @staticmethod
    def echo_pair(with_ok: bool, without_ok: bool):
        return (
            SimpleNamespace(extra={"correct": with_ok}),
            SimpleNamespace(extra={"correct": without_ok}),
        )

    def test_echo_blocking(self):
        checks = ablation.echo_blocking_expectations(self.echo_pair(True, False))
        assert all(c.holds for c in checks)
        checks = ablation.echo_blocking_expectations(self.echo_pair(False, False))
        assert holds(checks, "with echo blocking") is False
        checks = ablation.echo_blocking_expectations(self.echo_pair(True, True))
        assert holds(checks, "without echo blocking") is False

    @staticmethod
    def primitive_rows(**overrides) -> list[ShootoutRow]:
        rows = {
            "gwc_queue": ShootoutRow("gwc_queue", 10e-6, True, 0),
            "tas": ShootoutRow("tas", 20e-6, True, 40),
            "ttas": ShootoutRow("ttas", 18e-6, True, 30),
        }
        rows.update(overrides)
        return list(rows.values())

    def test_shootout_all_correct(self):
        rows = self.primitive_rows(ttas=ShootoutRow("ttas", 18e-6, False, 30))
        assert holds(ablation.shootout_expectations(rows), "counter correct") is False
        systems = [
            ShootoutRow("gwc", 1e-6, True, 0),
            ShootoutRow("entry", 2e-6, False, 0),
        ]
        checks = ablation.shootout_expectations(systems)
        assert len(checks) == 1 and checks[0].holds is False

    def test_gwc_queue_no_slower_than_tas(self):
        checks = ablation.shootout_expectations(self.primitive_rows())
        assert all(c.holds for c in checks)
        rows = self.primitive_rows(gwc_queue=ShootoutRow("gwc_queue", 21e-6, True, 0))
        assert holds(ablation.shootout_expectations(rows), "no slower than") is False

    def test_ttas_fewer_remote_attempts(self):
        rows = self.primitive_rows(ttas=ShootoutRow("ttas", 18e-6, True, 40))
        checks = ablation.shootout_expectations(rows)
        assert holds(checks, "fewer remote attempts") is False

    @staticmethod
    def force_rows(adaptive: float) -> list[ForceModeRow]:
        return [
            ForceModeRow("adaptive", adaptive, 0, 0),
            ForceModeRow("optimistic", 120e-6, 5, 1),
            ForceModeRow("regular", 100e-6, 0, 0),
        ]

    def test_adaptive_within_125_percent(self):
        for adaptive, verdict in ((125e-6, True), (126e-6, False)):
            checks = ablation.force_mode_expectations(self.force_rows(adaptive))
            assert checks[0].holds is verdict


class TestGrouping:
    def test_slowdown_must_exceed_one_and_a_half(self):
        rows = [GroupingRow(8, 10.0, 20.0), GroupingRow(16, 10.0, 15.0)]
        assert holds(grouping.expectations(rows), "1.5x slower") is False

    def test_merged_elapsed_grows_with_size(self):
        rows = [GroupingRow(8, 10.0, 30.0), GroupingRow(16, 10.0, 30.0)]
        assert holds(grouping.expectations(rows), "grows") is False

    def test_single_size_has_no_growth_claim(self):
        checks = grouping.expectations([GroupingRow(8, 10.0, 20.0)])
        assert len(checks) == 1 and checks[0].holds is True


class TestAnalytic:
    def test_error_below_three_percent(self):
        ok = AnalyticRow(8, 1.5, 1.5, 1.6, 1.6)
        assert all(c.holds for c in analytic.expectations([ok]))
        off = AnalyticRow(8, 1.5, 1.5, 1.6 * 1.03, 1.6)
        assert holds(analytic.expectations([ok, off]), "within 3%") is False

    def test_predicted_optimistic_above_gwc(self):
        rows = [AnalyticRow(8, 1.6, 1.6, 1.6, 1.6)]
        assert holds(analytic.expectations(rows), "predicts more power") is False


class TestSensitivity:
    @staticmethod
    def hop_rows(powers) -> list[SensitivityRow]:
        return [
            SensitivityRow("hop_latency_ns", 100.0 * (i + 1), opt, gwc, entry)
            for i, (opt, gwc, entry) in enumerate(powers)
        ]

    def test_gain_grows_at_first_step(self):
        good = self.hop_rows([(1.6, 1.5, 0.8), (1.6, 1.4, 0.7)])
        assert all(c.holds for c in sensitivity.expectations(good))
        flat = self.hop_rows([(1.6, 1.5, 0.8), (1.6, 1.5, 0.7)])
        assert holds(sensitivity.expectations(flat), "gain grows") is False

    def test_ordering_at_every_hop_latency(self):
        rows = self.hop_rows([(1.6, 1.5, 0.8), (1.6, 1.4, 1.4)])
        assert holds(sensitivity.expectations(rows), "> entry") is False
        rows = self.hop_rows([(1.6, 1.5, 0.8), (1.4, 1.4, 0.7)])
        assert holds(sensitivity.expectations(rows), "at every setting") is False

    def test_bandwidth_power_never_rises(self):
        rows = [
            SensitivityRow("link_gbit", gbit, opt, opt - 0.1, 0.5)
            for gbit, opt in ((4.0, 1.6), (1.0, 1.5), (0.25, 1.55))
        ]
        assert holds(sensitivity.expectations(rows), "scarcer bandwidth") is False


class TestReplication:
    @staticmethod
    def metrics(elapsed_std: float, successes_ci_low: float) -> list[ReplicatedMetric]:
        return [
            ReplicatedMetric("elapsed_us", 8, 120.0, elapsed_std, 110.0, 130.0, ()),
            ReplicatedMetric(
                "optimistic_successes", 8, 3.0, 1.5, successes_ci_low, 4.6, ()
            ),
        ]

    def test_elapsed_varies_across_seeds(self):
        assert all(c.holds for c in replication.expectations(self.metrics(11.9, 0.0)))
        checks = replication.expectations(self.metrics(0.0, 2.1))
        assert holds(checks, "varies") is False

    def test_successes_ci_low_non_negative(self):
        checks = replication.expectations(self.metrics(11.9, -0.1))
        assert holds(checks, "95% CI") is False
