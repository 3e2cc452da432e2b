"""Golden-number regression tests.

The reproduction's measured figures (EXPERIMENTS.md) depend on the cost
model's calibration constants.  These tests pin the headline quick-scale
numbers exactly, so an accidental change to packet sizes, delay
formulas, or protocol message counts shows up as a loud diff instead of
silently shifting every figure.

If you *intend* to change the cost model: re-run
``repro reproduce --full``, update EXPERIMENTS.md, and refresh these
constants.
"""

from __future__ import annotations

import pytest

from repro.workloads.contention import ContentionConfig, run_contention
from repro.workloads.counter import CounterConfig, run_counter
from repro.workloads.pipeline import PipelineConfig, run_pipeline
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

#: Quick-scale golden values, recorded from the calibrated build.
GOLDEN_FIGURE1_US = {
    "gwc": 15.208,
    "gwc_optimistic": 14.804,
    "entry": 16.104,
    "release": 16.600,
}
GOLDEN_PIPELINE_POWER = {  # n=4, data=64
    "gwc_optimistic": 1.6221374045801544,
    "gwc": 1.5492855059784243,
}
GOLDEN_TASKQUEUE_SPEEDUP = {  # n=5, tasks=64
    "gwc": 3.9678347272237455,
    "entry": 3.7005337463774888,
}


class TestGoldenFigure1:
    @pytest.mark.parametrize("system,expected", sorted(GOLDEN_FIGURE1_US.items()))
    def test_completion_time_pinned(self, system, expected):
        result = run_contention(ContentionConfig(system=system))
        measured = result.extra["completion_time"] * 1e6
        assert measured == pytest.approx(expected, abs=0.002), (
            f"{system} Figure 1 completion changed: {measured:.3f} us "
            f"(golden {expected:.3f} us) — recalibrate EXPERIMENTS.md "
            "if this was intentional"
        )


class TestGoldenPipeline:
    @pytest.mark.parametrize(
        "system,expected", sorted(GOLDEN_PIPELINE_POWER.items())
    )
    def test_network_power_pinned(self, system, expected):
        result = run_pipeline(
            PipelineConfig(system=system, n_nodes=4, data_size=64)
        )
        assert result.speedup == pytest.approx(expected, rel=1e-6)


class TestGoldenTaskQueue:
    @pytest.mark.parametrize(
        "system,expected", sorted(GOLDEN_TASKQUEUE_SPEEDUP.items())
    )
    def test_speedup_pinned(self, system, expected):
        result = run_task_queue(
            TaskQueueConfig(system=system, n_nodes=5, total_tasks=64)
        )
        assert result.speedup == pytest.approx(expected, abs=5e-4)


class TestGoldenDeterminism:
    def test_counter_elapsed_is_reproducible(self):
        a = run_counter(CounterConfig(system="gwc_optimistic", n_nodes=5,
                                      increments_per_node=6, seed=3))
        b = run_counter(CounterConfig(system="gwc_optimistic", n_nodes=5,
                                      increments_per_node=6, seed=3))
        assert a.elapsed == b.elapsed
        assert a.counter("opt.rollbacks") == b.counter("opt.rollbacks")
