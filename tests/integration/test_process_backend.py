"""Process-backend parity: forked sweep workers change nothing observable.

:class:`~repro.experiments.runner.SweepExecutor` is the only parallelism
in the repo: it forks worker processes and runs each sweep point there.
Every case here runs task-queue points both in-process and in forked
workers, and the canonical state hashes, elapsed times and speedups
must be bit-identical — across the paper's two synchronization policies
(the optimistic GWC mutex and the conservative one it falls back to),
mesh and ring topologies, several seeds, and a deterministic delay plan.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import SweepExecutor
from repro.faults.plan import FaultPlan, delay
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

#: Sync policy -> the consistency system that implements it.
POLICIES = {"optimistic": "gwc_optimistic", "conservative": "gwc"}


def _tq(policy: str = "optimistic", **over) -> TaskQueueConfig:
    return TaskQueueConfig(
        system=POLICIES[policy],
        n_nodes=over.pop("n_nodes", 5),
        total_tasks=over.pop("total_tasks", 24),
        **over,
    )


def _observe(config: TaskQueueConfig) -> tuple:
    """Sweep point: (pid, state hash, elapsed, speedup) of one run."""
    result = run_task_queue(config)
    return os.getpid(), result.extra["state_hash"], result.elapsed, result.speedup


def _assert_worker_parity(configs: list[TaskQueueConfig], jobs: int = 2):
    __tracebackhide__ = True
    assert len(configs) >= 2, "one point never leaves the parent process"
    executor = SweepExecutor(jobs=jobs)
    forked = executor.map(_observe, configs)
    local = [_observe(config) for config in configs]
    if executor.jobs > 1:
        # The points really ran in forked workers, not in this process.
        assert all(pid != os.getpid() for pid, *_ in forked)
    for (_, *worker), (_, *here) in zip(forked, local):
        assert worker == here


class TestTaskQueueParity:
    @pytest.mark.parametrize("jobs", [2, 3, 4])
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_mesh(self, jobs, policy):
        configs = [_tq(policy, seed=seed) for seed in range(jobs)]
        _assert_worker_parity(configs, jobs=jobs)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_ring(self, policy):
        config = _tq(policy, topology="ring")
        _assert_worker_parity([config, config])

    @pytest.mark.parametrize("seed", [1, 7])
    def test_seeds(self, seed):
        configs = [_tq(policy, seed=seed) for policy in POLICIES]
        _assert_worker_parity(configs)


class TestFaultPlanParity:
    DELAY_PLAN = FaultPlan(
        [delay(200e-6, extra=40e-6, until=2000e-6, probability=1.0)], seed=3
    )

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_deterministic_delay_plan(self, policy):
        config = _tq(policy, fault_plan=self.DELAY_PLAN)
        _assert_worker_parity([config, _tq(policy)])
