"""Unit tests for canonical machine-state hashing."""

from __future__ import annotations

from repro.sim import statehash
from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

CONFIG = TaskQueueConfig(system="gwc", n_nodes=3, total_tasks=8)


def _run_capturing_machine(monkeypatch):
    """Run ``CONFIG`` and return its finished machine."""
    seen = []
    original = statehash.machine_state_hash

    def capture(machine):
        seen.append(machine)
        return original(machine)

    monkeypatch.setattr(statehash, "machine_state_hash", capture)
    result = run_task_queue(CONFIG)
    (machine,) = seen
    return machine, result


class TestStatePayload:
    def test_payload_covers_nodes_groups_and_clock(self, monkeypatch):
        machine, result = _run_capturing_machine(monkeypatch)
        payload = statehash.state_payload(machine)
        assert list(payload) == ["n_nodes", "clock", "nodes", "groups"]
        assert payload["n_nodes"] == 3
        assert payload["clock"] == machine.sim.now
        assert sorted(payload["nodes"]) == [0, 1, 2]
        assert list(payload["groups"]) == list(machine.groups)
        assert statehash.state_hash(machine) == result.extra["state_hash"]


class TestMachineStateHashHook:
    """Workloads resolve ``machine_state_hash`` on the module per call,
    so replacing the attribute observes every hashed run."""

    def test_run_task_queue_calls_the_patched_function(self, monkeypatch):
        calls = []

        def patched(machine):
            calls.append(machine.n_nodes)
            return "patched-digest"

        monkeypatch.setattr(statehash, "machine_state_hash", patched)
        result = run_task_queue(CONFIG)
        assert calls == [3]
        assert result.extra["state_hash"] == "patched-digest"
