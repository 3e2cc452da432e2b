"""Kernel + sweep performance snapshot -> ``BENCH_kernel.json``.

Unlike the pytest-benchmark suites next door, this module produces a
single machine-readable snapshot of the numbers the performance work
targets:

* raw event-loop throughput (events/second),
* network delivery throughput (messages/second), point-to-point and
  packet-train batched (the train figure must be at least 1.5x the
  unbatched one — that is the headline of the batching work),
* quick-scale Figure 2 + Figure 8 sweep wall-clock, serial and with
  ``jobs=4`` workers,
* deterministic write-burst ablation rows (wire messages at burst
  1 / 8 / unbounded — simulation counts, not timings),
* sharded-kernel rows, one per execution backend (``inproc`` and
  ``process``), each with wall time, ``speedup_vs_serial`` /
  ``overhead_vs_serial``, rollback behaviour, and the serial-parity bit,
* the speedup over the pre-optimization seed baseline,
* a host fingerprint (CPU model + core count) so snapshots from
  different machines are never diffed against each other by accident.

Run ``make bench-json`` to (re)generate ``BENCH_kernel.json`` at the
repo root, and ``make perf-smoke`` to fail the build if the quick
Figure 8 sweep has regressed more than 25% against the recorded
snapshot.  Timings are warm best-of-N ``perf_counter`` measurements, so
the snapshot is stable enough to diff across commits on one host.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernel.json"

#: Quick-scale Figure 2 + Figure 8 combined wall-clock of the seed tree
#: (commit b98eba4, before the kernel fast path), measured with the same
#: warm best-of-3 protocol on the reference 1-CPU CI host.  Absolute
#: seconds are host-specific; the recorded speedups are the ratio of two
#: measurements taken back-to-back on that host.
SEED_COMBINED_SERIAL_S = 1.373

#: How hard perf-smoke clamps down: fail when quick Figure 8 takes more
#: than ``1 + PERF_SMOKE_TOLERANCE`` times the recorded snapshot.
PERF_SMOKE_TOLERANCE = 0.25


def _best_of(fn, rounds: int = 3) -> float:
    """Warm best-of-``rounds`` wall-clock of ``fn()`` in seconds."""
    fn()  # warm caches, imports, and allocator pools
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_events_per_sec(total_events: int = 200_000) -> float:
    """Raw event-loop throughput: self-rescheduling no-arg callbacks."""
    from repro.sim.kernel import Simulator

    def drain() -> None:
        sim = Simulator()
        remaining = [total_events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule_fn(1e-6, tick)

        sim.schedule_fn(0.0, tick)
        sim.run()

    return total_events / _best_of(drain)


def measure_messages_per_sec(
    n_nodes: int = 8, total_messages: int = 100_000
) -> float:
    """Network delivery throughput on a mesh with real routing costs."""
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.net.topology import make_topology
    from repro.params import PAPER_PARAMS
    from repro.sim.kernel import Simulator

    def drain() -> None:
        sim = Simulator()
        net = Network(sim, make_topology("mesh_torus", n_nodes), PAPER_PARAMS)
        for node in range(n_nodes):
            net.attach(node, lambda msg: None)
        sent = [0]

        def pump() -> None:
            src = sent[0] % n_nodes
            net.send(Message(src=src, dst=(src + 1) % n_nodes, kind="bench.msg"))
            sent[0] += 1
            if sent[0] < total_messages:
                sim.schedule_fn(0.0, pump)

        sim.schedule_fn(0.0, pump)
        sim.run()

    return total_messages / _best_of(drain)


def measure_messages_per_sec_batched(
    n_nodes: int = 8, train_len: int = 16, total_messages: int = 100_000
) -> float:
    """Fanout delivery throughput with packet trains.

    The root repeatedly ships a ``train_len``-packet train to every
    other node — the shape of a sequenced write burst leaving a group
    root.  Each train costs one heap event per distinct arrival
    instant instead of one per (member, packet), which is where the
    batched figure's advantage over :func:`measure_messages_per_sec`
    comes from; the logical message count (and every ChannelStats
    counter) is identical to per-message sends.
    """
    from repro.net.network import Network
    from repro.net.topology import make_topology
    from repro.params import DEFAULT_PACKET_BYTES, PAPER_PARAMS
    from repro.sim.kernel import Simulator

    targets = tuple(range(1, n_nodes))
    rounds = max(1, total_messages // (train_len * len(targets)))
    delivered = rounds * train_len * len(targets)
    payloads = [None] * train_len
    sizes = [DEFAULT_PACKET_BYTES] * train_len

    def drain() -> None:
        sim = Simulator()
        net = Network(sim, make_topology("mesh_torus", n_nodes), PAPER_PARAMS)
        for node in range(n_nodes):
            net.attach(node, lambda msg: None)
        sent = [0]

        def pump() -> None:
            net.send_fanout_train(0, targets, "bench.train", payloads, sizes)
            sent[0] += 1
            if sent[0] < rounds:
                sim.schedule_fn(0.0, pump)

        sim.schedule_fn(0.0, pump)
        sim.run()

    return delivered / _best_of(drain)


def measure_burst_ablation() -> list[dict]:
    """Deterministic wire-message counts at burst 1 / 8 / unbounded.

    These are simulation counters, not wall-clock timings, so the rows
    are bit-stable across hosts — they document what the write-burst
    knob buys on the producer workload.
    """
    from repro.experiments.burst import run_burst_sweep

    rows = run_burst_sweep(sizes=(1, 8, 0), n_nodes=8, rounds=4, writes_per_round=16)
    return [
        {
            "burst": "unbounded" if row.burst == 0 else row.burst,
            "origin_messages": row.origin_messages,
            "total_messages": row.total_messages,
            "total_bytes": row.total_bytes,
            "reduction": row.reduction,
        }
        for row in rows
    ]


def measure_sharded_kernel() -> dict:
    """Sharded-kernel rows: per-backend wall time, rollbacks, parity.

    Runs the quick Figure 2 task queue serial, then under the 4-shard
    optimistic kernel once per execution backend (``inproc`` cooperative
    loops, ``process`` forked workers).  Each backend row carries its
    own ``speedup_vs_serial`` *and* the honest inverse
    ``overhead_vs_serial`` — on a single-CPU host the process backend
    pays fork + IPC on top of the replay cost and will not beat serial;
    the numbers say so instead of hiding it.  ``parity`` is the bit the
    whole design hangs on: every backend's state hash must equal the
    serial one.  ``effective`` records the backend that actually ran
    (``process`` falls back to ``inproc`` on hosts without fork).

    ``events_per_sec_serial`` divides the sharded kernel's executed
    delivery count by the *serial* wall time — the throughput the plain
    event loop achieves on the same logical delivery stream, which is
    the denominator every ``speedup_vs_serial`` figure implies.
    """
    from repro.workloads.task_queue import TaskQueueConfig, run_task_queue

    base = dict(system="gwc", n_nodes=9, total_tasks=64)
    serial = run_task_queue(TaskQueueConfig(**base))
    serial_s = _best_of(lambda: run_task_queue(TaskQueueConfig(**base)))
    backends = []
    executed = 0
    for backend in ("inproc", "process"):
        latest: dict = {}

        def sharded() -> None:
            latest["result"] = run_task_queue(
                TaskQueueConfig(
                    **base,
                    shards=4,
                    shard_policy="optimistic",
                    shard_backend=backend,
                )
            )

        wall_s = _best_of(sharded)
        result = latest["result"]
        stats = result.extra["shard_stats"]
        executed = executed or stats["executed"]
        backends.append(
            {
                "backend": backend,
                "effective": result.extra["shard_backend"],
                "wall_s": round(wall_s, 4),
                "events_per_sec": round(stats["executed"] / wall_s),
                "rollbacks": stats["rollbacks"],
                "rollback_ratio": round(stats["rollback_ratio"], 4),
                "speedup_vs_serial": round(serial_s / wall_s, 2),
                "overhead_vs_serial": round(wall_s / serial_s, 2),
                "parity": result.extra["state_hash"]
                == serial.extra["state_hash"],
            }
        )
    return {
        "workload": "figure2 task queue (gwc, n=9, 64 tasks), 4 shards, optimistic",
        "serial_wall_s": round(serial_s, 4),
        "events_per_sec_serial": round(executed / serial_s),
        "backends": backends,
    }


def _cpu_model() -> str:
    """Best-effort CPU model string for the host fingerprint."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _quick_figure2() -> None:
    from repro.experiments.figure2 import run_figure2

    run_figure2()


def _quick_figure8() -> None:
    from repro.experiments.figure8 import run_figure8

    run_figure8()


def _quick_combined(jobs: int | None = None) -> None:
    from repro.experiments.figure2 import run_figure2
    from repro.experiments.figure8 import run_figure8

    run_figure2(jobs=jobs)
    run_figure8(jobs=jobs)


def collect_snapshot() -> dict:
    """Measure everything and return the BENCH_kernel.json payload."""
    events_per_sec = measure_events_per_sec()
    messages_per_sec = measure_messages_per_sec()
    messages_per_sec_batched = measure_messages_per_sec_batched()
    burst_ablation = measure_burst_ablation()
    sharded = measure_sharded_kernel()
    figure2_s = _best_of(_quick_figure2)
    figure8_s = _best_of(_quick_figure8)
    combined_serial_s = _best_of(_quick_combined)
    combined_jobs4_s = _best_of(lambda: _quick_combined(jobs=4))
    combined_best_s = min(combined_serial_s, combined_jobs4_s)
    return {
        "schema": 4,
        "generated_by": "benchmarks/test_perf_kernel.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "host": {
            "cpu_model": _cpu_model(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "kernel": {
            "events_per_sec": round(events_per_sec),
            "messages_per_sec": round(messages_per_sec),
            "messages_per_sec_batched": round(messages_per_sec_batched),
            "batched_speedup": round(messages_per_sec_batched / messages_per_sec, 2),
        },
        "burst_ablation": burst_ablation,
        "sharded": sharded,
        "sweeps": {
            "figure2_quick_s": round(figure2_s, 4),
            "figure8_quick_s": round(figure8_s, 4),
            "combined_serial_s": round(combined_serial_s, 4),
            "combined_jobs4_s": round(combined_jobs4_s, 4),
        },
        "baseline": {
            "seed_combined_serial_s": SEED_COMBINED_SERIAL_S,
            "note": (
                "seed baseline measured from the pre-optimization tree "
                "(commit b98eba4) with the same warm best-of-3 protocol "
                "on the reference host; speedups divide it by this "
                "host's measurements and are only comparable when both "
                "ran on similar hardware"
            ),
            "speedup_serial": round(SEED_COMBINED_SERIAL_S / combined_serial_s, 2),
            "speedup_combined": round(SEED_COMBINED_SERIAL_S / combined_best_s, 2),
        },
    }


def write_snapshot() -> dict:
    """Measure and atomically (re)write ``BENCH_kernel.json``.

    The write goes through the crash-safe goldens writer, so a snapshot
    on disk is always complete — never a truncated JSON a reader (or
    the ``bench_kernel`` golden surface, which hashes this file minus
    its volatile host/timing fields) could half-parse.
    """
    from repro.goldens.writer import atomic_write_text

    snapshot = collect_snapshot()
    atomic_write_text(BENCH_JSON, json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def perf_smoke() -> int:
    """Fail (non-zero) if quick Figure 8 regressed >25% vs the snapshot.

    Returns a process exit code so the Makefile target can gate CI.
    """
    if not BENCH_JSON.exists():
        print(f"perf-smoke: no {BENCH_JSON.name}; run 'make bench-json' first")
        return 2
    recorded = json.loads(BENCH_JSON.read_text())["sweeps"]["figure8_quick_s"]
    # Best-of-5 (vs the snapshot's best-of-3) so a transient load spike
    # on a shared host doesn't fail the gate.
    measured = _best_of(_quick_figure8, rounds=5)
    limit = recorded * (1.0 + PERF_SMOKE_TOLERANCE)
    verdict = "OK" if measured <= limit else "REGRESSION"
    print(
        f"perf-smoke: quick figure8 {measured:.3f}s vs recorded "
        f"{recorded:.3f}s (limit {limit:.3f}s) -> {verdict}"
    )
    return 0 if measured <= limit else 1


# ----------------------------------------------------------------------
# pytest entry points (plain tests; skipped by `pytest --benchmark-only`)
# ----------------------------------------------------------------------


def test_perf_snapshot_writes_bench_json():
    """Regenerate BENCH_kernel.json and sanity-check its contents."""
    snapshot = write_snapshot()
    assert snapshot["schema"] == 4
    assert snapshot["kernel"]["events_per_sec"] > 10_000
    assert snapshot["kernel"]["messages_per_sec"] > 10_000
    # The batching headline: train delivery must beat point-to-point
    # delivery by at least 1.5x on the same host.
    assert (
        snapshot["kernel"]["messages_per_sec_batched"]
        >= 1.5 * snapshot["kernel"]["messages_per_sec"]
    )
    # The ablation rows are simulation counts: burst sizes 1, 8, and
    # unbounded, with origin->root traffic strictly shrinking.
    ablation = snapshot["burst_ablation"]
    assert [row["burst"] for row in ablation] == [1, 8, "unbounded"]
    origins = [row["origin_messages"] for row in ablation]
    assert origins[0] > origins[1] > origins[2]
    # Schema-4 sharded rows: one row per backend, each with its own
    # wall time, speedup, and the non-negotiable parity bit.
    sharded = snapshot["sharded"]
    assert sharded["serial_wall_s"] > 0
    assert sharded["events_per_sec_serial"] > 1_000
    assert [row["backend"] for row in sharded["backends"]] == [
        "inproc",
        "process",
    ]
    for row in sharded["backends"]:
        assert row["parity"] is True
        assert row["effective"] in ("inproc", "process")
        assert row["events_per_sec"] > 100
        assert row["rollbacks"] >= 0
        assert 0.0 <= row["rollback_ratio"]
        assert row["speedup_vs_serial"] > 0
        assert row["overhead_vs_serial"] > 0
    assert snapshot["host"]["cpu_model"]
    assert snapshot["sweeps"]["combined_serial_s"] > 0
    assert BENCH_JSON.exists()
    print()
    print(json.dumps(snapshot, indent=2))


def shard_backend_gate(snapshot: dict) -> None:
    """Soft wall-clock gate on the process backend — prints, never fails.

    On a multi-core host the forked workers should keep the quick-scale
    sharded run within 2x of serial; on a 1-CPU host (like the reference
    CI box) fork + IPC + replay cannot win and the gate prints MISS.
    Informational either way: the hard guarantees (parity, tier-1
    tests) live elsewhere.
    """
    sharded = snapshot["sharded"]
    row = next(
        (r for r in sharded["backends"] if r["backend"] == "process"), None
    )
    if row is None:
        return
    limit = 2.0 * sharded["serial_wall_s"]
    verdict = "HIT" if row["wall_s"] <= limit else "MISS"
    print(
        f"shard-backend gate (soft): process backend {row['wall_s']:.3f}s "
        f"vs 2x serial {limit:.3f}s on {os.cpu_count()} CPU(s) "
        f"(effective={row['effective']}) -> {verdict}"
    )


def main(argv: list[str]) -> int:
    if "--smoke" in argv:
        return perf_smoke()
    snapshot = write_snapshot()
    print(json.dumps(snapshot, indent=2))
    shard_backend_gate(snapshot)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
