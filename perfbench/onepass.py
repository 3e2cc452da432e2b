"""Run one pass of one workload in this process and print its record.

Usage: python3 perfbench/onepass.py WORKLOAD SEED TRACE

``run.py`` starts one such process per pass, so every pass pays the
import and set-up a user of ``repro`` pays, and its peak resident memory
is its own.  The record is one JSON line on standard output.  The exit
code is 0 when the record was printed, whether or not the workload
raised; it is not 0 only when repro could not be imported.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Message kinds reported one by one in the per-layer metrics: every kind
#: the four workloads send.  The record's fingerprint keeps all kinds.
KINDS = (
    "gwc.update", "gwc.apply", "gwc.heartbeat", "gwc.nack",
    "ec.acquire_req", "ec.grant", "ec.invalidate", "ec.inval_ack",
    "ec.fetch_req", "ec.fetch_reply",
)


#: Seconds between two speed probes, and the work of one probe: random
#: updates of a 1024-entry dictionary (about 0.3 ms).
PROBE_INTERVAL_S = 0.025
#: The probe time that defines reference speed: one probe on an idle core
#: of a 2-CPU Xeon host running Python 3.11 takes 0.18-0.19 ms.
REFERENCE_PROBE_S = 0.0002
PROBE_KEYS = [random.Random(0).randrange(1024) for _ in range(2000)]


class SpeedProbe:
    """Samples how fast this CPU runs a fixed loop, while the pass runs.

    On a shared host the same pass takes from 1x to 2x its quiet time,
    depending on what runs on the sibling CPUs, in phases longer than a
    run.  A timer interrupts the pass every ``PROBE_INTERVAL_S`` and
    times a fixed dictionary loop (about 1% overhead).  Scaling the
    pass's host time by reference probe time over mean probe time
    cancels the slowdown the pass and the probes share.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._table = dict.fromkeys(range(1024), 0)

    def _sample(self, signum: int, frame: object) -> None:
        table = self._table
        start = time.perf_counter()
        for key in PROBE_KEYS:
            table[key] = table[key] + 1
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _canonical_hash(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(probe, tracer, sim: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (names as in BENCHMARK.json)."""
    stats = tracer.stats
    counts = probe.counts

    def calls(name: str) -> int:
        return int(stats.get(name, (0, 0.0, 0.0))[0])

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    out: dict[str, float] = {
        "sim.run_self_s": self_s("sim.run"),
        "sim.runs": calls("sim.run"),
        "sim.elapsed_us": sum(run["elapsed"] for run in probe.runs) * 1e6,
    }
    for name in ("net.msgs", "net.bytes", "net.dropped"):
        out[name] = counts[name]
    for kind in KINDS:
        out[f"net.msgs.{kind}"] = counts[f"net.msgs.{kind}"]
    for layer, span in (("send", "net.send"), ("fanout", "net.fanout"),
                        ("train", "net.train")):
        out[f"net.{layer}.calls"] = calls(span)
        out[f"net.{layer}.self_s"] = self_s(span)
    for span in ("memory.apply", "memory.deliver_other", "memory.share_write"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = self_s(span)
    out["memory.relayed_applies"] = counts["memory.relayed_applies"]
    out["memory.repartition.moves"] = sim.get("repartition_moves", 0)
    out["memory.repartition.locks_transferred"] = sim.get(
        "repartition_locks_transferred", 0
    )
    out["memory.repartition.discards"] = sim.get("repartition_discards", 0)
    out["consistency.root.updates"] = calls("consistency.root")
    out["consistency.root.self_s"] = self_s("consistency.root")
    out["consistency.entry.handler.calls"] = calls("consistency.entry.handler")
    out["consistency.entry.handler.self_s"] = self_s("consistency.entry.handler")
    out["consistency.entry.fetches"] = counts["node.ec.fetches"]
    out["consistency.entry.forwards"] = counts["node.ec.forwards"]
    for name in ("requests", "acquired", "retries", "timeouts"):
        out[f"locks.{name}"] = counts[f"node.lock.{name}"]
    out["locks.manager.calls"] = calls("locks.manager")
    out["locks.manager.self_s"] = self_s("locks.manager")
    waits_us = [wait * 1e6 for wait in tracer.lock_waits]
    out["locks.acquire_wait_sim_us.p50"] = _percentile(waits_us, 50)
    out["locks.acquire_wait_sim_us.p90"] = _percentile(waits_us, 90)
    for name in ("attempts", "successes", "rollbacks", "conflicts",
                 "regular_path"):
        out[f"locks.opt.{name}"] = counts[f"node.opt.{name}"]
    attempts = counts["node.opt.attempts"]
    out["locks.opt.success_ratio"] = (
        counts["node.opt.successes"] / attempts if attempts else 0.0
    )
    out["locks.opt.wasted_sim_us"] = probe.wasted_sim_s * 1e6
    points = [end - start for name, start, end, _ in tracer.spans
              if name == "experiments.sweep.point"]
    out["experiments.sweep.points"] = len(points)
    out["experiments.sweep.point_max_s"] = max(points, default=0.0)
    out["experiments.sweep.imbalance"] = (
        max(points) / statistics.fmean(points) if points else 0.0
    )
    out["core.machine.builds"] = calls("core.machine.build")
    out["core.machine.build_s"] = self_s("core.machine.build")
    out["core.machine.create_group_s"] = self_s("core.machine.create_group")
    out["model.speedup_optimistic"] = sim.get("speedup_optimistic", 0.0)
    out["model.speedup_entry"] = sim.get("speedup_entry", 0.0)
    out["model.elapsed_us"] = sim.get("elapsed_us", 0.0)
    out["model.root_load_ratio"] = sim.get("root_load_ratio", 0.0)
    return out


def run_pass(workload: str, seed: int, trace: bool) -> dict | None:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import repro  # noqa: F401
        from probes import PassProbe, Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    import_s = time.perf_counter() - start

    fn, n_checks = WORKLOADS[workload]
    probe = PassProbe()
    probe.install()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        outcome = fn(seed, probe.runs)
    except Exception as exc:  # a raising workload fails all its checks
        outcome = None
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start

    record = {
        "import_s": import_s,
        "wall_s": wall_s,
        "setup_s": import_s + wall_s - probe.run_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
    }
    if outcome is None:
        record["checks"] = [("workload raised", False)] * n_checks
        return record
    fingerprint = {k: probe.counts[k] for k in sorted(probe.counts)}
    fingerprint["sim.runs"] = len(probe.runs)
    record.update(
        checks=outcome.checks,
        sim=outcome.sim,
        rows=outcome.rows,
        digest=_canonical_hash(
            {"rows": outcome.rows, "state_hashes": probe.state_hashes}
        ),
        fingerprint=fingerprint,
    )
    if tracer is not None:
        record["layers"] = layer_metrics(probe, tracer, outcome.sim)
        record["spans"] = tracer.spans
    return record


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    with SpeedProbe() as speed:
        record = run_pass(workload, seed, trace)
    if record is None:
        return 2
    # Host seconds at the reference probe speed: the raw time scaled by
    # how much slower than the reference the probes ran in this pass.
    scale = REFERENCE_PROBE_S / statistics.fmean(speed.samples)
    record["probe_s"] = statistics.fmean(speed.samples)
    record["wall_ref_s"] = record["wall_s"] * scale
    record["setup_ref_s"] = record["setup_s"] * scale
    print(json.dumps(record, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
