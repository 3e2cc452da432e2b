"""Benchmark runner: one workload, one seed, a fixed measuring time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in its own process (``onepass.py``).  With ``--trace 0``
the runner repeats untraced passes until ``--seconds`` have gone by (at
least ``MIN_PASSES``) and reports the end-to-end metrics over the
passes: the fastest pass for ``wall_s``, medians for the others.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (provenance, digest, fingerprint, kept
spans) goes to ``.perfbench_runs/`` under the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
WORKLOADS = (
    "fig2_taskqueue",
    "fig8_pipeline",
    "optimistic_contention",
    "rootshard_rebalance",
)
#: Fewest untraced passes a run reports a median over.
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class SetupError(Exception):
    """The program under test could not be imported or started."""


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "onepass.py"), workload, str(seed),
         "1" if trace else "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip() or f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    sha, dirty = None, None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, timeout=10,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def _same(records: list[dict], key: str) -> bool:
    return all(r.get(key) == records[0].get(key) for r in records)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` and fold them into one result record."""
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        plain.append(run_pass(workload, seed, trace=False))
        if trace:
            traced.append(run_pass(workload, seed, trace=True))
        enough = trace or len(plain) >= MIN_PASSES
        if enough and time.monotonic() >= deadline:
            break

    passes = plain + traced
    checks = [check for record in passes for check in record["checks"]]
    ok = all(record["error"] is None for record in passes)
    # Determinism: every pass of one seed must reproduce the same result
    # digest and the same work counts; a traced pass must reproduce the
    # untraced one, which shows the probes do not perturb the simulation.
    checks.append(("untraced passes agree on the result digest",
                   ok and _same(plain, "digest")))
    checks.append(("untraced passes agree on the work-count fingerprint",
                   ok and _same(plain, "fingerprint")))
    if trace:
        checks.append(("traced passes reproduce the untraced digest and "
                       "fingerprint",
                       ok and _same(passes, "digest")
                       and _same(passes, "fingerprint")))
    failed = sum(1 for _, holds in checks if not holds)

    first = plain[0]
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]} if ok else {}
        layers["trace.overhead_ratio"] = (
            statistics.median(r["wall_ref_s"] for r in traced)
            / statistics.median(r["wall_ref_s"] for r in plain)
        )
        layers["host.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {
            # Contention only ever adds time, and the probe scaling does
            # not cancel all of it on the memory-heavy workloads; the
            # least disturbed pass is the steadiest estimate.
            "wall_s": {
                "value": min(r["wall_ref_s"] for r in plain),
                "unit": "s",
            },
            "setup_s": {
                "value": statistics.median(r["setup_ref_s"] for r in plain),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(r["rss_mb"] for r in plain),
                "unit": "MB",
            },
        }
        if ok:
            metrics["sim_speedup_gwc"] = {
                "value": first["sim"]["speedup_gwc"], "unit": "x"
            }
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed),
        "passes": len(passes),
        "raw_wall_s": statistics.median(r["wall_s"] for r in plain),
        "raw_setup_s": statistics.median(r["setup_s"] for r in plain),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "pass_probe_s": [r["probe_s"] for r in plain],
        "errors": [r["error"] for r in passes if r["error"]],
        "checks": checks,
        "digest": first.get("digest"),
        "fingerprint": first.get("fingerprint"),
        "fingerprint_sha256": hashlib.sha256(
            json.dumps(first.get("fingerprint"), sort_keys=True).encode()
        ).hexdigest(),
        "sim": first.get("sim"),
        "rows": first.get("rows"),
        "metrics": metrics,
    }
    if trace and ok:
        record["spans"] = traced[0]["spans"]
    return {"record": record, "attempted": len(checks), "failed": failed}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or "_us." in name:
        return "sim_us"  # simulated, not host, microseconds
    if name == "net.bytes":
        return "B"
    if name.startswith("model.speedup"):
        return "x"
    if name.endswith(("_ratio", ".imbalance")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    record = result["record"]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    out.write_text(json.dumps(record, indent=1, default=repr) + "\n")
    for name, holds in record["checks"]:
        print(f"[{'OK ' if holds else 'FAIL'}] {name}")
    prov = record["provenance"]
    print(f"workload={args.workload} seed={args.seed} passes={record['passes']} "
          f"digest={record['digest']} "
          f"fingerprint={record['fingerprint_sha256'][:16]} "
          f"git={prov['git_sha']} dirty={prov['git_dirty']} "
          f"load={prov['loadavg_start'][0]:.2f} record={out.relative_to(ROOT)}")
    print(f"  unscaled host time: wall {record['raw_wall_s']} s, "
          f"setup {record['raw_setup_s']} s (medians of untraced passes)")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
