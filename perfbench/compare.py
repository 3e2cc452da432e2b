"""Compare the run records of two checkouts (or two sets of runs).

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``.perfbench_runs/*.json`` records that
``run.py`` writes.  For every (workload, seed) present in both, the
report says whether the result digest changed (a model change: the
simulation computed something else) and whether the work-count
fingerprint changed (the simulation did different work).  For every
metric it prints the median over each side's runs and their ratio.
Exit code 1 when any digest or fingerprint differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict[tuple[str, int, bool], list[dict]]:
    records: dict[tuple[str, int, bool], list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["provenance"]["seed"], record["trace"])
        records[key].append(record)
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(arg)) for arg in argv)
    changed = False
    for key in sorted(base.keys() & new.keys()):
        workload, seed, trace = key
        digests = {r["digest"] for r in base[key]}, {r["digest"] for r in new[key]}
        prints = ({r["fingerprint_sha256"] for r in base[key]},
                  {r["fingerprint_sha256"] for r in new[key]})
        notes = []
        if digests[0] != digests[1]:
            notes.append("MODEL CHANGE (digest differs)")
        if prints[0] != prints[1]:
            notes.append("WORK CHANGE (fingerprint differs)")
        changed = changed or bool(notes)
        print(f"{workload} seed={seed} trace={int(trace)}: "
              + (", ".join(notes) or "digest and fingerprint identical"))
    metrics: dict[tuple[str, str], tuple[list, list]] = defaultdict(
        lambda: ([], [])
    )
    for side, records in enumerate((base, new)):
        for (workload, _, _), runs in records.items():
            for record in runs:
                for name, metric in record["metrics"].items():
                    metrics[(workload, name)][side].append(metric["value"])
    for (workload, name), (old, cur) in sorted(metrics.items()):
        if not old or not cur:
            continue
        a, b = statistics.median(old), statistics.median(cur)
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"  {workload:22s} {name:40s} base={a:.6g} (n={len(old)}) "
              f"new={b:.6g} (n={len(cur)}) new/base={ratio}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
