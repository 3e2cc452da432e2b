#!/usr/bin/env python3
"""Figure 2: speedup for task management vs. network size.

One producer generates tasks into a lock-guarded shared queue; consumers
claim and execute them.  Prints the figure's three series — the
zero-delay maximum, Sesame GWC with eagersharing, and the fast entry
consistency comparator — over networks of 2^k + 1 processors.

Run:  python examples/task_management.py           (quick sizes)
      python examples/task_management.py --full    (paper scale: 1024
                                                   tasks, up to 129 CPUs;
                                                   takes a few minutes)
"""

from __future__ import annotations

import sys

from repro.experiments import figure2
from repro.experiments.common import figure2_scale


def main() -> None:
    sizes, total_tasks = figure2_scale(full="--full" in sys.argv)

    print(f"sweeping sizes {sizes} with {total_tasks} tasks ...")
    rows = figure2.run_figure2(sizes=sizes, total_tasks=total_tasks)
    print()
    print(figure2.render(rows))
    print()
    for check in figure2.expectations(rows):
        print(check)

    gwc_peak = max(rows, key=lambda r: r.gwc)
    entry_peak = max(rows, key=lambda r: r.entry)
    print()
    print(
        f"GWC peak:   {gwc_peak.gwc:6.1f} at {gwc_peak.n_nodes} CPUs "
        f"(paper: 84.1 at 129)"
    )
    print(
        f"entry peak: {entry_peak.entry:6.1f} at {entry_peak.n_nodes} CPUs "
        f"(paper: 22.5 at 33)"
    )
    print(
        f"peak ratio: {gwc_peak.gwc / entry_peak.entry:6.2f}x "
        f"(paper: 3.7x)"
    )


if __name__ == "__main__":
    main()
