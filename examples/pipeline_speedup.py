#!/usr/bin/env python3
"""Figure 8: optimistic vs. regular vs. entry locking on a pipeline.

The paper's constructed example: a linear pipeline where each processor
waits for data from its predecessor, computes, updates shared data in a
mutex section (1/8 of a local computation), and passes new data on.
With no contention, optimistic synchronization overlaps the whole lock
round trip with the mutex section's own computation.

Prints the figure's four series (zero-delay maximum ~= 1.89, optimistic
GWC, non-optimistic GWC, entry consistency) across network sizes.

Run:  python examples/pipeline_speedup.py           (quick sizes)
      python examples/pipeline_speedup.py --full    (paper scale: data
                                                    size 1024, up to 128
                                                    CPUs)
"""

from __future__ import annotations

import sys

from repro.experiments import figure8
from repro.experiments.common import figure8_scale


def main() -> None:
    sizes, data_size = figure8_scale(full="--full" in sys.argv)

    print(f"sweeping sizes {sizes} with data size {data_size} ...")
    rows = figure8.run_figure8(sizes=sizes, data_size=data_size)
    print()
    print(figure8.render(rows))
    print()
    for check in figure8.expectations(rows):
        print(check)

    first, last = rows[0], rows[-1]
    print()
    print(f"optimistic / non-optimistic at 2 CPUs: "
          f"{first.optimistic / first.gwc:5.2f}x (paper: ~1.1x)")
    print(f"optimistic / entry at 2 CPUs:          "
          f"{first.optimistic / first.entry:5.2f}x (paper: ~2.1x)")
    print(f"optimistic at {last.n_nodes} CPUs:                 "
          f"{last.optimistic:5.2f} (paper at 128: 1.15)")
    print(f"non-optimistic at {last.n_nodes} CPUs:             "
          f"{last.gwc:5.2f} (paper at 128: 1.03)")


if __name__ == "__main__":
    main()
