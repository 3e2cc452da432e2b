"""The hardware blocking mechanism of the paper's Figure 6.

    (H1) hw_block:
    (H2)   if packet from local processor and
    (H3)      packet is data in mutex group
    (H4)   then drop the packet

The sharing interface drops all *root-echoed* changes to shared local
variables written only under a mutual exclusion lock.  These echoes are
redundant (only one processor at a time writes mutex data, and the local
copy was already updated in the correct group write order while that
processor held the lock) and, crucially, a late echo arriving after the
processor has re-entered an optimistic section could overwrite rollback
save state with stale values.

Echoed local *lock* changes belong to the same mutex group as their data
but are **not** dropped — they drive the lock-change interrupt.

The filter can be disabled for the echo-blocking ablation (A2 in
DESIGN.md), which demonstrates the corruption the paper describes.
"""

from __future__ import annotations


class HardwareBlockingFilter:
    """Per-node state of the Figure 6 filter.

    ``NodeInterface._process`` applies the predicate to every in-order
    apply packet and counts the drops here.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Count of packets dropped by the filter (diagnostics / tests).
        self.dropped = 0
