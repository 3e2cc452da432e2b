"""Test-and-set and test-and-test-and-set spin locks.

The hardware-primitive baselines the paper cites ([3], [17]): each
acquisition attempt is a remote atomic test-and-set arbitrated at the
group root.  Plain test-and-set retries the remote atomic on every
failure — "in distributed systems repeatedly testing locks produces too
much network traffic" — while test-and-test-and-set spins *locally* on
the eagerly shared lock copy and only goes remote when the copy shows
free, the distributed analogue of spinning in cache.

The spin-lock variable is an ordinary eagershared word (FREE_VALUE when
free, ``node + 1`` when held), not a managed GWC lock: there is no queue
at the root, so fairness is whatever the retry timing produces.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.node import NodeHandle
from repro.locks.rmw import RemoteAtomics
from repro.memory.varspace import FREE_VALUE, grant_value


class TasSpinLock:
    """Plain test-and-set: every attempt is a remote atomic."""

    #: Pause between failed attempts (pure TAS hammers the root; a tiny
    #: pause keeps the simulation finite while preserving the traffic
    #: explosion the paper warns about).
    retry_delay = 0.5e-6

    def __init__(self, var: str, atomics: RemoteAtomics) -> None:
        self.var = var
        self.atomics = atomics
        #: Remote attempts issued (diagnostics: TAS traffic vs TTAS).
        self.attempts = 0

    def acquire(self, node: NodeHandle) -> Generator[Any, Any, None]:
        mine = grant_value(node.id)
        while True:
            self.attempts += 1
            node.metrics.count("spin.remote_attempts")
            old = yield from self.atomics.test_and_set(
                node, self.var, mine, FREE_VALUE
            )
            if old == FREE_VALUE:
                node.metrics.count("lock.acquired")
                return
            yield self.retry_delay

    def release(self, node: NodeHandle) -> Generator[Any, Any, None]:
        if node.store.read(self.var) != grant_value(node.id):
            # The local copy may lag; check the root's view by writing
            # anyway — release is only legal for the holder.
            pass
        node.iface.share_write(self.var, FREE_VALUE)
        node.metrics.count("lock.released")
        return
        yield  # pragma: no cover - marks this function as a generator


class TtasSpinLock(TasSpinLock):
    """Test-and-test-and-set: spin locally, go remote only on free."""

    def acquire(self, node: NodeHandle) -> Generator[Any, Any, None]:
        mine = grant_value(node.id)
        while True:
            # Local spin costs no network traffic at all: eagersharing
            # delivers the release to the local copy.
            yield from node.store.wait_until(self.var, lambda v: v == FREE_VALUE)
            self.attempts += 1
            node.metrics.count("spin.remote_attempts")
            old = yield from self.atomics.test_and_set(
                node, self.var, mine, FREE_VALUE
            )
            if old == FREE_VALUE:
                node.metrics.count("lock.acquired")
                return
            # Lost the race; back to local spinning.
