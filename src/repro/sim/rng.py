"""Deterministic named random streams.

Every consumer of randomness in a simulation asks for a stream by name
(``sim.rng.stream("workload")``).  Stream seeds are derived from the
master seed and the name, so adding a new consumer never perturbs the
random sequence seen by existing consumers — a property the committed
goldens and the pinned golden numbers rely on.
"""

from __future__ import annotations

import hashlib
import random


class RngStreams:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngStreams":
        """A child factory whose streams are independent of this one's."""
        digest = hashlib.sha256(
            f"{self.master_seed}/fork/{name}".encode("utf-8")
        ).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))
