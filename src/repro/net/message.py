"""Messages carried by the simulated network.

Higher layers (the DSM memory substrate, lock protocols) subclass or
instantiate :class:`Message` with a ``kind`` tag; the network only needs
source, destination, and size to compute delays and statistics.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.params import DEFAULT_PACKET_BYTES

_message_ids = itertools.count(1)
_next_message_id = _message_ids.__next__
_NAN = float("nan")


class Message:
    """One network message.

    A hand-written ``__slots__`` class rather than a dataclass: one
    instance is allocated per send on the hottest protocol path, and the
    plain ``__init__`` costs roughly half of the generated one.

    Attributes:
        src: Sending node id.
        dst: Receiving node id.
        kind: Protocol tag, e.g. ``"update"``, ``"lock_request"``.
        payload: Arbitrary protocol data (not interpreted by the network).
        size_bytes: Wire size used for serialization delay.
        msg_id: Unique id assigned at construction (for tracing).
        sent_at: Stamped by the network when the message enters a channel.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "msg_id", "sent_at")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any = None,
        size_bytes: int = DEFAULT_PACKET_BYTES,
        msg_id: int | None = None,
        sent_at: float = _NAN,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.msg_id = _next_message_id() if msg_id is None else msg_id
        self.sent_at = sent_at

    def __getstate__(self) -> tuple:
        """Explicit slot tuple: slot-stable pickling for the process
        shard backend (and ~2x cheaper than the generic slots protocol
        on the per-round IPC path)."""
        return (
            self.src,
            self.dst,
            self.kind,
            self.payload,
            self.size_bytes,
            self.msg_id,
            self.sent_at,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.src,
            self.dst,
            self.kind,
            self.payload,
            self.size_bytes,
            self.msg_id,
            self.sent_at,
        ) = state

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src}, dst={self.dst}, kind={self.kind!r}, "
            f"payload={self.payload!r}, size_bytes={self.size_bytes}, "
            f"msg_id={self.msg_id}, sent_at={self.sent_at})"
        )

    def __str__(self) -> str:
        return (
            f"Message#{self.msg_id}({self.kind} {self.src}->{self.dst}, "
            f"{self.size_bytes}B)"
        )


def fire_batch(batch: list) -> None:
    """Deliver every ``(handler, msg)`` pair of one heap event, in order.

    A batch holds the deliveries of one send call that share one arrival
    instant, in the order of their sequence numbers.  The receivers see
    exactly the per-message deliveries they would have seen unbatched;
    only the number of heap events differs.  Scheduled by
    :class:`~repro.net.network.Network` as an ``(arrival, 0, seq,
    fire_batch, batch)`` heap entry.
    """
    for handler, msg in batch:
        handler(msg)
