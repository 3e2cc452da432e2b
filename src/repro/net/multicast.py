"""Reliable, sequenced group multicast from the group root.

The group root is the sequencing arbiter for all shared writes in its
group.  :class:`MulticastTree` sends each sequenced packet from the root
toward every member along the group's spanning tree.  Delivery to a
member takes the tree-path wire time; FIFO channels plus monotonically
increasing sequence numbers give every member the same total order —
which is precisely the group write consistency guarantee.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.net.network import Network
from repro.net.spanning_tree import (
    SpanningTree,
    build_bfs_tree,
    build_relay_tree,
)


class MulticastTree:
    """Root-sequenced multicast over a sharing group's spanning tree.

    With ``fanout=None`` (the default) the root fans out directly to
    every member — the original Sesame model.  With a ``fanout`` the
    tree is a bounded-degree relay tree: the root sends only to its
    tree children, and each member forwards sequenced applies on to its
    own children (hierarchical multicast; see
    ``NodeInterface._relay_apply``).
    """

    def __init__(
        self,
        network: Network,
        root: int,
        members: tuple[int, ...],
        start_seq: int = 0,
        fanout: int | None = None,
    ) -> None:
        self.network = network
        self.root = root
        self.fanout = fanout
        if fanout is None:
            self.tree: SpanningTree = build_bfs_tree(
                network.topology, root, members
            )
            #: Per-multicast direct targets: every member (or every
            #: member minus the root).
            self._fanout_targets = self.tree.members
            self._nonroot_targets = tuple(
                member for member in self.tree.members if member != root
            )
        else:
            self.tree = build_relay_tree(network.topology, root, members, fanout)
            # Relay mode: the root only touches its own tree children;
            # members forward to theirs on delivery.
            kids = self.tree.children.get(root, ())
            self._fanout_targets = (root, *kids)
            self._nonroot_targets = kids
        #: Members minus the root, for NACK retransmits and heartbeats
        #: which always go direct (tail-loss recovery must not depend on
        #: a possibly-crashed relay).
        self._nonroot_members = tuple(
            member for member in self.tree.members if member != root
        )
        #: Next group-global sequence number.  A failover successor's
        #: tree starts where the reconstruction quorum left off rather
        #: than at zero (see :mod:`repro.faults.failover`).
        self._next_seq = start_seq

    def children_of(self, node: int) -> tuple[int, ...]:
        """Relay children of ``node`` ( () in direct-fanout mode)."""
        if self.fanout is None:
            return ()
        return self.tree.children.get(node, ())

    @property
    def members(self) -> tuple[int, ...]:
        return self.tree.members

    def next_sequence(self) -> int:
        """Allocate the next group-global sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def multicast(
        self,
        kind: str,
        payload: object,
        size_bytes: int,
        include_root: bool = True,
    ) -> None:
        """Send one packet from the root to every member.

        The same payload object, and without network hooks the same
        :class:`~repro.net.message.Message`, reaches every member;
        receivers must treat both as read-only.

        Args:
            kind: Message kind tag.
            payload: Protocol payload delivered to each member.
            size_bytes: Wire size of each per-member message.
            include_root: Whether the root delivers the packet to itself
                as well (it does for data echoes; it already acted on lock
                state locally).
        """
        targets = self._fanout_targets if include_root else self._nonroot_targets
        self.network.send_fanout(self.root, targets, kind, payload, size_bytes)

    def multicast_train(
        self,
        kind: str,
        payloads: "list[object] | tuple[object, ...]",
        sizes: "list[int] | tuple[int, ...]",
        include_root: bool = True,
    ) -> None:
        """Send several back-to-back packets to every member as a train.

        Logically identical to calling :meth:`multicast` once per
        ``(payload, size)`` entry, in order — same per-packet arrival
        times, stats, and delivery order — but all deliveries whose
        FIFO-clamped arrivals coincide share one heap event (see
        :meth:`Network.send_fanout_train`).  This is how the root
        ships a sequenced burst of writes without multiplying simulator
        events by the burst length.
        """
        targets = self._fanout_targets if include_root else self._nonroot_targets
        self.network.send_fanout_train(self.root, targets, kind, payloads, sizes)
