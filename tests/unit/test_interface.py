"""Unit tests for the eagersharing interface: sequencing, suspension,
interrupts, and the Figure 6 hardware blocking filter."""

from __future__ import annotations

import pytest

from repro.errors import SequencingError
from repro.memory.interface import ApplyPacket, NodeInterface
from repro.memory.sharing_group import SharingGroup
from repro.memory.store import LocalStore
from repro.memory.varspace import LockDecl, VarDecl
from repro.net.network import Network
from repro.net.topology import Ring
from repro.params import MachineParams
from repro.sim.kernel import Simulator


def make_iface(node=1, echo_blocking=True):
    sim = Simulator()
    network = Network(sim, Ring(4), MachineParams())
    store = LocalStore(node)
    iface = NodeInterface(sim, network, node, store, echo_blocking=echo_blocking)
    network.attach(node, iface.on_message)
    for other in range(4):
        if other != node:
            network.attach(other, lambda msg: None)  # sink for forwards
    group = SharingGroup("g", network, (0, 1, 2, 3), root=0)
    group.declare_variable(VarDecl(name="x", group="g", initial=0))
    group.declare_variable(VarDecl(name="m", group="g", initial=0, mutex_lock="L"))
    group.declare_lock(LockDecl(name="L", group="g", protects=("m",)))
    iface.join_group(group)
    return sim, iface, store, group


def packet(seq, var="x", value=1, origin=0, mutex=False, lock=False):
    return ApplyPacket(
        group="g",
        seq=seq,
        var=var,
        value=value,
        origin=origin,
        is_mutex_data=mutex,
        is_lock=lock,
    )


#: (origin, group, kind, filter) for every Figure 6 input.  Only a root
#: echo of this node's own mutex data is dropped, and only when the
#: filter is on; lock values always apply (they drive the interrupt).
FILTER_CASES = [
    (origin, group, kind, state)
    for origin in ("self", "other")
    for group in ("mutex", "plain")
    for kind in ("data", "lock")
    for state in ("on", "off")
]


class TestHardwareBlockingFilter:
    @pytest.mark.parametrize(
        "origin,group,kind,state",
        FILTER_CASES,
        ids=["-".join(case) for case in FILTER_CASES],
    )
    def test_apply_path(self, origin, group, kind, state):
        _, iface, store, _ = make_iface(node=1, echo_blocking=state == "on")
        var = "L" if kind == "lock" else ("m" if group == "mutex" else "x")
        before = store.read(var)
        iface._receive(
            packet(
                0,
                var=var,
                value=5,
                origin=1 if origin == "self" else 2,
                mutex=group == "mutex",
                lock=kind == "lock",
            )
        )
        dropped = (origin, group, kind, state) == ("self", "mutex", "data", "on")
        assert store.read(var) == (before if dropped else 5)
        assert iface.filter.dropped == int(dropped)


class TestSequencing:
    def test_in_order_applies(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(0, value=10))
        iface._receive(packet(1, value=20))
        assert store.read("x") == 20
        assert iface.applied_count == 2

    def test_out_of_order_buffers_until_gap_fills(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(1, value=20))
        assert store.read("x") == 0  # seq 0 still missing
        iface._receive(packet(0, value=10))
        assert store.read("x") == 20  # both applied, in order

    def test_duplicate_seq_rejected(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(0))
        with pytest.raises(SequencingError):
            iface._receive(packet(0))

    def test_echo_consumes_sequence_number(self):
        """A dropped echo must still advance the expected sequence."""
        sim, iface, store, group = make_iface(node=1)
        iface._receive(packet(0, var="m", value=99, origin=1, mutex=True))
        assert store.read("m") == 0  # dropped
        iface._receive(packet(1, var="x", value=7))
        assert store.read("x") == 7  # sequence advanced past the drop


class TestInsharingSuspension:
    def test_suspended_packets_queue_and_replay_in_order(self):
        sim, iface, store, group = make_iface()
        iface.suspend_insharing()
        iface._receive(packet(0, value=1))
        iface._receive(packet(1, value=2))
        assert store.read("x") == 0
        assert iface.pending_suspended == 2
        iface.resume_insharing()
        assert store.read("x") == 2
        assert iface.pending_suspended == 0

    def test_filter_applies_to_drained_packets(self):
        sim, iface, store, group = make_iface(node=1)
        iface.suspend_insharing()
        iface._receive(packet(0, var="m", value=5, origin=1, mutex=True))
        iface.resume_insharing()
        assert store.read("m") == 0
        assert iface.filter.dropped == 1


class TestLockInterrupt:
    def test_interrupt_fires_with_suspension_engaged(self):
        sim, iface, store, group = make_iface()
        seen = []

        def handler(value):
            seen.append((value, iface.insharing_suspended))
            iface.resume_insharing()

        iface.arm_lock_interrupt("L", handler)
        iface._receive(packet(0, var="L", value=3, origin=0, lock=True))
        assert seen == [(3, True)]
        assert store.read("L") == 3  # value applied before the handler
        assert not iface.insharing_suspended

    def test_interrupt_disarms_itself(self):
        sim, iface, store, group = make_iface()
        calls = []
        iface.arm_lock_interrupt("L", lambda v: (calls.append(v), iface.resume_insharing()))
        iface._receive(packet(0, var="L", value=1, origin=0, lock=True))
        iface._receive(packet(1, var="L", value=2, origin=0, lock=True))
        assert calls == [1]

    def test_drain_stops_at_armed_lock_change(self):
        """Resuming insharing replays queued packets but an armed lock
        change re-suspends and leaves the rest queued."""
        sim, iface, store, group = make_iface()
        order = []

        def handler(value):
            order.append(("interrupt", value))
            # Leave insharing suspended (the rollback path).

        iface.suspend_insharing()
        iface._receive(packet(0, var="x", value=1))
        iface._receive(packet(1, var="L", value=9, origin=0, lock=True))
        iface._receive(packet(2, var="x", value=2))
        iface.arm_lock_interrupt("L", handler)
        iface.resume_insharing()
        assert order == [("interrupt", 9)]
        assert store.read("x") == 1  # packet 2 still queued
        assert iface.pending_suspended == 1
        iface.resume_insharing()
        assert store.read("x") == 2

    def test_unarmed_lock_changes_do_not_suspend(self):
        sim, iface, store, group = make_iface()
        iface._receive(packet(0, var="L", value=4, origin=0, lock=True))
        assert not iface.insharing_suspended
        assert store.read("L") == 4


class TestOutbound:
    def test_share_write_applies_locally_and_forwards(self):
        sim, iface, store, group = make_iface(node=1)
        iface.share_write("x", 42)
        assert store.read("x") == 42
        assert iface.network.stats.by_kind["gwc.update"] == 1

    def test_atomic_exchange_returns_old_value(self):
        sim, iface, store, group = make_iface(node=1)
        store.write("x", 5)
        old = iface.atomic_exchange("x", 9)
        assert old == 5
        assert store.read("x") == 9

    def test_wire_size_includes_declared_payload(self):
        sim, iface, store, group = make_iface(node=1)
        assert group.wire_bytes("L", 16) == 16
        assert group.wire_bytes("x", 16) == 24  # 16 header + 8 payload
