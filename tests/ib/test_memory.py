"""Unit tests for memory registration and validated remote access."""

import numpy as np
import pytest

from repro.errors import MemoryRegistrationError, RemoteAccessError
from repro.ib.memory import MemoryManager


@pytest.fixture
def mm():
    return MemoryManager(rank=0)


class TestAllocation:
    def test_alloc_returns_distinct_page_aligned_addresses(self, mm):
        a = mm.alloc(100)
        b = mm.alloc(100)
        assert a != b
        assert a % 4096 == 0 and b % 4096 == 0
        assert b >= a + 4096

    def test_alloc_zero_or_negative_rejected(self, mm):
        with pytest.raises(ValueError):
            mm.alloc(0)
        with pytest.raises(ValueError):
            mm.alloc(-5)

    def test_buffer_is_zeroed(self, mm):
        addr = mm.alloc(64)
        assert not mm.buffer_of(addr).any()

    def test_buffer_of_unknown_addr(self, mm):
        with pytest.raises(MemoryRegistrationError):
            mm.buffer_of(0xDEAD)


class TestRegistration:
    def test_register_issues_unique_rkeys(self, mm):
        r1 = mm.register(mm.alloc(128))
        r2 = mm.register(mm.alloc(128))
        assert r1.rkey != r2.rkey
        assert mm.region_by_rkey(r1.rkey) is r1

    def test_double_register_rejected(self, mm):
        addr = mm.alloc(128)
        mm.register(addr)
        with pytest.raises(MemoryRegistrationError):
            mm.register(addr)

    def test_registered_bytes_tracked(self, mm):
        region = mm.register(mm.alloc(1000))
        assert mm.registered_bytes == 1000
        mm.deregister(region)
        assert mm.registered_bytes == 0

    def test_deregister_twice_rejected(self, mm):
        region = mm.register(mm.alloc(10))
        mm.deregister(region)
        with pytest.raises(MemoryRegistrationError):
            mm.deregister(region)

    def test_unknown_rkey(self, mm):
        with pytest.raises(RemoteAccessError):
            mm.region_by_rkey(0xBADBAD)


class TestLocalAccess:
    def test_write_then_read_roundtrip(self, mm):
        addr = mm.alloc(32)
        mm.write_local(addr + 4, b"hello")
        assert mm.read_local(addr + 4, 5) == b"hello"

    def test_out_of_range_access(self, mm):
        addr = mm.alloc(16)
        with pytest.raises(RemoteAccessError):
            mm.read_local(addr, 17)


class TestRemoteAccess:
    def test_rdma_write_within_region(self, mm):
        region = mm.register(mm.alloc(64))
        mm.rdma_write(region.addr + 8, region.rkey, b"\x01\x02\x03")
        assert mm.read_local(region.addr + 8, 3) == b"\x01\x02\x03"

    def test_rdma_write_outside_region_rejected(self, mm):
        region = mm.register(mm.alloc(64))
        with pytest.raises(RemoteAccessError):
            mm.rdma_write(region.addr + 62, region.rkey, b"\x01\x02\x03")

    def test_rdma_write_with_wrong_rkey_rejected(self, mm):
        r1 = mm.register(mm.alloc(64))
        r2 = mm.register(mm.alloc(64))
        # address from r1, key from r2 -> must fail containment
        with pytest.raises(RemoteAccessError):
            mm.rdma_write(r1.addr, r2.rkey, b"x")

    def test_rdma_read(self, mm):
        region = mm.register(mm.alloc(64))
        mm.write_local(region.addr + 10, b"abcdef")
        assert mm.rdma_read(region.addr + 10, region.rkey, 6) == b"abcdef"


class TestAtomics:
    def test_fetch_add_returns_old_and_increments(self, mm):
        region = mm.register(mm.alloc(64))
        assert mm.atomic(region.addr, region.rkey, "fetch_add", 0, 5) == 0
        assert mm.atomic(region.addr, region.rkey, "fetch_add", 0, 3) == 5
        raw = mm.read_local(region.addr, 8)
        assert int.from_bytes(raw, "little") == 8

    def test_cmp_swap_success_and_failure(self, mm):
        region = mm.register(mm.alloc(64))
        # swap when compare matches (initial value 0)
        assert mm.atomic(region.addr, region.rkey, "cmp_swap", 0, 42) == 0
        # compare mismatches -> value unchanged, old returned
        assert mm.atomic(region.addr, region.rkey, "cmp_swap", 7, 99) == 42
        raw = mm.read_local(region.addr, 8)
        assert int.from_bytes(raw, "little") == 42

    def test_negative_fetch_add_wraps_two_complement(self, mm):
        region = mm.register(mm.alloc(64))
        mm.atomic(region.addr, region.rkey, "fetch_add", 0, 10)
        old = mm.atomic(region.addr, region.rkey, "fetch_add", 0, -4)
        assert old == 10
        raw = mm.read_local(region.addr, 8)
        assert int.from_bytes(raw, "little", signed=True) == 6

    def test_atomic_requires_8_bytes_in_region(self, mm):
        region = mm.register(mm.alloc(8))
        with pytest.raises(RemoteAccessError):
            mm.atomic(region.addr + 4, region.rkey, "fetch_add", 0, 1)

    def test_unknown_op_rejected(self, mm):
        region = mm.register(mm.alloc(16))
        with pytest.raises(ValueError):
            mm.atomic(region.addr, region.rkey, "nonsense", 0, 1)

    def test_fetch_add_past_int64_max_wraps_to_min(self, mm):
        region = mm.register(mm.alloc(16))
        top = (1 << 63) - 1
        mm.write_local(region.addr, top.to_bytes(8, "little", signed=True))
        assert mm.atomic(region.addr, region.rkey, "fetch_add", 0, 1) == top
        assert mm.atomic(region.addr, region.rkey, "fetch_add", 0, 0) == -(1 << 63)
        raw = mm.read_local(region.addr, 8)
        assert int.from_bytes(raw, "little", signed=True) == -(1 << 63)

    def test_cmp_swap_with_negative_compare_and_operand(self, mm):
        region = mm.register(mm.alloc(16))
        mm.atomic(region.addr, region.rkey, "fetch_add", 0, -5)
        assert mm.atomic(region.addr, region.rkey, "cmp_swap", -5, -7) == -5
        assert mm.atomic(region.addr, region.rkey, "cmp_swap", -6, 1) == -7
        raw = mm.read_local(region.addr, 8)
        assert int.from_bytes(raw, "little", signed=True) == -7


#: One atomic sequence over the int64 edges: (op, compare, operand).
EDGE_OPS = [
    ("fetch_add", 0, (1 << 63) - 1),
    ("fetch_add", 0, 1),
    ("cmp_swap", -(1 << 63), -3),
    ("cmp_swap", 0, 99),
    ("fetch_add", 0, -(1 << 62)),
]


def test_intra_node_atomic_matches_the_inbound_path():
    """``MemoryManager.atomic`` (the conduit's same-node path, by rkey)
    and an RC atomic applied at the target HCA agree value for value
    and byte for byte."""
    from repro.sim import spawn

    from ..conftest import build_rig
    from .test_qp_transport import _connect_pair

    rig = build_rig(npes=2, ppn=1)
    pair = _connect_pair(rig)
    ctx0, ctx1 = rig.ctxs
    got = {"intra": [], "inbound": []}

    def proc(sim):
        local = yield from ctx1.reg_mr(ctx1.mm.alloc(64))
        remote = yield from ctx1.reg_mr(ctx1.mm.alloc(64))
        for op, compare, operand in EDGE_OPS:
            got["intra"].append(ctx1.mm.atomic(
                local.addr + 8, local.rkey, op, compare, operand))
            yield from ctx0.post_atomic(
                pair["qa"], op, remote.addr + 8, remote.rkey,
                compare=compare, swap_or_add=operand)
            wc = yield from ctx0.poll(pair["sa"])
            got["inbound"].append(wc.data)
        got["bytes"] = (ctx1.mm.read_local(local.addr, 64),
                        ctx1.mm.read_local(remote.addr, 64))

    spawn(rig.sim, proc(rig.sim))
    rig.sim.run()
    assert got["intra"] == got["inbound"] == [
        0, (1 << 63) - 1, -(1 << 63), -3, -3,
    ]
    local_bytes, remote_bytes = got["bytes"]
    assert local_bytes == remote_bytes
    assert int.from_bytes(local_bytes[8:16], "little", signed=True) == (
        -3 - (1 << 62))
