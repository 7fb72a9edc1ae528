"""Additional verbs-facade coverage: teardown, dereg, bulk destroy,
lazy heap backing."""

import pytest

from repro.apps import HelloWorld
from repro.cluster import cluster_b
from repro.core import Job, RuntimeConfig
from repro.errors import MemoryRegistrationError, QPStateError
from repro.ib import Opcode, QPState
from repro.sim import spawn

from ..conftest import build_rig
from .test_qp_transport import _connect_pair


class TestTeardown:
    def test_destroy_qp_charges_time_and_unregisters(self, rig2):
        ctx = rig2.ctxs[0]
        marks = {}

        def proc(sim):
            s, r = ctx.create_cq(), ctx.create_cq()
            qp = yield from ctx.create_rc_qp(s, r)
            qpn = qp.qpn
            t0 = sim.now
            yield from ctx.destroy_qp(qp)
            marks["dt"] = sim.now - t0
            marks["gone"] = qpn not in ctx.hca._qps
            marks["state"] = qp.state

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert marks["dt"] == pytest.approx(rig2.cluster.cost.qp_destroy_us)
        assert marks["gone"]
        assert marks["state"] is QPState.ERROR

    def test_bulk_destroy_charge(self, rig2):
        ctx = rig2.ctxs[0]
        marks = {}

        def proc(sim):
            t0 = sim.now
            yield from ctx.bulk_charge_qp_destroy(100)
            marks["dt"] = sim.now - t0

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert marks["dt"] == pytest.approx(
            100 * rig2.cluster.cost.qp_destroy_us
        )

    def test_send_to_destroyed_qp_is_naked(self, rig2):
        """An RC *request* aimed at a destroyed QP is NAKed back to the
        requester (surfacing as an error completion), as real HCAs do —
        never silently swallowed, which would hang the sender."""
        ctx0, ctx1 = rig2.ctxs
        out = {}

        def proc(sim):
            s0, r0 = ctx0.create_cq(), ctx0.create_cq()
            s1, r1 = ctx1.create_cq(), ctx1.create_cq()
            qa = yield from ctx0.create_rc_qp(s0, r0)
            qb = yield from ctx1.create_rc_qp(s1, r1)
            yield from ctx0.connect_rc_qp(qa, qb.address)
            yield from ctx1.connect_rc_qp(qb, qa.address)
            qb.destroy()
            qa.post_send(b"into the void", 13)
            out["ok"] = True

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out["ok"]
        assert rig2.counters["hca.nak_dead_qp"] >= 1
        assert rig2.counters["hca.dropped_no_qp"] == 0


class TestMemoryLifecycle:
    def test_dereg_makes_region_unreachable(self, rig2):
        ctx = rig2.ctxs[0]
        out = {}

        def proc(sim):
            addr = ctx.mm.alloc(128)
            region = yield from ctx.reg_mr(addr)
            assert ctx.registered_bytes == 128
            yield from ctx.dereg_mr(region)
            out["bytes"] = ctx.registered_bytes
            with pytest.raises(Exception):
                ctx.hca.memory_target(region.rkey)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out["bytes"] == 0

    def test_model_bytes_drives_cost_not_buffer(self, rig2):
        ctx = rig2.ctxs[0]
        cost = rig2.cluster.cost
        marks = {}

        def proc(sim):
            addr = ctx.mm.alloc(4096)
            t0 = sim.now
            yield from ctx.reg_mr(addr, model_bytes=256 * 1024 * 1024)
            marks["dt"] = sim.now - t0

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert marks["dt"] == pytest.approx(cost.mr_register_us(256 * 1024 * 1024))
        assert ctx.registered_bytes == 256 * 1024 * 1024


class TestLazyBacking:
    """``reg_mr`` reads only the allocation size: the backing array is
    created by the first data access, never by registration."""

    SIZE = 64 * 1024

    def test_reg_mr_leaves_backing_pending(self, rig2):
        ctx = rig2.ctxs[0]
        cost = rig2.cluster.cost
        out = {}

        def proc(sim):
            addr = ctx.mm.alloc(self.SIZE)
            t0 = sim.now
            out["region"] = yield from ctx.reg_mr(addr)
            out["dt"] = sim.now - t0

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        region = out["region"]
        pending = ctx.mm._buffers[region.addr]
        assert pending.__class__ is int and pending == self.SIZE
        assert region.size == self.SIZE
        assert ctx.registered_bytes == self.SIZE
        assert ctx.mm.registered_bytes == self.SIZE
        assert out["dt"] == pytest.approx(cost.mr_register_us(self.SIZE))

    def test_first_rdma_write_materialises_backing(self, rig2):
        pair = _connect_pair(rig2)
        ctx1 = rig2.ctxs[1]
        out = {}

        def proc(sim):
            region = yield from ctx1.reg_mr(ctx1.mm.alloc(self.SIZE))
            out["before"] = ctx1.mm._buffers[region.addr].__class__
            yield from rig2.ctxs[0].post_rdma_write(
                pair["qa"], b"lazy-bytes", region.addr + 100, region.rkey
            )
            wc = yield from rig2.ctxs[0].poll(pair["sa"])
            assert wc.opcode is Opcode.RDMA_WRITE
            out["backing"] = ctx1.mm._buffers[region.addr]
            yield from rig2.ctxs[0].post_rdma_read(
                pair["qa"], 10, region.addr + 100, region.rkey
            )
            out["read"] = (yield from rig2.ctxs[0].poll(pair["sa"])).data

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out["before"] is int
        backing = out["backing"]
        assert len(backing) == self.SIZE
        assert bytes(backing[100:110]) == b"lazy-bytes"
        assert not backing[:100].any() and not backing[110:].any()
        assert out["read"] == b"lazy-bytes"

    @pytest.mark.parametrize("corner", ["proposed", "current"])
    def test_hello_world_materialises_no_heap(self, corner):
        """A startup-only job registers every PE's heap and moves no
        data through it, so no heap backing array may exist."""
        config = getattr(RuntimeConfig, corner)()
        job = Job(npes=256, config=config, cluster=cluster_b(256, ppn=16))
        job.run(HelloWorld())
        touched = [
            pe.rank for pe in job.pes
            if job.ctxs[pe.rank].mm._buffers[pe.heap.base].__class__
            is not int
        ]
        assert touched == []


class TestBulkValidation:
    def test_negative_bulk_rejected(self, rig2):
        ctx = rig2.ctxs[0]

        def proc(sim):
            with pytest.raises(ValueError):
                yield from ctx.bulk_charge_rc_qps(-1)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
