"""Integration tests: UD datagrams and RC RDMA over the simulated fabric."""

import pytest

from repro.errors import QPStateError, RemoteAccessError, VerbsError
from repro.ib import Opcode, QPState
from repro.sim import spawn

from ..conftest import build_rig


def _mk_ud(rig, rank):
    """Create an activated UD QP for ``rank`` (runs inside a process)."""
    ctx = rig.ctxs[rank]
    scq, rcq = ctx.create_cq(), ctx.create_cq()
    holder = {}

    def proc(sim):
        holder["qp"] = yield from ctx.create_ud_qp(scq, rcq)

    spawn(rig.sim, proc(rig.sim))
    rig.sim.run()
    return holder["qp"], scq, rcq


class TestUD:
    def test_ud_datagram_delivery(self, rig2):
        qp0, s0, r0 = _mk_ud(rig2, 0)
        qp1, s1, r1 = _mk_ud(rig2, 1)
        got = []

        def sender(sim):
            yield from rig2.ctxs[0].ud_send(qp0, qp1.address, b"ping", 4)

        def receiver(sim):
            wc = yield r1.wait()
            got.append((wc.data, wc.src_addr, sim.now))

        spawn(rig2.sim, sender(rig2.sim))
        spawn(rig2.sim, receiver(rig2.sim))
        rig2.sim.run()
        (data, src, t) = got[0]
        assert data == b"ping"
        assert src == qp0.address
        assert t > 0

    def test_ud_mtu_enforced(self, rig2):
        qp0, s0, r0 = _mk_ud(rig2, 0)
        qp1, *_ = _mk_ud(rig2, 1)
        with pytest.raises(VerbsError):
            qp0.post_send(qp1.address, b"x" * 5000, 5000)

    def test_ud_send_completes_locally_without_ack(self, rig2):
        qp0, s0, r0 = _mk_ud(rig2, 0)
        qp1, *_ = _mk_ud(rig2, 1)
        qp0.post_send(qp1.address, b"a", 1, wr_id=77)
        rig2.sim.run()
        wc = s0.poll()
        assert wc is not None and wc.wr_id == 77

    def test_ud_loss_drops_packets(self):
        from repro.cluster import CostModel

        rig = build_rig(
            npes=2, cost=CostModel().evolve(ud_loss_prob=1.0, ud_duplicate_prob=0.0)
        )
        qp0, *_ = _mk_ud(rig, 0)
        qp1, s1, r1 = _mk_ud(rig, 1)
        qp0.post_send(qp1.address, b"gone", 4)
        rig.sim.run()
        assert len(r1) == 0
        assert rig.counters["fabric.ud_dropped"] == 1

    def test_ud_duplicate_delivers_twice(self):
        from repro.cluster import CostModel

        rig = build_rig(
            npes=2, cost=CostModel().evolve(ud_loss_prob=0.0, ud_duplicate_prob=1.0)
        )
        qp0, *_ = _mk_ud(rig, 0)
        qp1, s1, r1 = _mk_ud(rig, 1)
        qp0.post_send(qp1.address, b"dup", 3)
        rig.sim.run()
        assert len(r1) == 2


def _connect_pair(rig, a=0, b=1):
    """Establish a connected RC QP pair between ranks a and b."""
    out = {}

    def proc(sim):
        ctxa, ctxb = rig.ctxs[a], rig.ctxs[b]
        sa, ra = ctxa.create_cq(), ctxa.create_cq()
        sb, rb = ctxb.create_cq(), ctxb.create_cq()
        qa = yield from ctxa.create_rc_qp(sa, ra)
        qb = yield from ctxb.create_rc_qp(sb, rb)
        yield from ctxa.connect_rc_qp(qa, qb.address)
        yield from ctxb.connect_rc_qp(qb, qa.address)
        out.update(qa=qa, qb=qb, sa=sa, ra=ra, sb=sb, rb=rb)

    spawn(rig.sim, proc(rig.sim))
    rig.sim.run()
    return out


class TestRCStateMachine:
    def test_states_progress(self, rig2):
        pair = _connect_pair(rig2)
        assert pair["qa"].state is QPState.RTS
        assert pair["qb"].state is QPState.RTS

    def test_post_before_rts_rejected(self, rig2):
        ctx = rig2.ctxs[0]
        s, r = ctx.create_cq(), ctx.create_cq()

        def proc(sim):
            qp = yield from ctx.create_rc_qp(s, r)
            with pytest.raises(QPStateError):
                qp.post_send(b"x", 1)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()

    def test_transition_order_enforced(self, rig2):
        ctx = rig2.ctxs[0]
        s, r = ctx.create_cq(), ctx.create_cq()

        def proc(sim):
            qp = yield from ctx.create_rc_qp(s, r)
            with pytest.raises(QPStateError):
                qp.modify_to_rts()  # skipping INIT/RTR

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()


class TestRCMessaging:
    def test_send_recv_roundtrip(self, rig2):
        pair = _connect_pair(rig2)
        got = []

        def sender(sim):
            yield from rig2.ctxs[0].post_send(pair["qa"], b"hello", 5, wr_id=1)
            wc = yield from rig2.ctxs[0].poll(pair["sa"])
            got.append(("send-done", wc.wr_id))

        def receiver(sim):
            wc = yield from rig2.ctxs[1].poll(pair["rb"])
            got.append(("recv", wc.data))

        spawn(rig2.sim, sender(rig2.sim))
        spawn(rig2.sim, receiver(rig2.sim))
        rig2.sim.run()
        assert ("recv", b"hello") in got
        assert ("send-done", 1) in got

    def test_rdma_write_moves_bytes(self, rig2):
        pair = _connect_pair(rig2)
        ctx1 = rig2.ctxs[1]
        done = []

        def proc(sim):
            addr = ctx1.mm.alloc(64)
            region = yield from ctx1.reg_mr(addr)
            yield from rig2.ctxs[0].post_rdma_write(
                pair["qa"], b"DATA", region.addr + 16, region.rkey
            )
            wc = yield from rig2.ctxs[0].poll(pair["sa"])
            assert wc.opcode is Opcode.RDMA_WRITE
            done.append(ctx1.mm.read_local(region.addr + 16, 4))

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert done == [b"DATA"]

    def test_rdma_read_fetches_remote_bytes(self, rig2):
        pair = _connect_pair(rig2)
        ctx1 = rig2.ctxs[1]
        done = []

        def proc(sim):
            addr = ctx1.mm.alloc(64)
            region = yield from ctx1.reg_mr(addr)
            ctx1.mm.write_local(region.addr, b"remote-bytes")
            yield from rig2.ctxs[0].post_rdma_read(
                pair["qa"], 12, region.addr, region.rkey
            )
            wc = yield from rig2.ctxs[0].poll(pair["sa"])
            done.append(wc.data)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert done == [b"remote-bytes"]

    def test_rdma_write_bad_rkey_errors_at_requester(self, rig2):
        # IBV semantics: the target NAKs the unknown rkey and the
        # requester's WR completes with a remote-access error — the
        # target-side simulation must not crash.
        pair = _connect_pair(rig2)
        failures = []

        def proc(sim):
            yield from rig2.ctxs[0].post_rdma_write(
                pair["qa"], b"x", 0x999, rkey=0xBEEF
            )
            try:
                yield from rig2.ctxs[0].poll(pair["sa"])
            except RemoteAccessError as exc:
                failures.append(str(exc))

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert len(failures) == 1
        assert "0xbeef" in failures[0]

    def test_atomic_fetch_add_serializes_correctly(self, rig2):
        pair = _connect_pair(rig2)
        ctx1 = rig2.ctxs[1]
        results = []

        def proc(sim):
            addr = ctx1.mm.alloc(64)
            region = yield from ctx1.reg_mr(addr)
            for i in range(4):
                yield from rig2.ctxs[0].post_atomic(
                    pair["qa"], "fetch_add", region.addr, region.rkey,
                    swap_or_add=10,
                )
                wc = yield from rig2.ctxs[0].poll(pair["sa"])
                results.append(wc.data)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert results == [0, 10, 20, 30]

    def test_intra_node_faster_than_inter_node(self):
        rig = build_rig(npes=4, ppn=2)  # ranks 0,1 on node0; 2,3 on node1
        intra = _connect_pair(rig, 0, 1)
        t0 = rig.sim.now

        def time_put(pair, ctx):
            marks = {}

            def proc(sim):
                start = sim.now
                yield from ctx.post_rdma_write(pair["qa"], b"z" * 1024, region.addr, region.rkey)
                yield from ctx.poll(pair["sa"])
                marks["dt"] = sim.now - start

            return proc, marks

        # intra-node timing
        ctx1 = rig.ctxs[1]
        holder = {}

        def setup1(sim):
            addr = ctx1.mm.alloc(2048)
            holder["r"] = yield from ctx1.reg_mr(addr)

        spawn(rig.sim, setup1(rig.sim))
        rig.sim.run()
        region = holder["r"]
        proc, intra_marks = time_put(intra, rig.ctxs[0])
        spawn(rig.sim, proc(rig.sim))
        rig.sim.run()

        inter = _connect_pair(rig, 0, 2)
        ctx2 = rig.ctxs[2]
        holder2 = {}

        def setup2(sim):
            addr = ctx2.mm.alloc(2048)
            holder2["r"] = yield from ctx2.reg_mr(addr)

        spawn(rig.sim, setup2(rig.sim))
        rig.sim.run()
        region = holder2["r"]
        proc2, inter_marks = time_put(inter, rig.ctxs[0])
        spawn(rig.sim, proc2(rig.sim))
        rig.sim.run()

        assert intra_marks["dt"] < inter_marks["dt"]


class TestQPCache:
    def test_cache_misses_counted_when_working_set_exceeds_capacity(self):
        from repro.cluster import CostModel

        cost = CostModel().evolve(
            qp_cache_entries=2, ud_loss_prob=0.0, ud_duplicate_prob=0.0
        )
        rig = build_rig(npes=8, ppn=1, cost=cost)
        pairs = [_connect_pair(rig, 0, b) for b in range(1, 8)]
        rig.counters.reset()

        def proc(sim):
            for _ in range(3):
                for pair in pairs:
                    yield from rig.ctxs[0].post_send(pair["qa"], b"x", 1)
                    yield from rig.ctxs[0].poll(pair["sa"])

        spawn(rig.sim, proc(rig.sim))
        rig.sim.run()
        # 7 QPs cycled through a 2-entry cache: every round re-misses on
        # the initiator HCA (no steady state), i.e. >= 7 misses/round.
        assert rig.counters["hca.qp_cache_misses"] >= 3 * 7

    def test_small_working_set_hits_after_warmup(self, rig2):
        pair = _connect_pair(rig2)
        rig2.counters.reset()

        def proc(sim):
            for _ in range(5):
                yield from rig2.ctxs[0].post_send(pair["qa"], b"x", 1)
                yield from rig2.ctxs[0].poll(pair["sa"])

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert rig2.counters["hca.qp_cache_hits"] > rig2.counters["hca.qp_cache_misses"]


class TestBulkAccounting:
    def test_bulk_charge_matches_individual_costs(self):
        riga = build_rig(npes=2, ppn=1)
        rigb = build_rig(npes=2, ppn=1)
        cost = riga.cluster.cost

        def bulk(sim):
            yield from riga.ctxs[0].bulk_charge_rc_qps(10, connect=True)

        def individual(sim):
            ctx = rigb.ctxs[0]
            for _ in range(10):
                s, r = ctx.create_cq(), ctx.create_cq()
                qp = yield from ctx.create_rc_qp(s, r)
                # time-equivalent transitions (remote irrelevant for timing)
                yield sim.timeout(
                    cost.qp_modify_init_us + cost.qp_modify_rtr_us + cost.qp_modify_rts_us
                )

        spawn(riga.sim, bulk(riga.sim))
        spawn(rigb.sim, individual(rigb.sim))
        ta = riga.sim.run()
        tb = rigb.sim.run()
        assert ta == pytest.approx(tb)
        assert riga.ctxs[0].rc_qps_created == 10
        assert riga.ctxs[0].connections_established == 10

    def test_prepaid_materialization_charges_nothing(self, rig2):
        ctx0, ctx1 = rig2.ctxs

        def proc(sim):
            yield from ctx0.bulk_charge_rc_qps(5, connect=True)
            t0 = sim.now
            s, r = ctx0.create_cq(), ctx0.create_cq()
            s1, r1 = ctx1.create_cq(), ctx1.create_cq()
            qb = yield from ctx1.create_rc_qp(s1, r1)
            t_mid = sim.now
            qa = yield from ctx0.create_rc_qp(s, r, prepaid=True)
            yield from ctx0.connect_rc_qp(qa, qb.address, prepaid=True)
            assert sim.now == t_mid  # prepaid path consumed no simulated time
            assert qa.state is QPState.RTS

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert ctx0.rc_qps_created == 5  # bulk only; prepaid not double counted
