"""Branch probes for ``RCQueuePair.handle``: one per QP state the
arrival path distinguishes, plus the requester-side error completions.

The data path tests RTR/RTS first; these pin what every other branch
does with a packet — retry it, drop it, or refuse it — and that a
remote-access failure at the target reaches the requester as an error
completion rather than an exception.
"""

import pytest

from repro.errors import QPStateError, VerbsError
from repro.ib import Opcode, QPState, WCStatus
from repro.ib.qp import RCQueuePair
from repro.ib.types import Packet
from repro.sim import spawn

from ..conftest import build_rig
from .test_qp_transport import _connect_pair


def _half_open(rig):
    """qp0 RTS towards qp1, which is still INIT (the RNR window)."""
    out = {}

    def proc(sim):
        ctx0, ctx1 = rig.ctxs
        scq0, rcq0 = ctx0.create_cq(), ctx0.create_cq()
        scq1, rcq1 = ctx1.create_cq(), ctx1.create_cq()
        qp0 = yield from ctx0.create_rc_qp(scq0, rcq0)
        qp1 = yield from ctx1.create_rc_qp(scq1, rcq1)
        yield from ctx0.connect_rc_qp(qp0, qp1.address)
        yield from ctx1.modify_init(qp1)
        out.update(qp0=qp0, qp1=qp1, scq0=scq0, rcq1=rcq1)

    spawn(rig.sim, proc(rig.sim))
    rig.sim.run()
    return out


def _send_packet(src, dst, token, payload=b"hi"):
    """A ``send`` from ``src`` to ``dst`` as the fabric would deliver it."""
    return Packet("send", dst.hca.lid, dst.qpn, src.hca.lid, src.qpn,
                  len(payload), payload, 0, 0, token, 0, 0)


class TestArrivalByState:
    def test_init_qp_counts_an_rnr_retry_and_redelivers_later(self):
        rig = build_rig(npes=2)
        pair = _half_open(rig)
        qp0, qp1 = pair["qp0"], pair["qp1"]
        token = qp0._track(5, Opcode.SEND)
        t0 = rig.sim.now
        qp1.handle(_send_packet(qp0, qp1, token))
        assert rig.counters["rc.rnr_retries"] == 1
        assert len(pair["rcq1"]) == 0
        # Ready before the retry fires: the redelivery is accepted.
        qp1.modify_to_rtr(qp0.address)
        got = []

        def receiver(sim):
            wc = yield pair["rcq1"].wait()
            got.append((sim.now, wc.opcode, wc.data))

        spawn(rig.sim, receiver(rig.sim))
        rig.sim.run()
        assert got == [(t0 + RCQueuePair.RNR_RETRY_US, Opcode.RECV, b"hi")]
        assert rig.counters["rc.rnr_retries"] == 1
        # ...and its ack retires the sender's WR.
        wc = pair["scq0"].poll()
        assert (wc.wr_id, wc.opcode, wc.status) == (
            5, Opcode.SEND, WCStatus.SUCCESS)
        assert qp0._pending == {}

    def test_error_qp_drops_the_packet(self):
        rig = build_rig(npes=2)
        pair = _half_open(rig)
        qp0, qp1 = pair["qp0"], pair["qp1"]
        qp1.destroy()
        assert qp1.state is QPState.ERROR
        assert rig.sim.pending_events == 0
        qp1.handle(_send_packet(qp0, qp1, token=1))
        assert rig.counters["rc.dropped_dead_qp"] == 1
        assert len(pair["rcq1"]) == 0
        assert rig.sim.pending_events == 0  # no retry, no reply

    def test_reset_qp_refuses_the_packet(self, rig2):
        ctx = rig2.ctxs[1]
        out = {}

        def proc(sim):
            out["qp"] = yield from ctx.create_rc_qp(ctx.create_cq(),
                                                   ctx.create_cq())

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        qp = out["qp"]
        assert qp.state is QPState.RESET
        with pytest.raises(QPStateError, match="got send while RESET"):
            qp.handle(_send_packet(qp, qp, token=1))

    def test_ack_with_unknown_token_is_refused(self, rig2):
        pair = _connect_pair(rig2)
        qa, qb = pair["qa"], pair["qb"]
        ack = Packet("ack", qa.hca.lid, qa.qpn, qb.hca.lid, qb.qpn, 16,
                     None, 0, 0, 424242, 0, 0)
        with pytest.raises(VerbsError, match="unmatched ack token=424242"):
            qa.handle(ack)
        assert len(pair["sa"]) == 0


class TestRemoteAccessErrorCompletion:
    @pytest.mark.parametrize("op", ["rdma_read", "atomic"])
    def test_deregistered_rkey_completes_with_an_error(self, rig2, op):
        pair = _connect_pair(rig2)
        ctx1 = rig2.ctxs[1]
        out = {}

        def proc(sim):
            region = yield from ctx1.reg_mr(ctx1.mm.alloc(64))
            yield from ctx1.dereg_mr(region)
            out["region"] = region

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        region = out["region"]
        qa = pair["qa"]
        if op == "rdma_read":
            qa.post_rdma_read(8, region.addr, region.rkey, wr_id=11)
            opcode = Opcode.RDMA_READ
        else:
            qa.post_atomic("fetch_add", region.addr, region.rkey,
                           swap_or_add=1, wr_id=11)
            opcode = Opcode.ATOMIC_FETCH_ADD
        rig2.sim.run()
        wc = pair["sa"].poll()
        assert (wc.wr_id, wc.opcode, wc.status, wc.byte_len) == (
            11, opcode, WCStatus.REMOTE_ACCESS_ERROR, 0)
        assert f"rkey {region.rkey:#x} revoked" in wc.data
        assert rig2.counters["rc.remote_access_naks"] == 1
        assert qa._pending == {}
