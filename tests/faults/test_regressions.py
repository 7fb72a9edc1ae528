"""Regression tests for the handshake races and leaks this PR fixes.

Each test pins one bug the fault-injection campaign exposed; each
fails against the pre-fix code (the pre-fix behaviour is noted inline).
"""

import pytest

from repro.cluster import CostModel
from repro.errors import ConduitError
from repro.faults import FaultPlan, UDFault
from repro.gasnet.messages import ConnectRequest
from repro.ib.types import Opcode
from repro.sim import spawn

from ..gasnet.conftest import build_conduit_rig
from .conftest import build_ud_rig, ud_send


class TestRNRRedeliveryToDestroyedQP:
    def test_delayed_redelivery_is_dropped_not_fatal(self):
        """An RNR redelivery scheduled while the QP was INIT must be
        dropped when it fires after the QP was destroyed (collision
        loser tearing down its half-open QP).  Pre-fix: QPStateError
        crashed the whole simulation."""
        rig = build_ud_rig()
        ctx0, ctx1 = rig.ctxs

        def scenario():
            scq0, rcq0 = ctx0.create_cq(), ctx0.create_cq()
            scq1, rcq1 = ctx1.create_cq(), ctx1.create_cq()
            qp0 = yield from ctx0.create_rc_qp(scq0, rcq0)
            qp1 = yield from ctx1.create_rc_qp(scq1, rcq1)
            yield from ctx0.modify_init(qp0)
            yield from ctx0.modify_rtr(qp0, qp1.address)
            yield from ctx0.modify_rts(qp0)
            # Receiver parked in INIT: the incoming send triggers the
            # RNR retry path (redelivery in RNR_RETRY_US = 25us).
            yield from ctx1.modify_init(qp1)
            yield from ctx0.post_send(qp0, "hello", 32)
            yield 10.0       # after arrival, before the redelivery
            qp1.destroy()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()        # pre-fix: raises QPStateError here
        assert rig.counters["rc.rnr_retries"] >= 1
        assert rig.counters["rc.dropped_dead_qp"] == 1


class TestRetryAccounting:
    def test_counter_and_message_reflect_actual_sends(self):
        """With ud_max_retries=4 the client performs 4 sends (1 initial
        + 3 retransmissions) and then one grace wait.  Pre-fix the
        error claimed "4 retries" and connect_retries counted 5 —
        including the initial send and the send-free grace pass."""
        cost = CostModel().evolve(
            ud_loss_prob=1.0, ud_duplicate_prob=0.0,
            ud_max_retries=4, ud_retry_timeout_us=10.0,
        )
        rig = build_conduit_rig(npes=2, cost=cost)
        c0, _ = rig.conduits
        errors = []

        def pe0():
            try:
                yield from c0.am_send(1, "ping")
            except ConduitError as exc:
                errors.append(str(exc))

        spawn(rig.sim, pe0(), name="pe0")
        rig.sim.run()
        assert len(errors) == 1
        assert "4 sends" in errors[0]
        assert "3 retransmissions" in errors[0]
        assert rig.counters["conduit.connect_retries"] == 3
        assert rig.counters["conduit.connect_requests"] == 1


class TestServingEviction:
    COST = dict(ud_loss_prob=0.0, ud_duplicate_prob=0.0,
                ud_max_retries=3, ud_retry_timeout_us=200.0)

    def test_serving_cache_is_evicted_after_retry_window(self):
        """Pre-fix, every served peer left a ConnectReply (with its
        exchange payload) in its reply cache for the lifetime of the
        job."""
        rig = build_conduit_rig(npes=2, cost=CostModel().evolve(**self.COST))
        c0, c1 = rig.conduits
        got = []
        c1.register_handler("ping", lambda src, data: got.append(src))

        def pe0():
            yield from c0.am_send(1, "ping")

        spawn(rig.sim, pe0(), name="pe0")
        rig.sim.run()
        assert got == [0]
        assert c1._links[0].reply is None
        assert rig.counters["conduit.serving_evicted"] == 1

    def test_idempotent_retransmit_inside_window_then_silence(self):
        """Duplicate requests still get the cached reply while the
        client could legitimately be retransmitting; after the TTL the
        entry is gone and stale duplicates are ignored."""
        rig = build_conduit_rig(npes=2, cost=CostModel().evolve(**self.COST))
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)
        observed = {}

        def scenario():
            yield from c0.am_send(1, "ping")
            # The handshake itself may already have counted duplicate
            # requests (client retransmissions racing the serve);
            # measure our injected duplicates relative to that.
            observed["base"] = rig.counters["conduit.dup_requests"]
            dup = ConnectRequest(
                src_rank=0, rc_addr=c0._conns[1].qp.address, attempt=9
            )
            # In-window duplicate: server retransmits the cached reply.
            yield from c1._on_handshake(dup)
            observed["in_window"] = rig.counters["conduit.dup_requests"]
            yield 2000.0  # TTL = (3+1)*200us, long past it
            observed["serving_after_ttl"] = c1._links[0].reply
            # Stale duplicate after eviction: nothing to retransmit.
            yield from c1._on_handshake(dup)
            observed["after_ttl"] = rig.counters["conduit.dup_requests"]

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert observed["in_window"] == observed["base"] + 1
        assert observed["serving_after_ttl"] is None
        assert observed["after_ttl"] == observed["in_window"]
        # The retransmitted reply reached the (connected) client and
        # was dropped there as a duplicate — not treated as new.
        assert rig.counters["conduit.dup_replies"] >= 1


class TestRecvOpcodeAndDupDelay:
    def test_ud_completions_use_recv_opcode(self):
        """Pre-fix, UD receive completions carried Opcode.SEND."""
        rig = build_ud_rig()
        sender_wcs = []

        def sender():
            yield from ud_send(rig, 0, 1, "msg")
            sender_wcs.extend(rig.send_cqs[0].drain())

        spawn(rig.sim, sender(), name="sender")
        rig.sim.run()
        assert [p for p, _ in rig.arrivals[1]] == ["msg"]
        assert rig.recv_wcs[1][0].opcode is Opcode.RECV
        assert sender_wcs[0].opcode is Opcode.SEND

    def test_rc_completions_use_recv_opcode(self):
        rig = build_ud_rig()
        ctx0, ctx1 = rig.ctxs
        wcs = {}

        def scenario():
            scq0, rcq0 = ctx0.create_cq(), ctx0.create_cq()
            scq1, rcq1 = ctx1.create_cq(), ctx1.create_cq()
            qp0 = yield from ctx0.create_rc_qp(scq0, rcq0)
            qp1 = yield from ctx1.create_rc_qp(scq1, rcq1)
            yield from ctx0.connect_rc_qp(qp0, qp1.address)
            yield from ctx1.connect_rc_qp(qp1, qp0.address)
            yield from ctx0.post_send(qp0, "payload", 32)
            wcs["recv"] = yield rcq1.wait()
            wcs["ack"] = yield scq0.wait()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert wcs["recv"].opcode is Opcode.RECV
        assert wcs["recv"].data == "payload"
        assert wcs["ack"].opcode is Opcode.SEND

    @pytest.mark.parametrize("delay", [7.5, 1.25])
    def test_duplicate_delay_comes_from_cost_model(self, delay):
        """Pre-fix, the baseline duplicate's extra delay was a literal
        3.0 in the fabric regardless of the cost model."""
        cost = CostModel().evolve(
            ud_loss_prob=0.0, ud_duplicate_prob=1.0,
            ud_duplicate_delay_us=delay,
        )
        rig = build_ud_rig(cost=cost)
        spawn(rig.sim, ud_send(rig, 0, 1, "msg"), name="sender")
        rig.sim.run()
        got = rig.arrivals[1]
        assert [p for p, _ in got] == ["msg", "msg"]
        # The copies serialise back-to-back on the egress link, so the
        # observed gap is delay minus one 64B serialisation slot.
        assert got[1][1] - got[0][1] == pytest.approx(delay, abs=0.1)
        assert rig.counters["fabric.ud_duplicated"] == 1


class TestStaleReplyAfterEvict:
    @pytest.mark.parametrize("delay_us", [1_100.0, 1_200.0],
                             ids=["qp-being-built", "request-out"])
    def test_old_incarnation_reply_is_dropped(self, delay_us):
        """A duplicate of the first incarnation's ConnectReply, delayed
        past an evict, lands during the reconnect: while its QP is being
        built, or once its request is out.  It answers the old client
        QP, so it is stale.  Pre-fix it was accepted, the new QP went to
        RTR toward the peer's destroyed one, and the next AM failed with
        RemoteAccessError."""
        plan = FaultPlan(
            name="late-dup-reply",
            ud=(UDFault("duplicate", kind="ConnectReply", first_n=1,
                        delay_us=delay_us),),
        )
        rig = build_conduit_rig(npes=2, faults=plan, check=True)
        c0, c1 = rig.conduits
        pings = []
        c1.register_handler("ping", lambda src, data: pings.append(data))

        def scenario():
            yield from c0.am_send(1, "ping", data="first")
            yield from c0._disconnect(1, reason="test")
            yield from c0.am_send(1, "ping", data="second")

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert pings == ["first", "second"]
        assert rig.counters["faults.ud_duplicated"] == 1
        assert rig.counters["conduit.dup_replies"] == 1
        assert rig.counters["hca.nak_dead_qp"] == 0
        assert rig.check.violations == []
