"""Finalize racing the handshake: drain/abort before teardown.

The seed's bug: ``shutdown`` swept ``_conns`` immediately, so a serve
still executing in the progress process (or a late/duplicate UD
request) could build an RC QP *after* the sweep — leaked half-open, or
leaked fully connected with nothing left to destroy it.  The fix closes
the conduit first (late requests are dropped), aborts held requests,
and drains in-flight client attempts and serves before the QP sweep.
"""

import pytest

from repro.check import CheckPlan, Sanitizer
from repro.cluster import CostModel
from repro.errors import ConduitError, InvariantViolation
from repro.faults import FaultPlan, UDFault
from repro.gasnet.messages import ConnectRequest
from repro.sim import spawn

from ..gasnet.conftest import build_conduit_rig

FAST_RETRY = dict(ud_loss_prob=0.0, ud_duplicate_prob=0.0,
                  ud_max_retries=3, ud_retry_timeout_us=200.0)


def _rc_qps_alive(rig):
    return [
        qp
        for ctx in rig.ctxs
        for qp in ctx.hca._qps.values()
        if getattr(qp, "is_rc", False)
    ]


class TestLateRequestDropped:
    def test_request_after_close_is_dropped_not_served(self):
        rig = build_conduit_rig(npes=2, check=CheckPlan(name="teardown"))
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)
        observed = {}

        def scenario():
            yield from c0.am_send(1, "ping")
            yield from c1.shutdown()
            observed["qps_after_close"] = len(rig.ctxs[1].hca._qps)
            # A delayed/duplicate ConnectRequest lands after teardown.
            late = ConnectRequest(src_rank=0, rc_addr=c0._conns[1].qp.address)
            yield from c1._on_handshake(late)

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert rig.counters["conduit.dropped_after_close"] == 1
        assert c1._conns == {}
        assert c1._links[0].reply is None
        # Nothing was built for the late request.
        assert len(rig.ctxs[1].hca._qps) == observed["qps_after_close"]
        # Dropping post-close traffic is the *fix*, not a violation.
        assert rig.check.violations == []

    def test_serve_after_close_trips_the_sanitizer_guard(self):
        """_do_serve's entry guard is the regression sentinel: if any
        future entry path reaches a serve on a closed conduit, the
        conduit auditor reports it at the first step."""
        rig = build_conduit_rig(npes=2, check=CheckPlan(name="teardown"))
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield from c1.shutdown()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        forged = ConnectRequest(src_rank=0, rc_addr=c0._conns[1].qp.address)
        gen = c1._do_serve(c1._links[0], forged)
        with pytest.raises(InvariantViolation) as ei:
            next(gen)
        assert ei.value.layer == "conduit"
        assert ei.value.invariant == "handshake.serve_after_close"


class TestShutdownDrainsActiveServes:
    def test_shutdown_waits_for_in_flight_serve_then_sweeps(self):
        """Pre-fix: shutdown returned while the serve was still building
        its RC QP; the serve then registered a connection nothing ever
        destroyed."""
        rig = build_conduit_rig(npes=2)
        c0, c1 = rig.conduits
        ctx0 = rig.ctxs[0]
        observed = {}

        def scenario():
            # A real half-built client on rank 0 for the serve to target.
            scq = ctx0.create_cq()
            qp0 = yield from ctx0.create_rc_qp(scq, c0._recv_cq)
            yield from ctx0.modify_init(qp0)
            req = ConnectRequest(src_rank=0, rc_addr=qp0.address)
            # The forged request stands for c0's own: record it as
            # sent, so the serve's reply is a stale copy there rather
            # than an unsolicited one.
            c0._link(1).requested = True
            spawn(rig.sim, c1._on_handshake(req), name="late-serve")
            yield 1.0  # the serve is now mid-handshake
            observed["serves_at_close"] = c1._active_serves
            yield from c1.shutdown()
            observed["serves_after_close"] = c1._active_serves
            observed["conns_after_close"] = dict(c1._conns)
            qp0.destroy()  # our forged client half

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert observed["serves_at_close"] == 1
        assert observed["serves_after_close"] == 0
        # The drained serve's connection was swept with the rest.
        assert observed["conns_after_close"] == {}
        assert _rc_qps_alive(rig) == []

    def test_held_requests_dropped_at_close(self):
        """A never-ready server holding requests must abort them at
        finalize, not serve them into the teardown."""
        cost = CostModel().evolve(**FAST_RETRY)
        rig = build_conduit_rig(npes=2, cost=cost, ready=False)
        c0, c1 = rig.conduits
        errors = []

        def scenario():
            try:
                yield from c0.am_send(1, "ping")
            except ConduitError as exc:
                errors.append(str(exc))
            yield from c1.shutdown()
            yield from c0.shutdown()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert len(errors) == 1  # the client's retry budget expired
        assert rig.counters["conduit.requests_held"] >= 1
        assert rig.counters["conduit.held_dropped_at_close"] >= 1
        assert c1._held_requests == []
        assert _rc_qps_alive(rig) == []


class TestFaultPlanRegression:
    def test_delayed_duplicate_lands_after_finalize_without_leaking(self):
        """A fault plan duplicates the first ConnectRequest with a delay
        far past the whole job: the copy arrives after both conduits
        finalized.  Pre-fix this could serve into the teardown; now the
        job ends with empty QP tables and a clean final audit."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="late-dup",
            ud=(UDFault("duplicate", delay_us=50_000.0, first_n=1),),
        )
        rig = build_conduit_rig(
            npes=2, cost=cost, faults=plan,
            check=CheckPlan(name="teardown", strict=False),
        )
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield from c0.shutdown()
            yield from c1.shutdown()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()   # runs past the duplicate's arrival
        assert rig.counters["faults.ud_duplicated"] == 1
        assert rig.counters["conduit.connections"] == 2  # original pair only
        for ctx in rig.ctxs:
            assert ctx.hca._qps == {}
        report = rig.check.final_audit(
            conduits=rig.conduits, pmi_clients=rig.pmi
        )
        assert report["violations"] == []
        assert report["stats"]["connect_requests_seen"] == 1


class TestStaticTeardown:
    def test_static_teardown_leaves_no_qps_or_conns(self):
        rig = build_conduit_rig(
            npes=2, mode="static", check=CheckPlan(name="static-teardown")
        )
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.wireup()
            yield from c1.wireup()
            yield from c0.am_send(1, "ping")
            yield from c0.teardown_charge()
            yield from c1.teardown_charge()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert c0._conns == {} and c1._conns == {}
        for c in rig.conduits:
            assert c._closed
        report = rig.check.final_audit(
            conduits=rig.conduits, pmi_clients=rig.pmi
        )
        assert [v["invariant"] for v in report["violations"]] == []


class TestServingTTLTimerAfterClose:
    def test_ttl_timer_firing_post_shutdown_is_inert(self):
        """The serving-cache TTL timer is scheduled at serve time and
        can fire long after finalize cleared the cache.  Pre-fix,
        _evict_serving ran unguarded on the closed conduit and bumped
        conduit.serving_evicted for an entry shutdown had already
        swept; the guard makes the late firing a no-op."""
        cost = CostModel().evolve(**FAST_RETRY)
        rig = build_conduit_rig(
            npes=2, cost=cost, check=CheckPlan(name="teardown")
        )
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)
        observed = {}

        def scenario():
            yield from c0.am_send(1, "ping")
            # The serve just cached its reply; its TTL timer (the full
            # client retry schedule) is pending.  Finalize beats it.
            observed["serving_at_close"] = c1._links[0].reply
            yield from c1.shutdown()
            yield from c0.shutdown()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()  # runs past the TTL firing on the closed conduit
        assert observed["serving_at_close"] is not None  # the timer had a target
        assert c1._links[0].reply is None
        assert rig.counters["conduit.serving_evicted"] == 0
        assert rig.check.violations == []


class TestChaosShutdown:
    def test_total_ud_blackout_senders_fail_and_finalize_completes(self):
        """Every UD datagram dropped: both concurrent senders burn
        their whole retry budget and raise; finalize must then run to
        completion (pre-fix, a wedged drain event left shutdown
        waiting forever) and leave nothing behind."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(name="blackout", ud=(UDFault("drop"),))
        rig = build_conduit_rig(
            npes=2, cost=cost, faults=plan,
            check=CheckPlan(name="chaos", strict=False),
        )
        c0, c1 = rig.conduits
        c0.register_handler("ping", lambda src, data: None)
        c1.register_handler("ping", lambda src, data: None)
        errors = []

        def sender(conduit, peer):
            try:
                yield from conduit.am_send(peer, "ping")
            except ConduitError as exc:
                errors.append((conduit.rank, str(exc)))

        def scenario():
            s0 = spawn(rig.sim, sender(c0, 1), name="s0")
            s1 = spawn(rig.sim, sender(c1, 0), name="s1")
            yield s0
            yield s1
            yield from c0.shutdown()
            yield from c1.shutdown()
            errors.append("finalized")

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert errors[-1] == "finalized"
        assert len(errors) == 3  # both senders errored, then finalize
        assert _rc_qps_alive(rig) == []
        assert c0._links[1].connect is None and c1._links[0].connect is None
        report = rig.check.final_audit(
            conduits=rig.conduits, pmi_clients=rig.pmi
        )
        assert report["violations"] == []

    def test_reply_blackout_serve_survives_to_finalize_sweep(self):
        """Replies all dropped: the server serves (and registers a
        connection) while the client never learns of it and errors
        out.  Finalize on the server must drain the serve and sweep
        the orphaned connection — the re-armed serves_drained event
        covers serves that re-enter after the drain loop last looked."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="reply-blackout",
            ud=(UDFault("drop", kind="ConnectReply"),),
        )
        rig = build_conduit_rig(
            npes=2, cost=cost, faults=plan,
            check=CheckPlan(name="chaos", strict=False),
        )
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)
        errors = []

        def scenario():
            try:
                yield from c0.am_send(1, "ping")
            except ConduitError as exc:
                errors.append(str(exc))
            yield from c0.shutdown()
            yield from c1.shutdown()

        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run()
        assert len(errors) == 1
        assert rig.counters["faults.ud_dropped"] >= 1
        # The server side did serve — and finalize swept its half.
        assert rig.counters["conduit.connections"] >= 1
        assert c1._conns == {} and c1._active_serves == 0
        assert _rc_qps_alive(rig) == []
        report = rig.check.final_audit(
            conduits=rig.conduits, pmi_clients=rig.pmi
        )
        assert report["violations"] == []
