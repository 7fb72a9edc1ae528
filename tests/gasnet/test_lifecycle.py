"""Connection lifecycle: idle eviction, drain handshake, reconnect.

Covers the retirement protocol (Fig. 4 run in reverse) the way
test_ondemand_protocol covers establishment: policy selection as a pure
function, reaper-driven eviction, transparent reconnect-after-evict,
the Disconnect/DisconnectAck retry-and-idempotence discipline under
fault plans, and both collision shapes (disconnect-vs-connect and
disconnect-vs-disconnect), launched as one wave and as one heap entry
per racer.
"""

import pytest

from repro.check import CheckPlan
from repro.cluster import CostModel
from repro.errors import ConfigError
from repro.faults import FaultPlan, UDFault
from repro.gasnet import LifecyclePolicy, select_victims
from repro.sim import spawn, spawn_batch

from ..conftest import both_wave_forms
from .conftest import build_conduit_rig

FAST_RETRY = dict(ud_loss_prob=0.0, ud_duplicate_prob=0.0,
                  ud_max_retries=3, ud_retry_timeout_us=200.0)

#: Tight reaper so tests evict within a few simulated ms.
FAST_REAP = LifecyclePolicy(idle_timeout_us=1_000.0, scan_interval_us=250.0)


def _rc_qps_alive(rig):
    return [
        qp
        for ctx in rig.ctxs
        for qp in ctx.hca._qps.values()
        if getattr(qp, "is_rc", False)
    ]


def _draining(conduit):
    """Peers whose connection is mid-drain on ``conduit``."""
    return {peer: link.drain for peer, link in conduit._links.items()
            if link.drain is not None}


def _drive(rig, gen, name="scenario", for_us=None):
    """Spawn and run.  With a policy installed the reaper ticks until
    shutdown, so ``sim.run()`` never drains — bound those runs with
    ``for_us`` (relative horizon)."""
    spawn(rig.sim, gen, name=name)
    if for_us is None:
        rig.sim.run()
    else:
        rig.sim.run(until=rig.sim.now + for_us)


# ----------------------------------------------------------------------
# policy object + victim selection (no simulator)
# ----------------------------------------------------------------------
class TestLifecyclePolicy:
    def test_defaults_round_trip(self):
        policy = LifecyclePolicy()
        assert policy.policy == "lru"
        assert LifecyclePolicy.from_dict(policy.as_dict()) == policy

    def test_validation(self):
        with pytest.raises(ConfigError, match="policy"):
            LifecyclePolicy(policy="mru")
        with pytest.raises(ConfigError, match="idle_timeout_us"):
            LifecyclePolicy(idle_timeout_us=0)
        with pytest.raises(ConfigError, match="scan_interval_us"):
            LifecyclePolicy(scan_interval_us=-1)
        with pytest.raises(ConfigError, match="max_connections"):
            LifecyclePolicy(max_connections=0)
        with pytest.raises(ConfigError, match="credits"):
            LifecyclePolicy(credits=0)
        with pytest.raises(ConfigError, match="drain_poll_us"):
            LifecyclePolicy(drain_poll_us=0)

    @pytest.mark.parametrize("field,value,message", [
        ("scan_interval_us", float("nan"), "finite and positive, got nan"),
        ("idle_timeout_us", float("nan"), "finite and positive, got nan"),
        ("drain_poll_us", float("inf"), "finite and positive, got inf"),
        ("scan_interval_us", "5", "finite and positive, got '5'"),
        ("credits", 2.5, "integer >= 1, got 2.5"),
        ("credits", True, "integer >= 1, got True"),
        ("max_connections", 1.5, "integer >= 1, got 1.5"),
        ("max_connections", "8", "integer >= 1, got '8'"),
    ])
    def test_rejects_bad_numbers_in_one_line(self, field, value, message):
        """A NaN scan interval would otherwise reach the event queue
        from the reaper; a string would raise a bare TypeError."""
        with pytest.raises(ConfigError,
                           match=f"LifecyclePolicy.{field} must be") as info:
            LifecyclePolicy(**{field: value})
        assert str(info.value).endswith(message)
        assert "\n" not in str(info.value)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown LifecyclePolicy"):
            LifecyclePolicy.from_dict({"ttl": 5})
        with pytest.raises(ConfigError, match="unknown LifecyclePolicy"):
            LifecyclePolicy.from_dict({"enabled": False})

    def test_lru_selects_only_expired_oldest_first(self):
        policy = LifecyclePolicy(idle_timeout_us=100.0)
        candidates = [(3, 950.0, 0), (1, 800.0, 0), (2, 890.0, 0)]
        assert select_victims(1000.0, candidates, policy) == [1, 2]

    def test_selection_ignores_iteration_order(self):
        policy = LifecyclePolicy(idle_timeout_us=100.0)
        a = [(5, 10.0, 0), (2, 20.0, 0), (9, 30.0, 0)]
        assert (select_victims(500.0, a, policy)
                == select_victims(500.0, list(reversed(a)), policy)
                == [5, 2, 9])

    def test_credit_selects_exhausted(self):
        policy = LifecyclePolicy(policy="credit")
        candidates = [(1, 800.0, 0), (2, 100.0, 2), (3, 900.0, 0)]
        assert select_victims(1000.0, candidates, policy) == [1, 3]

    def test_capacity_overflow_evicts_lru_extras(self):
        policy = LifecyclePolicy(idle_timeout_us=1e9, max_connections=2)
        candidates = [(1, 300.0, 0), (2, 100.0, 0), (3, 200.0, 0)]
        # Nothing idle-expired, but 3 survivors > cap 2: oldest goes.
        assert select_victims(1000.0, candidates, policy) == [2]


# ----------------------------------------------------------------------
# reaper-driven eviction + reconnect
# ----------------------------------------------------------------------
class TestIdleEviction:
    def test_idle_connection_is_reaped_on_both_sides(self):
        rig = build_conduit_rig(npes=2, lifecycle=FAST_REAP, check=True)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            assert 1 in c0._conns and 0 in c1._conns
            yield 5_000.0  # several idle_timeouts with no traffic

        _drive(rig, scenario(), for_us=20_000.0)
        assert c0._conns == {} and c1._conns == {}
        assert _draining(c0) == {} and _draining(c1) == {}
        assert _rc_qps_alive(rig) == []
        assert rig.counters["conduit.evictions"] >= 1
        assert rig.counters["conduit.evicted_by_peer"] >= 1
        assert rig.counters["conduit.disconnect_timeouts"] == 0
        assert rig.check.violations == []

    def test_reconnect_after_evict_is_transparent(self):
        rig = build_conduit_rig(npes=2, lifecycle=FAST_REAP, check=True)
        c0, c1 = rig.conduits
        pings = []
        c1.register_handler("ping", lambda src, data: pings.append(data))

        def scenario():
            yield from c0.am_send(1, "ping", data="first")
            yield 5_000.0  # reaper retires the pair
            assert 1 not in c0._conns
            yield from c0.am_send(1, "ping", data="second")

        _drive(rig, scenario(), for_us=30_000.0)
        assert pings == ["first", "second"]
        assert rig.counters["conduit.reconnects"] >= 1
        assert c0._links[1].gen == 2
        assert rig.check.violations == []

    def test_traffic_refreshes_idleness(self):
        """A connection touched every few hundred us never idles out."""
        rig = build_conduit_rig(npes=2, lifecycle=FAST_REAP)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            for _ in range(10):
                yield from c0.am_send(1, "ping")
                yield 400.0  # < idle_timeout_us
            # Still connected, and never evicted while traffic flowed.
            assert 1 in c0._conns
            assert rig.counters["conduit.evictions"] == 0

        _drive(rig, scenario(), for_us=20_000.0)

    def test_capacity_cap_evicts_down_to_limit(self):
        policy = LifecyclePolicy(idle_timeout_us=1e9, scan_interval_us=250.0,
                                 max_connections=1)
        rig = build_conduit_rig(npes=3, lifecycle=policy)
        c0, c1, c2 = rig.conduits
        for c in (c1, c2):
            c.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield from c0.am_send(2, "ping")
            assert len(c0._conns) == 2
            yield 2_000.0  # a few scans

        _drive(rig, scenario(), for_us=20_000.0)
        # Oldest (peer 1) evicted; the cap holds at steady state.
        assert list(c0._conns) == [2]
        assert rig.counters["conduit.evictions"] >= 1

    def test_credit_policy_spares_the_hot_peer(self):
        policy = LifecyclePolicy(policy="credit", credits=2,
                                 scan_interval_us=250.0)
        rig = build_conduit_rig(npes=3, lifecycle=policy)
        c0, c1, c2 = rig.conduits
        for c in (c1, c2):
            c.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield from c0.am_send(2, "ping")
            for _ in range(10):  # keep peer 1 hot; let peer 2 starve
                yield from c0.am_send(1, "ping")
                yield 200.0
            assert 1 in c0._conns and 2 not in c0._conns

        _drive(rig, scenario(), for_us=20_000.0)
        assert rig.counters["conduit.evictions"] >= 1


# ----------------------------------------------------------------------
# drain handshake discipline under fault plans
# ----------------------------------------------------------------------
class TestDrainHandshakeFaults:
    def test_dropped_disconnect_is_retransmitted(self):
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="drop-disc",
            ud=(UDFault("drop", kind="Disconnect", first_n=2),),
        )
        rig = build_conduit_rig(npes=2, cost=cost, faults=plan,
                                lifecycle=FAST_REAP, check=True)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield 8_000.0

        _drive(rig, scenario(), for_us=30_000.0)
        assert rig.counters["faults.ud_dropped"] == 2
        assert rig.counters["conduit.disconnect_retries"] >= 1
        assert c0._conns == {} and c1._conns == {}
        assert _rc_qps_alive(rig) == []
        assert rig.check.violations == []

    def test_dropped_ack_reuses_cached_idempotent_ack(self):
        """Losing DisconnectAcks forces Disconnect retransmissions; the
        target re-acks from its cache instead of re-draining."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="drop-disc-ack",
            ud=(UDFault("drop", kind="DisconnectAck", first_n=2),),
        )
        rig = build_conduit_rig(npes=2, cost=cost, faults=plan,
                                lifecycle=FAST_REAP, check=True)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield 8_000.0

        _drive(rig, scenario(), for_us=30_000.0)
        assert rig.counters["faults.ud_dropped"] == 2
        # The retransmitted Disconnects hit an already-draining / drained
        # target: answered idempotently, never double-destroyed.
        assert rig.counters["conduit.dup_disconnects"] >= 1
        assert rig.counters["conduit.evicted_by_peer"] == 1
        assert c0._conns == {} and c1._conns == {}
        assert _rc_qps_alive(rig) == []
        assert rig.check.violations == []

    def test_every_ack_lost_destroys_unilaterally_then_reconnects(self):
        """No DisconnectAck ever arrives: each initiator spends its
        retry budget, destroys its half on its own, and the next send
        reconnects transparently."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="no-disc-acks",
            ud=(UDFault("drop", kind="DisconnectAck"),),
        )
        rig = build_conduit_rig(npes=2, cost=cost, faults=plan,
                                lifecycle=FAST_REAP, check=True)
        c0, c1 = rig.conduits
        pings = []
        c1.register_handler("ping", lambda src, data: pings.append(data))

        def scenario():
            yield from c0.am_send(1, "ping", data="first")
            yield 8_000.0  # reaped, with every ack dropped
            assert c0._conns == {} and c1._conns == {}
            yield from c0.am_send(1, "ping", data="second")
            yield 8_000.0  # and reaped again

        _drive(rig, scenario(), for_us=30_000.0)
        assert pings == ["first", "second"]
        assert rig.counters["conduit.reconnects"] >= 1
        assert rig.counters["conduit.disconnect_timeouts"] == 2
        assert rig.counters["conduit.evictions"] == 2
        assert _draining(c0) == {} and _draining(c1) == {}
        assert _rc_qps_alive(rig) == []
        assert rig.check.violations == []

    def test_kind_scoping_leaves_other_datagrams_alone(self):
        """A kind-scoped rule must not touch the establish handshake."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="only-disc-acks",
            ud=(UDFault("drop", kind="DisconnectAck"),),
        )
        rig = build_conduit_rig(npes=2, cost=cost, faults=plan)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")

        _drive(rig, scenario())
        # Establishment saw no drops at all (rule never matched).
        assert rig.counters["faults.ud_dropped"] == 0
        assert 1 in c0._conns


# ----------------------------------------------------------------------
# collisions (racers launched as a wave and as separate heap entries)
# ----------------------------------------------------------------------
@both_wave_forms
@pytest.mark.usefixtures("event_waves")
class TestCollisions:
    def test_connect_request_during_drain_is_parked(self):
        """Disconnect-vs-ConnectRequest collision: PE 1 drains the pair
        but its DisconnectAck from PE 0 is lost, so PE 1 keeps
        retrying; PE 0 (its half already quiesced and gone) reconnects
        immediately, and that ConnectRequest lands while PE 1 is still
        mid-drain.  The drain wins — the request parks and is served
        fresh once the drain completes."""
        cost = CostModel().evolve(**FAST_RETRY)
        plan = FaultPlan(
            name="late-ack",
            ud=(UDFault("drop", kind="DisconnectAck", first_n=1),),
        )
        rig = build_conduit_rig(npes=2, cost=cost, faults=plan,
                                check=True)
        c0, c1 = rig.conduits
        pings = []
        c1.register_handler("ping", lambda src, data: pings.append(data))

        def warmup():
            yield from c0.am_send(1, "ping", data="warmup")

        _drive(rig, warmup(), name="warmup")

        def race():
            # Reconnect the instant our half of the drain is gone —
            # while the initiator, still waiting for its lost ack, has
            # the pair mid-drain.
            while 1 in c0._conns or 1 in _draining(c0):
                yield 10.0
            yield from c0.am_send(1, "ping", data="raced")

        spawn_batch(rig.sim, [(c1._disconnect(0, reason="test"), "drain"),
                              (race(), "race")])
        rig.sim.run()

        assert pings == ["warmup", "raced"]
        assert rig.counters["faults.ud_dropped"] == 1
        # The lost ack forced a Disconnect retransmission, answered
        # from the target's ack cache — no drain timeout.
        assert rig.counters["conduit.disconnect_retries"] >= 1
        assert rig.counters["conduit.dup_disconnects"] >= 1
        assert rig.counters["conduit.disconnect_timeouts"] == 0
        # The raced ConnectRequest parked behind the drain, then the
        # pair re-established as a fresh generation.
        assert rig.counters["conduit.requests_during_drain"] >= 1
        assert _draining(c0) == {} and _draining(c1) == {}
        assert 1 in c0._conns and 0 in c1._conns
        assert c0._links[1].gen == 2 and c1._links[0].gen == 2
        assert rig.check.violations == []

    def test_disconnect_disconnect_collision_lower_rank_wins(self):
        cost = CostModel().evolve(**FAST_RETRY)
        rig = build_conduit_rig(npes=2, cost=cost, check=True)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def warmup():
            yield from c0.am_send(1, "ping")

        _drive(rig, warmup(), name="warmup")

        spawn_batch(rig.sim, [(c0._disconnect(1, reason="test"), "d0"),
                              (c1._disconnect(0, reason="test"), "d1")])
        rig.sim.run()

        assert rig.counters["conduit.disconnect_collisions"] >= 1
        assert c0._conns == {} and c1._conns == {}
        assert _draining(c0) == {} and _draining(c1) == {}
        assert _rc_qps_alive(rig) == []
        # Exactly one pair was torn down, once.
        assert rig.counters["conduit.evictions"] == 2
        assert rig.counters["conduit.disconnect_timeouts"] == 0
        assert rig.check.violations == []

        # The pair is reusable afterwards.
        def reconnect():
            yield from c0.am_send(1, "ping")

        _drive(rig, reconnect(), name="reconnect")
        assert 1 in c0._conns and rig.counters["conduit.reconnects"] >= 1


# ----------------------------------------------------------------------
# shutdown interactions
# ----------------------------------------------------------------------
class TestShutdownWithLifecycle:
    def test_shutdown_waits_out_inflight_drain(self):
        """Finalize arriving mid-drain must wait for the handshake, not
        sweep a connection whose QP the drain is about to destroy."""
        cost = CostModel().evolve(**FAST_RETRY)
        rig = build_conduit_rig(npes=2, cost=cost, lifecycle=FAST_REAP,
                                check=True)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            spawn(rig.sim, c0._disconnect(1, reason="test"), name="drain")
            yield 1.0  # the drain is now mid-handshake
            yield from c0.shutdown()
            yield from c1.shutdown()

        _drive(rig, scenario())
        assert c0._closed and _draining(c0) == {}
        assert _rc_qps_alive(rig) == []
        assert rig.check.violations == []

    def test_reaper_stops_after_shutdown(self):
        rig = build_conduit_rig(npes=2, lifecycle=FAST_REAP)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield from c0.shutdown()
            yield from c1.shutdown()

        _drive(rig, scenario())
        before = dict(rig.counters.as_dict())
        rig.sim.run()  # drain any leftover reaper ticks
        assert rig.counters.as_dict() == before
