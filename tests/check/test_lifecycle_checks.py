"""Lifecycle-layer sanitizer: eviction and reconnect invariants.

Two invariants guard the drain protocol: a QP must never be destroyed
with WRs still in flight (the quiesce is the whole point of the
handshake), and an eviction policy must not thrash — N reconnects of
the same (rank, peer) pair inside a short window means the policy is
evicting a hot connection over and over.
"""

import pytest

from repro.apps import ChurnWorkload
from repro.check import CheckPlan, Sanitizer
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.errors import InvariantViolation
from repro.gasnet import LifecyclePolicy
from repro.sim import Simulator

from ..gasnet.conftest import build_conduit_rig

FAST_REAP = LifecyclePolicy(idle_timeout_us=1_000.0, scan_interval_us=250.0)


class TestEvictInvariant:
    def test_evict_with_outstanding_wrs_is_violated(self):
        san = Sanitizer(CheckPlan(name="lc"), Simulator())
        with pytest.raises(InvariantViolation) as ei:
            san.on_evict(3, 7, outstanding_wrs=2)
        assert ei.value.layer == "lifecycle"
        assert ei.value.invariant == "lifecycle.evict_with_outstanding_wrs"
        assert ei.value.rank == 3

    def test_clean_evict_counts_without_violating(self):
        san = Sanitizer(CheckPlan(name="lc"), Simulator())
        san.on_evict(0, 1, outstanding_wrs=0)
        san.on_evict(1, 0, outstanding_wrs=0)
        assert san.violations == []
        assert san.report()["stats"]["evictions"] == 2

    def test_layer_off_is_inert(self):
        san = Sanitizer(CheckPlan(name="lc", lifecycle=False), Simulator())
        san.on_evict(0, 1, outstanding_wrs=5)
        san.on_reconnect(0, 1)
        assert san.violations == []
        assert san.report()["stats"]["evictions"] == 0
        assert san.report()["stats"]["reconnects"] == 0


class TestReconnectStorm:
    def test_storm_within_window_is_violated(self):
        sim = Simulator()
        san = Sanitizer(CheckPlan(name="lc", strict=False), sim)
        for _ in range(Sanitizer.RECONNECT_STORM_N):
            san.on_reconnect(0, 1)
        assert [v.invariant for v in san.violations] == [
            "lifecycle.reconnect_storm"
        ]

    def test_spaced_reconnects_do_not_trip(self):
        sim = Simulator()
        san = Sanitizer(CheckPlan(name="lc"), sim)
        gap = Sanitizer.RECONNECT_STORM_WINDOW_US * 2
        for _ in range(Sanitizer.RECONNECT_STORM_N * 2):
            san.on_reconnect(0, 1)
            sim.run(until=sim.now + gap)  # slide past the window
        assert san.violations == []
        assert san.report()["stats"]["reconnects"] == (
            Sanitizer.RECONNECT_STORM_N * 2
        )

    def test_distinct_pairs_do_not_pool(self):
        """The window is per (rank, peer): many pairs reconnecting once
        each is churn, not a storm."""
        san = Sanitizer(CheckPlan(name="lc"), Simulator())
        for peer in range(Sanitizer.RECONNECT_STORM_N * 2):
            san.on_reconnect(0, peer)
        assert san.violations == []


class TestRigIntegration:
    def test_eviction_and_reconnect_feed_the_auditor(self):
        rig = build_conduit_rig(npes=2, lifecycle=FAST_REAP, check=True)
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)

        def scenario():
            yield from c0.am_send(1, "ping")
            yield 5_000.0  # reaped
            yield from c0.am_send(1, "ping")  # transparent reconnect

        from repro.sim import spawn
        spawn(rig.sim, scenario(), name="scenario")
        rig.sim.run(until=rig.sim.now + 30_000.0)
        stats = rig.check.report()["stats"]
        assert stats["evictions"] >= 2  # both halves, at least once
        assert stats["reconnects"] >= 1
        assert rig.check.violations == []


class TestStrictChurnJob:
    def test_churn_epoch_under_strict_checking_is_clean(self):
        """A churn workload with eviction on, strict-checked end to
        end: the drain protocol must produce zero violations while
        actually evicting and reconnecting."""
        app = ChurnWorkload(epochs=3, partners=2, requests=2,
                            payload_bytes=256)
        policy = LifecyclePolicy(idle_timeout_us=20_000.0,
                                 scan_interval_us=5_000.0)
        job = Job(
            npes=16,
            config=RuntimeConfig.proposed(lifecycle=policy, check=True),
            cluster=cluster_a(16, ppn=4),
        )
        res = job.run(app)
        assert res.check is not None
        assert res.check["strict"] is True
        assert res.check["violations"] == []
        stats = res.check["stats"]
        assert stats["evictions"] > 0
        assert stats["reconnects"] > 0
