"""Unit and integration tests for the PMI substrate."""

import pytest

from repro.cluster import Cluster, CostModel
from repro.errors import PMIError
from repro.pmi import KeyValueStore, PMIClient, PMIDomain
from repro.sim import Counters, Simulator, spawn


def make_domain(npes=4, ppn=2, **cost_overrides):
    cost = CostModel().evolve(**cost_overrides)
    sim = Simulator()
    cluster = Cluster(npes=npes, ppn=ppn, cost=cost, name="t")
    domain = PMIDomain(sim, cluster, Counters())
    clients = [PMIClient(domain, r) for r in range(npes)]
    return sim, domain, clients


class TestKVS:
    def test_get_before_commit_fails(self):
        kvs = KeyValueStore()
        with pytest.raises(PMIError):
            kvs.get("missing")

    def test_commit_makes_visible_and_bumps_epoch(self):
        kvs = KeyValueStore()
        kvs.commit({"a": 1, "b": 2})
        assert kvs.get("a") == 1
        assert kvs.epoch == 1
        assert len(kvs) == 2

    def test_duplicate_commit_rejected(self):
        kvs = KeyValueStore()
        kvs.commit({"a": 1})
        with pytest.raises(PMIError):
            kvs.commit({"a": 2})

    def test_get_many_order(self):
        kvs = KeyValueStore()
        kvs.commit({"x": 1, "y": 2, "z": 3})
        assert kvs.get_many(["z", "x"]) == [3, 1]


class TestPutFenceGet:
    def test_put_fence_get_visibility(self):
        sim, domain, clients = make_domain()
        results = {}

        def pe(sim, client):
            yield from client.put(f"ep-{client.rank}", client.rank * 100)
            yield from client.fence()
            vals = []
            for r in range(4):
                vals.append((yield from client.get(f"ep-{r}")))
            results[client.rank] = vals

        for c in clients:
            spawn(sim, pe(sim, c), name=f"pe{c.rank}")
        sim.run()
        assert all(results[r] == [0, 100, 200, 300] for r in range(4))

    def test_get_before_fence_fails(self):
        sim, domain, clients = make_domain()
        failures = []

        def pe0(sim):
            yield from clients[0].put("k", 1)
            try:
                yield from clients[0].get("k")
            except PMIError:
                failures.append(True)

        spawn(sim, pe0(sim))
        sim.run()
        assert failures == [True]

    def test_duplicate_put_rejected(self):
        sim, domain, clients = make_domain()

        def pe0(sim):
            yield from clients[0].put("k", 1)
            with pytest.raises(PMIError):
                yield from clients[0].put("k", 2)

        spawn(sim, pe0(sim))
        sim.run()

    def test_fence_synchronizes_all_ranks(self):
        sim, domain, clients = make_domain(npes=6, ppn=2)
        release = {}

        def pe(sim, client, delay):
            yield sim.timeout(delay)
            yield from client.fence()
            release[client.rank] = sim.now

        for i, c in enumerate(clients):
            spawn(sim, pe(sim, c, delay=float(i * 50)), name=f"pe{c.rank}")
        sim.run()
        times = list(release.values())
        # nobody is released before the last arrival at t=250
        assert min(times) >= 250.0
        # all released within one local RTT + daemon slop of each other
        assert max(times) - min(times) < 200.0

    def test_two_fences_in_sequence(self):
        sim, domain, clients = make_domain()
        log = []

        def pe(sim, client):
            yield from client.put(f"a-{client.rank}", 1)
            yield from client.fence()
            yield from client.put(f"b-{client.rank}", 2)
            yield from client.fence()
            log.append((yield from client.get(f"b-{(client.rank + 1) % 4}")))

        for c in clients:
            spawn(sim, pe(sim, c))
        sim.run()
        assert log == [2, 2, 2, 2]

    def test_get_many_matches_individual_gets(self):
        sim, domain, clients = make_domain()
        out = {}

        def pe(sim, client):
            yield from client.put(f"k-{client.rank}", client.rank)
            yield from client.fence()
            out[client.rank] = yield from client.get_many(
                [f"k-{r}" for r in range(4)]
            )

        for c in clients:
            spawn(sim, pe(sim, c))
        sim.run()
        assert out[2] == [0, 1, 2, 3]


class TestIallgather:
    def test_iallgather_collects_all_values(self):
        sim, domain, clients = make_domain(npes=8, ppn=2)
        out = {}

        def pe(sim, client):
            handle = client.iallgather(f"v{client.rank}")
            result = yield handle.wait()
            out[client.rank] = result

        for c in clients:
            spawn(sim, pe(sim, c))
        sim.run()
        expected = {r: f"v{r}" for r in range(8)}
        assert all(out[r] == expected for r in range(8))

    def test_iallgather_overlaps_with_work(self):
        """The whole point: work proceeds while the allgather runs."""
        sim, domain, clients = make_domain(npes=8, ppn=2)
        overlap_work_done_at = {}
        gather_done_at = {}

        def pe(sim, client):
            handle = client.iallgather(client.rank)
            yield sim.timeout(5.0)  # independent work, e.g. memory registration
            overlap_work_done_at[client.rank] = sim.now
            yield handle.wait()
            gather_done_at[client.rank] = sim.now

        for c in clients:
            spawn(sim, pe(sim, c))
        sim.run()
        # Work finished strictly before the collective for every rank:
        # the non-blocking call did not serialize them.
        for r in range(8):
            assert overlap_work_done_at[r] <= gather_done_at[r]
            assert overlap_work_done_at[r] == pytest.approx(5.0, abs=1.0)

    def test_handle_done_flag(self):
        sim, domain, clients = make_domain(npes=2, ppn=2)
        flags = []

        def pe(sim, client):
            handle = client.iallgather(client.rank)
            flags.append(handle.done)
            yield handle.wait()
            flags.append(handle.done)

        for c in clients:
            spawn(sim, pe(sim, c))
        sim.run()
        assert flags[0] is False and flags[-1] is True

    def test_late_contributor_gets_result_immediately(self):
        sim, domain, clients = make_domain(npes=2, ppn=2)
        out = {}

        def early(sim, client):
            handle = client.iallgather(client.rank)
            out["early"] = yield handle.wait()

        def late(sim, client):
            yield sim.timeout(500.0)
            handle = client.iallgather(client.rank)
            out["late"] = yield handle.wait()

        spawn(sim, early(sim, clients[0]))
        spawn(sim, late(sim, clients[1]))
        sim.run()
        assert out["early"] == out["late"] == {0: 0, 1: 1}


class TestFenceScaling:
    def _fence_time(self, npes, ppn=16):
        sim, domain, clients = make_domain(npes=npes, ppn=ppn)
        done = []

        def pe(sim, client):
            yield from client.put(f"k-{client.rank}", b"x" * 48)
            yield from client.fence()
            done.append(sim.now)

        for c in clients:
            spawn(sim, pe(sim, c))
        sim.run()
        return max(done)

    def test_fence_cost_grows_with_job_size(self):
        t64 = self._fence_time(64)
        t256 = self._fence_time(256)
        t1024 = self._fence_time(1024)
        assert t64 < t256 < t1024
        # Growth is dominated by full-KVS dissemination: superlinear in
        # entries per hop, so 16x the PEs costs clearly more than 4x.
        assert t1024 / t64 > 4.0

    def test_fence_message_sizes_follow_the_staged_entry_sums(self):
        # 14 ranks on 7 nodes: a three-level binary daemon tree.  Every
        # tree message must carry the entries its payload sums to (at
        # least one): None counts as nothing staged, and node 6's
        # subtree stages nothing at all.
        sim, domain, _ = make_domain(npes=14, ppn=2, pmi_tree_fanout=2)
        staged = {0: 3, 1: None, 2: 0, 3: 5, 4: None, 5: 2, 6: 1,
                  7: None, 8: 4, 9: 0, 10: 7, 11: 1, 12: None, 13: 0}
        sent = []
        tree_send = domain._tree_send

        def record(src, dst, entries, fn, when):
            sent.append((src.node, dst.node, entries))
            tree_send(src, dst, entries, fn, when)

        domain._tree_send = record
        for rank, value in staged.items():
            domain.daemon_of(rank).local_contribution(
                "fence:0", rank, value, 0.0)
        sim.run()

        def old_sum(payload):
            return max(1, sum(int(v or 0) for v in payload.values()))

        total = old_sum(domain.daemons[0].coll("fence:0").payload)
        assert total == sum(v or 0 for v in staged.values())
        expected = []
        for src, dst, _ in sent:
            if domain.daemons[src].parent == dst:  # up: the subtree's sum
                expected.append(old_sum(domain.daemons[src].coll(
                    "fence:0").payload))
            else:  # down: the whole fence's sum
                expected.append(total)
        assert [entries for _, _, entries in sent] == expected
        assert (6, 2, 1) in sent
        assert len(sent) == 2 * (len(domain.daemons) - 1)
