"""Application-level integration tests (real results, both modes)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import (
    Graph500Hybrid,
    Heat2D,
    HelloWorld,
    NasBT,
    NasEP,
    NasMG,
    NasSP,
    kronecker_edges,
    process_grid,
    solve_heat_serial,
)
from repro.apps import graph500
from repro.apps.nas import grid_2d, grid_3d
from repro.core import Job, RuntimeConfig


def run_app(app, npes=16, config=None, backing=512):
    config = config or RuntimeConfig.proposed(heap_backing_kb=backing)
    return Job(npes=npes, config=config).run(app)


class TestHello:
    def test_every_pe_reports(self):
        result = run_app(HelloWorld(), npes=8)
        assert result.app_results[3] == "Hello from PE 3 of 8"
        assert len(result.app_results) == 8


class TestGrids:
    def test_process_grid_factorizations(self):
        assert process_grid(16) == (4, 4)
        assert process_grid(8) == (2, 4)
        assert process_grid(7) == (1, 7)

    def test_grid_3d(self):
        for n in (8, 16, 64, 12):
            px, py, pz = grid_3d(n)
            assert px * py * pz == n

    def test_grid_2d_matches_process_grid(self):
        for n in (4, 6, 36):
            assert grid_2d(n) == process_grid(n)


class TestHeat2D:
    @pytest.mark.parametrize("npes,n,iters", [(4, 8, 3), (16, 32, 10)])
    def test_matches_serial_jacobi(self, npes, n, iters):
        result = run_app(Heat2D(n=n, iters=iters, check_every=0), npes=npes)
        ref = solve_heat_serial(n, iters)
        for res in result.app_results:
            br, bc = res["block_shape"]
            mr, mc = res["coords"]
            expected = ref[1 + mr * br:1 + (mr + 1) * br,
                           1 + mc * bc:1 + (mc + 1) * bc]
            assert np.allclose(res["block"], expected)

    def test_same_result_in_both_connection_modes(self):
        app = Heat2D(n=16, iters=5, check_every=0)
        r1 = run_app(app, npes=4,
                     config=RuntimeConfig.proposed(heap_backing_kb=512))
        r2 = run_app(Heat2D(n=16, iters=5, check_every=0), npes=4,
                     config=RuntimeConfig.current(heap_backing_kb=512))
        for a, b in zip(r1.app_results, r2.app_results):
            assert np.allclose(a["block"], b["block"])

    def test_small_peer_footprint(self):
        result = run_app(Heat2D(n=32, iters=6, check_every=0), npes=16)
        # 4 stencil neighbours + <=3 barrier-tree peers.
        assert result.resources.mean_active_peers <= 7.5

    def test_grid_mismatch_raises(self):
        with pytest.raises(Exception):
            run_app(Heat2D(n=7, iters=2), npes=4)


class TestNasEP:
    def test_reduction_is_consistent_everywhere(self):
        result = run_app(NasEP("S", real_pairs=400), npes=8)
        first = result.app_results[0]
        for res in result.app_results[1:]:
            assert res["sx"] == pytest.approx(first["sx"])
            assert res["counts"] == first["counts"]

    def test_counts_reflect_all_pes(self):
        r8 = run_app(NasEP("S", real_pairs=300), npes=8)
        r2 = run_app(NasEP("S", real_pairs=300), npes=2)
        assert sum(r8.app_results[0]["counts"]) > sum(
            r2.app_results[0]["counts"]
        ) * 2  # 4x the PEs -> more accepted samples in the global tally

    def test_lowest_peer_count_of_nas_suite(self):
        rep = run_app(NasEP("S", real_pairs=100), npes=16)
        rbt = run_app(NasBT("S", iters=2), npes=16)
        assert rep.resources.mean_active_peers < rbt.resources.mean_active_peers


class TestNasKernels:
    @pytest.mark.parametrize("cls", [NasBT, NasSP])
    def test_adi_runs_and_reduces(self, cls):
        result = run_app(cls("S", iters=2), npes=16)
        checks = {res["checksum"] for res in result.app_results}
        assert len(checks) == 1  # global reduction agreed everywhere

    def test_mg_global_checksum_agrees(self):
        result = run_app(NasMG("S", iters=2, levels=3), npes=16)
        totals = {res["checksum_global"] for res in result.app_results}
        assert len(totals) == 1

    def test_mg_touches_more_peers_than_heat(self):
        rmg = run_app(NasMG("S", iters=2, levels=3), npes=64)
        rheat = run_app(Heat2D(n=64, iters=4, check_every=0), npes=64)
        assert (
            rmg.resources.mean_active_peers
            > rheat.resources.mean_active_peers
        )


class TestKronecker:
    def test_edge_count_and_range(self):
        edges = kronecker_edges(scale=8, edgefactor=4)
        assert edges.shape == (4 * 256, 2)
        assert edges.min() >= 0 and edges.max() < 256

    def test_deterministic(self):
        a = kronecker_edges(6, 4, seed=1)
        b = kronecker_edges(6, 4, seed=1)
        assert (a == b).all()
        c = kronecker_edges(6, 4, seed=2)
        assert not (a == c).all()

    def test_skewed_degrees(self):
        edges = kronecker_edges(10, 16)
        deg = np.bincount(edges.ravel())
        # R-MAT graphs are heavy-tailed: max degree >> mean degree.
        assert deg.max() > 8 * deg[deg > 0].mean()


PERF = Path(__file__).resolve().parents[2] / "perf"


class TestGraph500:
    def test_edge_list_generated_once_and_shared_read_only(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return kronecker_edges(*args)

        monkeypatch.setattr(graph500, "kronecker_edges", counted)
        app = Graph500Hybrid(scale=6, edgefactor=8, nroots=1)
        run_app(app, npes=8)
        assert len(calls) == 1
        edges = app.edges()
        assert edges is app.edges()
        assert not edges.flags.writeable
        # The cached edge list is not part of the app's value.
        fresh = Graph500Hybrid(scale=6, edgefactor=8, nroots=1)
        assert app == fresh and hash(app) == hash(fresh)

    def test_results_match_committed_perf_reference(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERF))
        from workloads import DEFAULT_SEED, WORKLOADS, fingerprint

        workload = WORKLOADS["graph500-hybrid-64"]
        app = workload.app(True)
        job = workload.build(workload.sized(True), DEFAULT_SEED)
        result = job.run(app)
        reference = json.loads((PERF / "reference.json").read_text())
        expected = reference["quick"]["graph500-hybrid-64"]
        assert fingerprint(result)["app_results_sha256"] == \
            expected["app_results_sha256"]

    def test_bfs_validates_with_zero_errors(self):
        result = run_app(
            Graph500Hybrid(scale=7, edgefactor=8, nroots=2), npes=8
        )
        for res in result.app_results:
            for bfs in res["bfs"]:
                assert bfs["errors"] == 0
                assert bfs["visited"] > 1

    def test_visited_counts_agree_across_pes(self):
        result = run_app(
            Graph500Hybrid(scale=6, edgefactor=8, nroots=1), npes=4
        )
        counts = {res["bfs"][0]["visited"] for res in result.app_results}
        assert len(counts) == 1

    def test_same_bfs_result_both_modes(self):
        app = lambda: Graph500Hybrid(scale=6, edgefactor=8, nroots=1)
        r1 = run_app(app(), npes=4,
                     config=RuntimeConfig.proposed(heap_backing_kb=512))
        r2 = run_app(app(), npes=4,
                     config=RuntimeConfig.current(heap_backing_kb=512))
        assert (
            r1.app_results[0]["bfs"][0]["visited"]
            == r2.app_results[0]["bfs"][0]["visited"]
        )
