"""OpenSHMEM collective correctness in both connection modes."""

import numpy as np
import pytest

from repro.shmem import tree_parent_children

from .conftest import run_shmem


class TestTreeGeometry:
    def test_root_has_no_parent(self):
        parent, children = tree_parent_children(0, 8)
        assert parent is None
        assert children == [1, 2]

    def test_parent_child_consistency(self):
        n = 13
        for rank in range(n):
            parent, children = tree_parent_children(rank, n)
            for c in children:
                p, _ = tree_parent_children(c, n)
                assert p == rank
            if parent is not None:
                _, pc = tree_parent_children(parent, n)
                assert rank in pc

    def test_rotation_moves_root(self):
        parent, _ = tree_parent_children(5, 9, root=5)
        assert parent is None
        parent, _ = tree_parent_children(0, 9, root=5)
        assert parent is not None


class TestBarrier:
    def test_barrier_synchronizes(self, any_mode_config):
        def prog(pe):
            yield pe.sim.timeout(float(pe.mype) * 100.0)
            yield from pe.barrier_all()
            return pe.sim.now

        result = run_shmem(prog, npes=6, config=any_mode_config)
        times = result.app_results
        # All released at/after the slowest arrival.
        assert max(times) - min(times) < 100.0

    def test_repeated_barriers(self):
        def prog(pe):
            for _ in range(5):
                yield from pe.barrier_all()
            return True

        result = run_shmem(prog, npes=5)
        assert all(result.app_results)


class TestCollect:
    @pytest.mark.parametrize("npes", [2, 3, 7, 8])
    def test_fcollect_concatenates_in_rank_order(self, npes):
        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            src = pe.shmalloc(2 * f8)
            dst = pe.shmalloc(2 * f8 * pe.npes)
            pe.view(src, np.float64, 2)[:] = [pe.mype, pe.mype * 10]
            yield from pe.barrier_all()
            yield from pe.fcollect(src, dst, 2 * f8)
            return pe.view(dst, np.float64, 2 * pe.npes).copy()

        result = run_shmem(prog, npes=npes)
        expected = np.array(
            [[r, r * 10] for r in range(npes)], dtype=np.float64
        ).ravel()
        for arr in result.app_results:
            assert np.allclose(arr, expected)


class TestReductions:
    def test_sum_to_all(self, any_mode_config):
        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            src = pe.shmalloc(3 * f8)
            dst = pe.shmalloc(3 * f8)
            pe.view(src, np.float64, 3)[:] = [1.0, pe.mype, pe.mype**2]
            yield from pe.barrier_all()
            yield from pe.sum_to_all(src, dst, 3)
            return pe.view(dst, np.float64, 3).copy()

        npes = 6
        result = run_shmem(prog, npes=npes, config=any_mode_config)
        expected = [
            npes,
            sum(range(npes)),
            sum(r**2 for r in range(npes)),
        ]
        for arr in result.app_results:
            assert np.allclose(arr, expected)

    def test_max_to_all(self):
        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            src, dst = pe.shmalloc(f8), pe.shmalloc(f8)
            pe.view(src, np.float64, 1)[0] = float((pe.mype * 37) % 11)
            yield from pe.barrier_all()
            yield from pe.max_to_all(src, dst, 1)
            return float(pe.view(dst, np.float64, 1)[0])

        npes = 8
        result = run_shmem(prog, npes=npes)
        expected = max(float((r * 37) % 11) for r in range(npes))
        assert all(v == expected for v in result.app_results)

    def test_int_sum_reduction(self):
        def prog(pe):
            i8 = np.dtype(np.int64).itemsize
            src, dst = pe.shmalloc(i8), pe.shmalloc(i8)
            pe.view(src, np.int64, 1)[0] = pe.mype + 1
            yield from pe.barrier_all()
            yield from pe.reduce(src, dst, 1, np.int64, "sum")
            return int(pe.view(dst, np.int64, 1)[0])

        result = run_shmem(prog, npes=5)
        assert all(v == 15 for v in result.app_results)

    def test_consecutive_collectives_do_not_crosstalk(self):
        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            src, dst = pe.shmalloc(f8), pe.shmalloc(f8)
            outs = []
            for round_no in range(3):
                pe.view(src, np.float64, 1)[0] = float(round_no)
                yield from pe.sum_to_all(src, dst, 1)
                outs.append(float(pe.view(dst, np.float64, 1)[0]))
            return outs

        npes = 4
        result = run_shmem(prog, npes=npes)
        for outs in result.app_results:
            assert outs == [0.0, 1.0 * npes, 2.0 * npes]


class TestConnectionFootprint:
    def test_barrier_uses_few_connections_on_demand(self):
        def prog(pe):
            yield from pe.barrier_all()
            return len(pe.conduit.touched_peers)

        result = run_shmem(prog, npes=16, cluster=None)
        # Binary-tree barrier: at most parent + 2 children peers.
        assert max(result.app_results) <= 3

    def test_collect_touches_log_peers(self):
        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            src = pe.shmalloc(f8)
            dst = pe.shmalloc(f8 * pe.npes)
            yield from pe.barrier_all()
            before = set(pe.conduit.touched_peers)
            yield from pe.fcollect(src, dst, f8)
            return len(set(pe.conduit.touched_peers) - before)

        result = run_shmem(prog, npes=16)
        # Bruck allgather: ceil(log2 16) = 4 distinct send targets
        # (minus any that were already barrier peers).
        assert max(result.app_results) <= 4
