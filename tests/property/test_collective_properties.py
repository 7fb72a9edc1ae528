"""Property-based tests: collective algorithms and tree geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shmem import tree_parent_children

from ..shmem.conftest import run_shmem


class TestTreeProperties:
    @given(
        npes=st.integers(min_value=1, max_value=200),
        root=st.integers(min_value=0, max_value=199),
    )
    @settings(max_examples=100, deadline=None)
    def test_tree_spans_all_ranks(self, npes, root):
        root %= npes
        # Every rank's parent chain reaches the root without cycles.
        for rank in range(npes):
            cur, hops = rank, 0
            while True:
                parent, _ = tree_parent_children(cur, npes, root)
                if parent is None:
                    break
                cur = parent
                hops += 1
                assert hops <= npes
            assert cur == root

    @given(
        npes=st.integers(min_value=1, max_value=200),
        root=st.integers(min_value=0, max_value=199),
    )
    @settings(max_examples=100, deadline=None)
    def test_children_lists_partition_non_roots(self, npes, root):
        root %= npes
        seen = []
        for rank in range(npes):
            _, children = tree_parent_children(rank, npes, root)
            seen.extend(children)
        assert sorted(seen) == sorted(set(seen))  # nobody has two parents
        assert len(seen) == npes - 1


class TestCollectiveCorrectness:
    @given(
        npes=st.sampled_from([2, 3, 5, 8]),
        values=st.data(),
    )
    @settings(max_examples=12, deadline=None)
    def test_sum_reduction_matches_numpy(self, npes, values):
        vals = values.draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=npes, max_size=npes,
            )
        )

        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            src, dst = pe.shmalloc(f8), pe.shmalloc(f8)
            pe.view(src, np.float64, 1)[0] = vals[pe.mype]
            yield from pe.barrier_all()
            yield from pe.sum_to_all(src, dst, 1)
            return float(pe.view(dst, np.float64, 1)[0])

        result = run_shmem(prog, npes=npes)
        expected = float(np.sum(np.array(vals)))
        # Tree combining order differs from np.sum's left-to-right order,
        # so allow float reassociation error ...
        for got in result.app_results:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)
        # ... but every PE must hold the *bitwise identical* result.
        assert len({repr(v) for v in result.app_results}) == 1

    @given(npes=st.sampled_from([2, 3, 4, 6, 7]))
    @settings(max_examples=8, deadline=None)
    def test_bruck_collect_any_process_count(self, npes):
        def prog(pe):
            src = pe.shmalloc(4)
            dst = pe.shmalloc(4 * pe.npes)
            pe.heap.write(src, pe.mype.to_bytes(4, "little"))
            yield from pe.barrier_all()
            yield from pe.fcollect(src, dst, 4)
            return pe.heap.read(dst, 4 * pe.npes)

        result = run_shmem(prog, npes=npes)
        expected = b"".join(r.to_bytes(4, "little") for r in range(npes))
        assert all(blob == expected for blob in result.app_results)
