"""OpenSHMEM RMA + atomics semantics, in both connection modes."""

import numpy as np
import pytest

from repro.cluster import cluster_a
from repro.errors import RemoteAccessError, ReproError, ShmemError

from .conftest import run_shmem


class TestPutGet:
    def test_put_then_get_roundtrip(self, any_mode_config):
        def prog(pe):
            addr = pe.shmalloc(64)
            yield from pe.barrier_all()
            right = (pe.mype + 1) % pe.npes
            msg = f"from-{pe.mype}".encode().ljust(16, b"\0")
            yield from pe.put(right, addr, msg)
            yield from pe.barrier_all()
            mine = pe.heap.read(addr, 16).rstrip(b"\0").decode()
            left = (pe.mype - 1) % pe.npes
            fetched = yield from pe.get(left, addr, 16)
            return mine, fetched.rstrip(b"\0").decode()

        result = run_shmem(prog, npes=4, config=any_mode_config)
        for rank, (mine, fetched) in enumerate(result.app_results):
            assert mine == f"from-{(rank - 1) % 4}"
            assert fetched == f"from-{(rank - 2) % 4}"

    def test_self_put_get(self):
        def prog(pe):
            addr = pe.shmalloc(8)
            yield from pe.put(pe.mype, addr, b"selfself")
            data = yield from pe.get(pe.mype, addr, 8)
            return data

        result = run_shmem(prog, npes=2)
        assert result.app_results == [b"selfself", b"selfself"]

    def test_typed_array_put(self, any_mode_config):
        def prog(pe):
            f8 = np.dtype(np.float64).itemsize
            addr = pe.shmalloc(8 * f8)
            yield from pe.barrier_all()
            payload = np.arange(8, dtype=np.float64) * (pe.mype + 1)
            yield from pe.put_array((pe.mype + 1) % pe.npes, addr, payload)
            yield from pe.barrier_all()
            return pe.view(addr, np.float64, 8).copy()

        result = run_shmem(prog, npes=4, config=any_mode_config)
        for rank, arr in enumerate(result.app_results):
            src = (rank - 1) % 4
            assert np.allclose(arr, np.arange(8) * (src + 1))

    def test_invalid_pe_rejected(self):
        def prog(pe):
            addr = pe.shmalloc(8)
            try:
                yield from pe.put(99, addr, b"x")
            except ShmemError:
                return "caught"
            return "missed"

        result = run_shmem(prog, npes=2)
        assert result.app_results == ["caught", "caught"]

    def test_wait_until_sees_remote_put(self):
        def prog(pe):
            f8 = np.dtype(np.int64).itemsize
            flag = pe.shmalloc(f8)
            yield from pe.barrier_all()
            if pe.mype == 0:
                yield pe.sim.timeout(500.0)
                yield from pe.put_value(1, flag, 42)
                return None
            yield from pe.wait_until(flag, "eq", 42)
            return pe.sim.now

        result = run_shmem(prog, npes=2)
        assert result.app_results[1] is not None

    # PE 0's view of the three data paths with two PEs per node.
    _PATH_PEER = {"self": 0, "intranode": 1, "remote": 2}

    @pytest.mark.parametrize("length", ["negative", "past_end"])
    @pytest.mark.parametrize("path", ["self", "intranode", "remote"])
    def test_out_of_bounds_access_rejected(self, path, length):
        def attempt(op):
            try:
                yield from op
            except ReproError as exc:
                return type(exc)
            return None

        def prog(pe):
            addr = pe.shmalloc(64)
            yield from pe.barrier_all()
            errors = []
            if pe.mype == 0:
                peer = self._PATH_PEER[path]
                if length == "negative":
                    ops = [pe.get(peer, addr, -4)]
                else:
                    past = pe.heap.size - (addr - pe.heap.base) + 8
                    ops = [pe.get(peer, addr, past),
                           pe.put(peer, addr, bytes(past))]
                for op in ops:
                    errors.append((yield from attempt(op)))
            yield from pe.barrier_all()
            return errors

        result = run_shmem(prog, npes=4, cluster=cluster_a(4, ppn=2))
        expected = ShmemError if path == "self" else RemoteAccessError
        errors = result.app_results[0]
        assert errors and all(e is expected for e in errors)


class TestAtomics:
    def test_fetch_add_all_to_one(self, any_mode_config):
        def prog(pe):
            f8 = np.dtype(np.int64).itemsize
            counter = pe.shmalloc(f8)
            yield from pe.barrier_all()
            old = yield from pe.atomic_fetch_add(0, counter, 1)
            yield from pe.barrier_all()
            final = pe.view(counter, np.int64, 1)[0] if pe.mype == 0 else -1
            return old, int(final)

        result = run_shmem(prog, npes=6, config=any_mode_config)
        olds = sorted(o for o, _ in result.app_results)
        assert olds == list(range(6))  # each got a unique ticket
        assert result.app_results[0][1] == 6

    def test_fetch_inc_and_fetch(self):
        def prog(pe):
            f8 = np.dtype(np.int64).itemsize
            counter = pe.shmalloc(f8)
            yield from pe.barrier_all()
            yield from pe.atomic_inc(0, counter)
            yield from pe.barrier_all()
            data = yield from pe.get(0, counter, f8)
            return int(np.frombuffer(data, dtype=np.int64)[0])

        result = run_shmem(prog, npes=4)
        assert all(v == 4 for v in result.app_results)

    def test_compare_swap_single_winner(self, any_mode_config):
        def prog(pe):
            f8 = np.dtype(np.int64).itemsize
            lock = pe.shmalloc(f8)
            yield from pe.barrier_all()
            old = yield from pe.atomic_compare_swap(
                0, lock, 0, pe.mype + 100
            )
            return old == 0  # True only for the single winner

        result = run_shmem(prog, npes=5, config=any_mode_config)
        assert sum(result.app_results) == 1

    def test_swap_returns_previous(self):
        def prog(pe):
            f8 = np.dtype(np.int64).itemsize
            cell = pe.shmalloc(f8)
            yield from pe.barrier_all()
            if pe.mype == 0:
                yield from pe.put_value(1, cell, 7)
                yield from pe.barrier_all()
                return None
            yield from pe.barrier_all()
            old = yield from pe.atomic_swap(1, cell, 9)
            new = pe.view(cell, np.int64, 1)[0]
            return old, int(new)

        result = run_shmem(prog, npes=2)
        assert result.app_results[1] == (7, 9)


class TestHeapSemantics:
    def test_symmetric_allocation_same_offsets(self):
        def prog(pe):
            a = pe.shmalloc(100)
            b = pe.shmalloc(100)
            yield from pe.barrier_all()
            return a, b

        result = run_shmem(prog, npes=3)
        assert len({r for r in result.app_results}) == 1  # identical everywhere

    def test_shfree_and_reuse(self):
        def prog(pe):
            a = pe.shmalloc(64)
            pe.shfree(a)
            with pytest.raises(ShmemError):
                pe.shfree(a)
            yield from pe.barrier_all()
            return True

        result = run_shmem(prog, npes=2)
        assert all(result.app_results)

    def test_backing_exhaustion_message(self):
        def prog(pe):
            with pytest.raises(ShmemError, match="heap_backing_kb"):
                pe.shmalloc(10 * 1024 * 1024)
            yield from pe.barrier_all()
            return True

        result = run_shmem(prog, npes=2)
        assert all(result.app_results)
