"""MPI layer tests (unified runtime over the same conduit)."""

import numpy as np
import pytest

from repro.errors import MPIError

from ..shmem.conftest import run_shmem


def run_mpi(fn, npes=4, **kw):
    return run_shmem(fn, npes=npes, uses_mpi=True, **kw)


class TestPointToPoint:
    def test_send_recv_ring(self):
        def prog(pe):
            mpi = pe.mpi
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            yield from mpi.send(right, f"msg-{mpi.rank}")
            got = yield from mpi.recv(left)
            return got

        result = run_mpi(prog, npes=5)
        for rank, got in enumerate(result.app_results):
            assert got == f"msg-{(rank - 1) % 5}"

    def test_tag_matching(self):
        def prog(pe):
            mpi = pe.mpi
            if mpi.rank == 0:
                yield from mpi.send(1, "tag-9", tag=9)
                yield from mpi.send(1, "tag-3", tag=3)
                return None
            if mpi.rank == 1:
                # Receive in the opposite order of sending.
                a = yield from mpi.recv(0, tag=3)
                b = yield from mpi.recv(0, tag=9)
                return a, b
            yield from mpi.barrier()
            return None

        result = run_mpi(prog, npes=2)
        assert result.app_results[1] == ("tag-3", "tag-9")

    def test_messages_from_same_src_tag_keep_order(self):
        def prog(pe):
            mpi = pe.mpi
            if mpi.rank == 0:
                for i in range(5):
                    yield from mpi.send(1, i, tag=1)
                return None
            got = []
            for _ in range(5):
                got.append((yield from mpi.recv(0, tag=1)))
            return got

        result = run_mpi(prog, npes=2)
        assert result.app_results[1] == [0, 1, 2, 3, 4]

    def test_numpy_payload_sizes_used(self):
        def prog(pe):
            mpi = pe.mpi
            if mpi.rank == 0:
                yield from mpi.send(1, np.zeros(1024))
                return None
            arr = yield from mpi.recv(0)
            return arr.nbytes

        result = run_mpi(prog, npes=2)
        assert result.app_results[1] == 8192

    def test_invalid_rank_rejected(self):
        def prog(pe):
            with pytest.raises(MPIError):
                yield from pe.mpi.send(42, "x")
            yield from pe.mpi.barrier()
            return True

        result = run_mpi(prog, npes=2)
        assert all(result.app_results)


class TestCollectives:
    def test_bcast(self):
        def prog(pe):
            value = ("payload", 123) if pe.mpi.rank == 1 else None
            got = yield from pe.mpi.bcast(value, root=1)
            return got

        result = run_mpi(prog, npes=6)
        assert all(v == ("payload", 123) for v in result.app_results)

    def test_allreduce_sum(self):
        def prog(pe):
            total = yield from pe.mpi.allreduce(
                pe.mpi.rank + 1, lambda a, b: a + b
            )
            return total

        result = run_mpi(prog, npes=7)
        assert all(v == 28 for v in result.app_results)

    def test_reduce_only_at_root(self):
        def prog(pe):
            v = yield from pe.mpi.reduce(pe.mpi.rank, max, root=2)
            return v

        result = run_mpi(prog, npes=5)
        assert result.app_results[2] == 4
        assert all(
            v is None for r, v in enumerate(result.app_results) if r != 2
        )

    @pytest.mark.parametrize("npes", [2, 3, 8])
    def test_allgather(self, npes):
        def prog(pe):
            values = yield from pe.mpi.allgather(pe.mpi.rank * 2)
            return values

        result = run_mpi(prog, npes=npes)
        expected = [r * 2 for r in range(npes)]
        assert all(v == expected for v in result.app_results)

    def test_alltoall(self):
        def prog(pe):
            outgoing = [f"{pe.mpi.rank}->{d}" for d in range(pe.mpi.size)]
            incoming = yield from pe.mpi.alltoall(outgoing)
            return incoming

        npes = 4
        result = run_mpi(prog, npes=npes)
        for rank, incoming in enumerate(result.app_results):
            assert incoming == [f"{s}->{rank}" for s in range(npes)]

    def test_alltoall_length_validated(self):
        def prog(pe):
            with pytest.raises(MPIError):
                yield from pe.mpi.alltoall([1, 2])  # wrong length for 4 PEs
            yield from pe.mpi.barrier()
            return True

        result = run_mpi(prog, npes=4)
        assert all(result.app_results)


class TestUnifiedRuntime:
    def test_mpi_and_shmem_share_connections(self):
        """A connection made by MPI traffic is reused by OpenSHMEM."""

        def prog(pe):
            mpi = pe.mpi
            partner = (pe.mype + pe.npes // 2) % pe.npes
            addr = pe.shmalloc(8)
            yield from mpi.barrier()
            # MPI p2p first: creates the connection in on-demand mode.
            if pe.mype < partner:
                yield from mpi.send(partner, "warm")
            else:
                yield from mpi.recv(partner)
            before = pe.ctx.connections_established
            # OpenSHMEM put to the same partner must not reconnect.
            yield from pe.put(partner, addr, b"x" * 8)
            after = pe.ctx.connections_established
            yield from mpi.barrier()
            return before == after

        result = run_mpi(prog, npes=4)
        assert all(result.app_results)
