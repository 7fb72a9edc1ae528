"""OpenSHMEM collectives over all PEs: barrier, fcollect, reductions.

Algorithms (and the connection footprints they imply, which is what
Figure 9 measures):

* barriers / reductions — a binary tree over the PEs: each PE talks
  to its parent and at most two children, so on-demand mode creates
  only a handful of connections per PE;
* ``fcollect`` — Bruck-style dissemination allgather: ceil(log2 P)
  *distinct* peers per PE with doubling message sizes (the "dense"
  collective of Figure 7a);
* the intra-node barrier of Section IV-E — pure shared memory, zero
  fabric connections.

All payloads are real bytes: a reduction really reduces, a collect
really concatenates.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..errors import ShmemError

__all__ = ["CollectivesMixin", "tree_parent_children"]


def tree_parent_children(rank: int, npes: int, root: int = 0
                         ) -> Tuple[Optional[int], List[int]]:
    """Binary-heap tree rotated so ``root`` is the root.

    Returns (parent or None, children) in *real* rank space.
    """
    vrank = (rank - root) % npes
    parent = None if vrank == 0 else ((vrank - 1) // 2 + root) % npes
    children = [
        (c + root) % npes
        for c in (2 * vrank + 1, 2 * vrank + 2)
        if c < npes
    ]
    return parent, children


_REDUCE_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


class CollectivesMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def barrier_all(self) -> Generator:
        """shmem_barrier_all: tree gather + release over the fabric."""
        self._require_init()
        self.counters.add("shmem.barriers")
        seq = self._next_seq("bar")
        parent, children = tree_parent_children(self.rank, self.npes)
        up = ("bar", seq, "up")
        down = ("bar", seq, "down")
        for _ in children:
            yield self._coll_chans.recv(up)
        if parent is not None:
            yield from self._coll_send(parent, up)
            yield self._coll_chans.recv(down)
        for child in children:
            yield from self._coll_send(child, down)

    def barrier_intranode(self) -> Generator:
        """The paper's shared-memory intra-node barrier (Section IV-E)."""
        if self.node_barrier is None:
            raise ShmemError(f"PE {self.rank}: node barrier not installed")
        local = self.cluster.local_size(self.rank)
        rounds = max(1, math.ceil(math.log2(max(2, local))))
        yield self.cost.shm_barrier_us * rounds
        yield self.node_barrier.wait()
        self.counters.add("shmem.intranode_barriers")

    # ------------------------------------------------------------------
    # collect (allgather)
    # ------------------------------------------------------------------
    def fcollect(self, src_addr: int, dst_addr: int, nbytes: int) -> Generator:
        """shmem_fcollect: every PE contributes ``nbytes`` from
        ``src_addr``; the concatenation (by PE order) lands at
        ``dst_addr`` everywhere.  Bruck allgather."""
        self._require_init()
        self.counters.add("shmem.collects")
        n = self.npes
        me = self.rank
        seq = self._next_seq("coll")
        blocks = {me: self.heap.read(src_addr, nbytes)}
        stages = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for k in range(stages):
            s = 1 << k
            key = ("coll", seq, k)
            total = sum(len(b) for b in blocks.values())
            yield from self._coll_send(
                (me - s) % n, key, payload=dict(blocks), nbytes=total
            )
            _src, incoming = yield self._coll_chans.recv(key)
            blocks.update(incoming)
        if len(blocks) != n:
            raise ShmemError(
                f"PE {self.rank}: collect gathered {len(blocks)}/{n} blocks"
            )
        for pos in range(n):
            self.heap.write(dst_addr + pos * nbytes, blocks[pos])

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def reduce(self, src_addr: int, dst_addr: int, count: int, dtype,
               op: str = "sum") -> Generator:
        """shmem_*_to_all: elementwise reduction, result everywhere.

        Binary-tree reduce to PE 0 followed by a tree broadcast — the
        "sparse" collective of Figure 7(b).
        """
        self._require_init()
        self.counters.add("shmem.reductions")
        try:
            ufunc = _REDUCE_OPS[op]
        except KeyError:
            raise ShmemError(f"unknown reduction op {op!r}") from None
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        seq = self._next_seq("red")
        up = ("red", seq, "up")
        down = ("red", seq, "down")
        parent, children = tree_parent_children(self.rank, self.npes)

        acc = np.frombuffer(self.heap.read(src_addr, nbytes), dtype=dtype).copy()
        for _ in children:
            _src, data = yield self._coll_chans.recv(up)
            acc = ufunc(acc, np.frombuffer(data, dtype=dtype))
        if parent is not None:
            yield from self._coll_send(
                parent, up, payload=acc.tobytes(), nbytes=nbytes
            )
            _src, result = yield self._coll_chans.recv(down)
        else:
            result = acc.tobytes()
        self.heap.write(dst_addr, result)
        for child in children:
            yield from self._coll_send(child, down, payload=result, nbytes=nbytes)

    def sum_to_all(self, src_addr: int, dst_addr: int, count: int,
                   dtype=np.float64) -> Generator:
        yield from self.reduce(src_addr, dst_addr, count, dtype, "sum")

    def max_to_all(self, src_addr: int, dst_addr: int, count: int,
                   dtype=np.float64) -> Generator:
        yield from self.reduce(src_addr, dst_addr, count, dtype, "max")
