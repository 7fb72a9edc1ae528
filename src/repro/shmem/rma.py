"""One-sided put/get (shmem_put / shmem_get and typed variants).

Operations are blocking: they return once remotely complete, which is
how the OSU latency benchmarks of Figure 6 measure these calls.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..errors import ShmemError

__all__ = ["RMAMixin"]


class RMAMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    # ------------------------------------------------------------------
    def put(self, peer: int, addr: int, data: bytes) -> Generator:
        """shmem_putmem: write ``data`` to ``addr`` at ``peer``."""
        self._require_init()
        self.counters.add("shmem.puts")
        if peer == self.rank:
            self.heap.write(addr, data)
            return
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, addr)
        yield from self.conduit.rdma_put(peer, bytes(data), raddr, rkey)

    def get(self, peer: int, addr: int, nbytes: int) -> Generator:
        """shmem_getmem: read ``nbytes`` from ``addr`` at ``peer``."""
        self._require_init()
        self.counters.add("shmem.gets")
        if peer == self.rank:
            return self.heap.read(addr, nbytes)
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, addr)
        data = yield from self.conduit.rdma_get(peer, nbytes, raddr, rkey)
        return data

    # -- typed conveniences ------------------------------------------------
    def put_array(self, peer: int, addr: int, array: np.ndarray) -> Generator:
        """Typed put of a numpy array into symmetric memory."""
        yield from self.put(peer, addr, np.ascontiguousarray(array).tobytes())

    def put_value(self, peer: int, addr: int, value: int,
                  dtype=np.int64) -> Generator:
        yield from self.put(peer, addr, np.dtype(dtype).type(value).tobytes())

    # ------------------------------------------------------------------
    def wait_until(self, addr: int, op: str, value: int,
                   dtype=np.int64) -> Generator:
        """shmem_wait_until on a local symmetric variable.

        Polls local memory with exponential backoff (a remote PE's put
        or atomic will make the predicate true).
        """
        self._require_init()
        view = self.heap.view(addr, dtype, 1)
        ops = {
            "eq": lambda a, b: a == b,
            "ne": lambda a, b: a != b,
            "gt": lambda a, b: a > b,
            "ge": lambda a, b: a >= b,
            "lt": lambda a, b: a < b,
            "le": lambda a, b: a <= b,
        }
        try:
            cmp = ops[op]
        except KeyError:
            raise ShmemError(f"unknown wait_until op {op!r}") from None
        interval = 0.5
        while not cmp(view[0], value):
            yield interval
            interval = min(interval * 2.0, 25.0)
