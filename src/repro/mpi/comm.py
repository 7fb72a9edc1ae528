"""Minimal MPI over the unified runtime.

Hybrid MPI+OpenSHMEM applications (the paper's Graph500, Section V-E)
get a :class:`Communicator` that rides the *same* conduit — and hence
the same connections — as the OpenSHMEM side.  This is the
MVAPICH2-X unified-runtime property: the hybrid program does not pay
for two separate fully-wired runtimes, and an on-demand connection made
by either model is reused by the other.

Implemented: blocking ``send``/``recv`` with (source, tag) matching,
``barrier``, ``bcast``, ``reduce``, ``allreduce``, ``allgather`` and
``alltoall`` — enough for the paper's hybrid workloads.
Payloads are Python objects; ``nbytes`` (or a numpy array's size)
drives the timing model.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..errors import MPIError
from ..shmem.collectives import tree_parent_children
from ..sim import Channels

__all__ = ["Communicator"]

_MPI_HANDLER = "mpi.msg"


def _size_of(data: Any, nbytes: Optional[int]) -> int:
    if nbytes is not None:
        return nbytes
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    return 64  # generic small Python object


class Communicator:
    """MPI_COMM_WORLD over the PE's existing conduit."""

    __slots__ = ("pe", "sim", "conduit", "rank", "size", "_chans", "_coll_seq")

    def __init__(self, pe) -> None:
        self.pe = pe
        self.sim = pe.sim
        self.conduit = pe.conduit
        self.rank = pe.rank
        self.size = pe.npes
        self._chans = Channels(self.sim)
        self._coll_seq: Dict[str, int] = defaultdict(int)
        self.conduit.register_handler(_MPI_HANDLER, self._chans.on_message)

    # ------------------------------------------------------------------
    def _next_seq(self, kind: str) -> int:
        seq = self._coll_seq[kind]
        self._coll_seq[kind] += 1
        return seq

    def _send_key(self, peer: int, key: Tuple, payload: Any,
                  nbytes: int) -> Generator:
        yield from self.conduit.am_send(
            peer, _MPI_HANDLER, data=(key, payload), data_bytes=nbytes
        )

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def send(self, dest: int, data: Any, tag: int = 0,
             nbytes: Optional[int] = None) -> Generator:
        """MPI_Send (blocking, rendezvous-free model)."""
        if not (0 <= dest < self.size):
            raise MPIError(f"rank {self.rank}: invalid dest {dest}")
        self.pe.counters.add("mpi.sends")
        key = ("p2p", self.rank, tag)
        yield from self._send_key(dest, key, data, _size_of(data, nbytes))

    def recv(self, source: int, tag: int = 0) -> Generator:
        """MPI_Recv: blocks until a matching message arrives."""
        if not (0 <= source < self.size):
            raise MPIError(f"rank {self.rank}: invalid source {source}")
        self.pe.counters.add("mpi.recvs")
        key = ("p2p", source, tag)
        _src, payload = yield self._chans.recv(key)
        return payload

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        """MPI_Barrier: tree gather + release."""
        self.pe.counters.add("mpi.barriers")
        seq = self._next_seq("bar")
        parent, children = tree_parent_children(self.rank, self.size)
        up, down = ("cbar", seq, "u"), ("cbar", seq, "d")
        for _ in children:
            yield self._chans.recv(up)
        if parent is not None:
            yield from self._send_key(parent, up, None, 0)
            yield self._chans.recv(down)
        for child in children:
            yield from self._send_key(child, down, None, 0)

    def bcast(self, data: Any, root: int = 0,
              nbytes: Optional[int] = None) -> Generator:
        """MPI_Bcast: returns the broadcast value on every rank."""
        self.pe.counters.add("mpi.bcasts")
        seq = self._next_seq("bcast")
        key = ("cbc", seq)
        parent, children = tree_parent_children(self.rank, self.size, root)
        if parent is not None:
            _src, data = yield self._chans.recv(key)
        size = _size_of(data, nbytes)
        for child in children:
            yield from self._send_key(child, key, data, size)
        return data

    def reduce(self, value: Any, op: Callable[[Any, Any], Any],
               root: int = 0, nbytes: Optional[int] = None) -> Generator:
        """MPI_Reduce with a Python combiner; result only at root."""
        self.pe.counters.add("mpi.reduces")
        seq = self._next_seq("red")
        key = ("cred", seq)
        parent, children = tree_parent_children(self.rank, self.size, root)
        acc = value
        for _ in children:
            _src, contrib = yield self._chans.recv(key)
            acc = op(acc, contrib)
        if parent is not None:
            yield from self._send_key(parent, key, acc, _size_of(acc, nbytes))
            return None
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any],
                  nbytes: Optional[int] = None) -> Generator:
        """MPI_Allreduce = reduce to 0 + bcast."""
        total = yield from self.reduce(value, op, root=0, nbytes=nbytes)
        result = yield from self.bcast(total, root=0, nbytes=nbytes)
        return result

    def allgather(self, value: Any, nbytes: Optional[int] = None) -> Generator:
        """MPI_Allgather (Bruck dissemination); returns a list by rank."""
        self.pe.counters.add("mpi.allgathers")
        n = self.size
        seq = self._next_seq("ag")
        blocks = {self.rank: value}
        stages = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        per = _size_of(value, nbytes)
        for k in range(stages):
            s = 1 << k
            dst = (self.rank - s) % n
            key = ("cag", seq, k)
            yield from self._send_key(dst, key, dict(blocks), per * len(blocks))
            _src, incoming = yield self._chans.recv(key)
            blocks.update(incoming)
        return [blocks[r] for r in range(n)]

    def alltoall(self, values: List[Any],
                 nbytes_each: Optional[int] = None) -> Generator:
        """MPI_Alltoall: values[i] goes to rank i; returns received list."""
        if len(values) != self.size:
            raise MPIError(
                f"alltoall needs {self.size} values, got {len(values)}"
            )
        self.pe.counters.add("mpi.alltoalls")
        seq = self._next_seq("a2a")
        key = ("ca2a", seq)
        out: List[Any] = [None] * self.size
        out[self.rank] = values[self.rank]
        # Pairwise exchange: round r partner = rank XOR r (power-of-2)
        # or linear shifts otherwise.
        n = self.size
        for shift in range(1, n):
            dst = (self.rank + shift) % n
            src = (self.rank - shift) % n
            yield from self._send_key(
                dst, key + (shift,), values[dst],
                _size_of(values[dst], nbytes_each),
            )
            _s, payload = yield self._chans.recv(key + (shift,))
            out[src] = payload
        return out
