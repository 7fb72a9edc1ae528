"""Hybrid MPI+OpenSHMEM Graph500 BFS (Jose et al. [5], paper Section V-E).

A real, end-to-end Graph500 mini-implementation:

* **generation** — Kronecker (R-MAT) edge list with the reference
  A/B/C/D parameters, generated deterministically and partitioned by
  vertex ownership (``owner = v % npes``);
* **construction** — each PE builds adjacency lists for its vertices
  after an MPI all-to-all of edge endpoints;
* **BFS** — level-synchronised hybrid traversal: discovered remote
  vertices are pushed into the owner's symmetric receive queue with an
  OpenSHMEM ``atomic_fetch_add`` (queue-tail reservation) + ``put``,
  exactly the one-sided pattern of the hybrid design; level
  termination uses an MPI ``allreduce`` — both models drive the *same*
  connections (unified runtime);
* **validation** — parent array is allgathered and every PE checks its
  own edges for the Graph500 level-consistency invariant.

The paper's configuration (1,024 vertices / 16,384 edges — scale 10,
edgefactor 16) is the default.  Generation and validation dominate the
runtime, which is why static vs. on-demand differ by <2% (Figure 8b).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

import numpy as np

from .base import Application

__all__ = ["Graph500Hybrid", "kronecker_edges"]

#: Modelled per-edge generation / validation CPU cost (us).
_GEN_EDGE_US = 1.1
_VALIDATE_EDGE_US = 0.9
#: Modelled cost of scanning one adjacency entry during BFS (us).
_SCAN_EDGE_US = 0.08


def kronecker_edges(scale: int, edgefactor: int, seed: int = 20150427
                    ) -> np.ndarray:
    """Reference R-MAT generator: (nedges, 2) int64 array."""
    n = 1 << scale
    m = edgefactor * n
    a, b, c = 0.57, 0.19, 0.19
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r1 = rng.random(m)
        r2 = rng.random(m)
        heavy = r1 > a + b
        src |= (heavy.astype(np.int64)) << bit
        take = np.where(
            heavy, r2 > (c / (c + (1 - a - b - c))) * 1.0, r2 > (a / (a + b))
        )
        dst |= take.astype(np.int64) << bit
    # Permute vertex labels so degree is decorrelated from id.
    perm = rng.permutation(n)
    return np.stack([perm[src], perm[dst]], axis=1)


class Graph500Hybrid(Application):
    name = "graph500"
    uses_mpi = True

    def __init__(self, scale: int = 10, edgefactor: int = 16,
                 nroots: int = 4, seed: int = 20150427) -> None:
        self.scale = scale
        self.edgefactor = edgefactor
        self.nroots = nroots
        self.seed = seed
        self._edges = None

    def edges(self) -> np.ndarray:
        """The Kronecker edge list, generated on first use and shared
        read-only by every PE of the job (each reads its own slice)."""
        if self._edges is None:
            edges = kronecker_edges(self.scale, self.edgefactor, self.seed)
            edges.flags.writeable = False
            self._edges = edges
        return self._edges

    # ------------------------------------------------------------------
    def run(self, pe) -> Generator:
        npes, rank = pe.npes, pe.mype
        mpi = pe.mpi
        n = 1 << self.scale
        i8 = np.dtype(np.int64).itemsize

        # ---------- generation (every PE generates its slice) ----------
        edges = self.edges()
        m = len(edges)
        my_slice = edges[rank::npes]
        yield pe.sim.timeout(
            len(my_slice) * _GEN_EDGE_US * pe.cost.compute_scale
        )

        # ---------- construction: route edges to both endpoint owners --
        outboxes: List[List[Tuple[int, int]]] = [[] for _ in range(npes)]
        for u, v in my_slice:
            if u == v:
                continue
            outboxes[int(u) % npes].append((int(u), int(v)))
            outboxes[int(v) % npes].append((int(v), int(u)))
        incoming = yield from mpi.alltoall(
            outboxes, nbytes_each=max(1, 16 * len(my_slice) // npes)
        )
        adj: Dict[int, List[int]] = {}
        for box in incoming:
            for u, v in box:
                adj.setdefault(u, []).append(v)
        del outboxes, incoming

        # ---------- symmetric BFS state --------------------------------
        # Sized for the worst realistic per-root fan-in (R-MAT hubs);
        # the drain loop guards against overflow with a clear error.
        qcap = max(4096, (4 * m) // npes + 256)
        tail_addr = pe.shmalloc(i8)
        queue_addr = pe.shmalloc(qcap * i8)
        tail = pe.view(tail_addr, np.int64, 1)
        queue = pe.view(queue_addr, np.int64, qcap)

        my_vertices = list(range(rank, n, npes))
        bfs_stats = []

        roots_rng = np.random.default_rng(self.seed + 7)
        candidate_roots = [
            int(r) for r in roots_rng.integers(0, n, size=self.nroots)
        ]

        for root in candidate_roots:
            parent: Dict[int, int] = {}
            level_of: Dict[int, int] = {}
            tail[0] = 0
            yield from mpi.barrier()

            frontier: List[int] = []
            if root % npes == rank:
                parent[root] = root
                level_of[root] = 0
                frontier = [root]
            cur_level = 0
            edges_scanned = 0
            while True:
                # -- expand local frontier ---------------------------------
                local_new: List[int] = []
                scanned_this_level = 0
                for u in frontier:
                    for v in adj.get(u, ()):
                        scanned_this_level += 1
                        owner = v % npes
                        if owner == rank:
                            if v not in parent:
                                parent[v] = u
                                level_of[v] = cur_level + 1
                                local_new.append(v)
                        else:
                            # One-sided push: reserve a slot in the
                            # owner's queue, then put (vertex, parent).
                            slot = yield from pe.atomic_fetch_add(
                                owner, tail_addr, 2
                            )
                            yield from pe.put_array(
                                owner,
                                queue_addr + int(slot) * i8,
                                np.array([v, u], dtype=np.int64),
                            )
                edges_scanned += scanned_this_level
                if scanned_this_level:
                    yield pe.sim.timeout(
                        scanned_this_level * _SCAN_EDGE_US
                        * pe.cost.compute_scale
                    )
                yield from mpi.barrier()  # all puts delivered

                # -- drain my receive queue --------------------------------
                count = int(tail[0])
                if count > qcap:
                    from ..errors import ShmemError
                    raise ShmemError(
                        f"graph500 receive queue overflow ({count} > {qcap})"
                    )
                for i in range(0, min(count, qcap), 2):
                    v, u = int(queue[i]), int(queue[i + 1])
                    if v not in parent:
                        parent[v] = u
                        level_of[v] = cur_level + 1
                        local_new.append(v)
                tail[0] = 0
                frontier = sorted(set(local_new))
                cur_level += 1

                total = yield from mpi.allreduce(
                    len(frontier), lambda a, b: a + b
                )
                if total == 0:
                    break

            # ---------- validation (Graph500-style) --------------------
            all_levels = yield from mpi.allgather(
                {v: level_of.get(v, -1) for v in my_vertices},
                nbytes=8 * len(my_vertices),
            )
            merged: Dict[int, int] = {}
            for d in all_levels:
                merged.update(d)
            errors = 0
            # (1) every edge connects vertices whose levels differ <= 1
            for u, v in my_slice:
                lu, lv = merged.get(int(u), -1), merged.get(int(v), -1)
                if lu >= 0 and lv >= 0 and abs(lu - lv) > 1:
                    errors += 1
            # (2) each owned vertex's parent is one of its neighbours
            #     and sits exactly one level above.
            for v, u in parent.items():
                if v == root:
                    continue
                if u not in adj.get(v, ()):
                    errors += 1
                elif merged.get(u, -1) != level_of[v] - 1:
                    errors += 1
            yield pe.sim.timeout(
                len(my_slice) * _VALIDATE_EDGE_US * pe.cost.compute_scale
            )
            total_errors = yield from mpi.allreduce(
                errors, lambda a, b: a + b
            )
            visited = yield from mpi.allreduce(
                len(parent), lambda a, b: a + b
            )
            bfs_stats.append(
                {"root": root, "levels": cur_level, "visited": visited,
                 "errors": total_errors}
            )

        yield from mpi.barrier()
        return {"bfs": bfs_stats, "nedges": m}
