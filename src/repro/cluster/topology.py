"""Cluster topology: nodes, process placement, switch distance.

A :class:`Cluster` maps PE ranks to compute nodes and answers the two
questions the transport layers care about:

* are two ranks on the same node (shared memory path)?
* how many switch hops separate two nodes (fabric latency)?

Placement is *block* by default (ranks 0..ppn-1 on node 0, ...), which
is how the paper's experiments were run (fully subscribed nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .params import CostModel

__all__ = ["Cluster", "Placement"]


@dataclass(frozen=True)
class Placement:
    """Placement policy: ``block`` or ``cyclic``."""

    policy: str = "block"

    def node_of(self, rank: int, npes: int, ppn: int) -> int:
        if self.policy == "block":
            return rank // ppn
        if self.policy == "cyclic":
            nnodes = (npes + ppn - 1) // ppn
            return rank % nnodes
        raise ValueError(f"unknown placement policy {self.policy!r}")


class Cluster:
    """A homogeneous cluster of ``nnodes`` nodes with ``ppn`` cores used.

    Parameters
    ----------
    npes:
        Total number of processing elements (ranks) in the job.
    ppn:
        Processes per node (fully subscribed in the paper: 16 on
        Cluster-B, 8 on Cluster-A).
    cost:
        The calibrated :class:`~repro.cluster.params.CostModel`.
    name:
        Human-readable preset name (for reports).
    """

    def __init__(
        self,
        npes: int,
        ppn: int,
        cost: CostModel,
        name: str = "custom",
        placement: Placement = Placement("block"),
    ) -> None:
        if npes < 1:
            raise ValueError("npes must be >= 1")
        if ppn < 1:
            raise ValueError("ppn must be >= 1")
        self.npes = npes
        self.ppn = ppn
        self.cost = cost
        self.name = name
        self.placement = placement
        self.nnodes = (npes + ppn - 1) // ppn
        self._node_of: List[int] = [
            placement.node_of(rank, npes, ppn) for rank in range(npes)
        ]
        self._node_ranks: List[List[int]] = [[] for _ in range(self.nnodes)]
        self._local_rank: List[int] = [0] * npes
        for rank, node in enumerate(self._node_of):
            self._local_rank[rank] = len(self._node_ranks[node])
            self._node_ranks[node].append(rank)

    # -- rank/node mapping ----------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        return self._node_of[rank]

    def ranks_on_node(self, node: int) -> List[int]:
        return list(self._node_ranks[node])

    def local_rank(self, rank: int) -> int:
        """Position of ``rank`` among the ranks of its node."""
        return self._local_rank[rank]

    def local_size(self, rank: int) -> int:
        return len(self._node_ranks[self._node_of[rank]])

    def same_node(self, a: int, b: int) -> bool:
        return self._node_of[a] == self._node_of[b]

    # -- fabric geometry --------------------------------------------------
    #: Switch hops between two distinct nodes under one leaf switch,
    #: and between nodes whose leaves meet at the spine.
    SAME_LEAF_HOPS = 1
    CROSS_SPINE_HOPS = 3

    def hops(self, node_a: int, node_b: int) -> int:
        """Switch hops between two nodes (0 when identical).

        Two-level fat tree: nodes under the same leaf switch are one
        hop apart; crossing the spine adds two more.
        """
        if node_a == node_b:
            return 0
        radix = self.cost.leaf_radix
        if node_a // radix == node_b // radix:
            return self.SAME_LEAF_HOPS
        return self.CROSS_SPINE_HOPS

    def lid_of(self, rank: int) -> int:
        """InfiniBand LID of the node hosting ``rank`` (one HCA/node)."""
        return 0x100 + self._node_of[rank]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Cluster {self.name}: {self.npes} PEs on {self.nnodes} nodes"
            f" x {self.ppn} ppn>"
        )
