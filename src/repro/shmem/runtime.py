"""The user-facing OpenSHMEM PE object and its lifecycle.

:class:`ShmemPE` glues the state base with the RMA / atomics /
collectives mixins and drives ``start_pes`` / ``finalize`` through the
configured startup strategy.  Applications receive one ``ShmemPE`` per
simulated process and program against the OpenSHMEM-shaped API:

================  ==========================================
OpenSHMEM          here
================  ==========================================
start_pes          ``yield from pe.start_pes()``
shmem_my_pe        ``pe.mype``
shmem_n_pes        ``pe.npes``
shmalloc           ``pe.shmalloc(nbytes)``
shmem_putmem       ``yield from pe.put(peer, addr, data)``
shmem_getmem       ``yield from pe.get(peer, addr, n)``
shmem_longlong_fadd ``yield from pe.atomic_fetch_add(...)``
shmem_barrier_all  ``yield from pe.barrier_all()``
shmem_fcollect     ``yield from pe.fcollect(src, dst, n)``
shmem_*_to_all     ``yield from pe.reduce(...)``
================  ==========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from ..cluster import Cluster
from ..errors import ShmemError

if TYPE_CHECKING:  # pragma: no cover - avoid a circular runtime import
    from ..core.config import RuntimeConfig
from ..gasnet import Conduit, StaticConduit
from ..ib import VerbsContext
from ..pmi import PMIClient
from ..sim import Counters, Simulator
from .atomics import AtomicsMixin
from .collectives import CollectivesMixin
from .context import ShmemContext
from .rma import RMAMixin
from .startup import run_startup

__all__ = ["ShmemPE", "install_timeline_probes"]


def install_timeline_probes(timeline, pes) -> None:
    """Register SHMEM-layer time-series probes (pure reads; see the
    determinism contract in :mod:`repro.obs.timeline`).

    Symmetric-heap occupancy is the memory-footprint half of the
    paper's scaling story (QP memory being the other, probed by the
    HCA layer)."""
    def heap_bytes() -> int:
        return sum(
            pe.heap.bytes_in_use if pe.heap is not None else 0 for pe in pes
        )

    timeline.add_probe("shmem.heap_bytes", heap_bytes)


class ShmemPE(ShmemContext, RMAMixin, AtomicsMixin, CollectivesMixin):
    """One OpenSHMEM processing element."""

    __slots__ = ("config", "_peers", "init_done_at", "init_duration",
                 "_resource_snapshot", "mpi")

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        cluster: Cluster,
        ctx: VerbsContext,
        conduit: Conduit,
        pmi: PMIClient,
        counters: Counters,
        config: RuntimeConfig,
    ) -> None:
        super().__init__(sim, rank, cluster, ctx, conduit, pmi, counters)
        self.config = config
        self._peers: Optional[Dict[int, "ShmemPE"]] = None
        #: Simulated time at which start_pes returned (for metrics).
        self.init_done_at: Optional[float] = None
        self.init_duration: Optional[float] = None
        #: MPI communicator; ``Job.run`` attaches one for hybrid apps.
        self.mpi = None

    # ------------------------------------------------------------------
    def _peer(self, rank: int) -> "ShmemPE":
        """Data-plane access to a peer PE object (node shm / bookkeeping)."""
        if self._peers is None:
            raise ShmemError("peer registry not installed (Job wires it)")
        return self._peers[rank]

    def install_peer_registry(self, peers: Dict[int, "ShmemPE"]) -> None:
        self._peers = peers

    # ------------------------------------------------------------------
    def start_pes(self) -> Generator:
        """OpenSHMEM initialisation (the call Figure 5(a) times)."""
        if self.initialized:
            raise ShmemError(f"PE {self.rank}: start_pes called twice")
        started = self.sim.now
        obs = self.obs
        root = None
        if obs is not None:
            # Root span for this PE's init; every PhaseTimer phase
            # becomes a child span until the timer is disarmed.
            root = obs.spans.start("shmem.start_pes", f"pe{self.rank}")
            self.timer.observe(obs.spans, f"pe{self.rank}", parent=root)
        yield from run_startup(self)
        self.init_done_at = self.sim.now
        self.init_duration = self.sim.now - started
        if root is not None:
            self.timer.observe(None, "")
            obs.spans.finish(root)
            obs.histogram("shmem.start_pes_us").observe(
                self.init_duration)
        self.counters.add("shmem.start_pes_done")

    def finalize(self) -> Generator:
        """Implicit finalisation: global barrier + endpoint teardown.

        Even a communication-free program pays this (paper Section V-B:
        the finalize barrier forces PMI completion and some
        connections in the proposed design; full teardown in the
        static design).
        """
        self._require_init()
        if self.finalized:
            raise ShmemError(f"PE {self.rank}: finalize called twice")
        yield from self.barrier_all()
        if isinstance(self.conduit, StaticConduit):
            yield from self.conduit.teardown_charge()
        else:
            yield from self.conduit.shutdown()
        self.finalized = True

    # ------------------------------------------------------------------
    # resource snapshot (Figure 9 / Table I inputs)
    # ------------------------------------------------------------------
    def snapshot_resources(self) -> Dict[str, float]:
        """Record usage *before* finalize tears connections down."""
        self._resource_snapshot = self._current_resources()
        return self._resource_snapshot

    def _current_resources(self) -> Dict[str, float]:
        # "active peers" = distinct peers the PE actually communicated
        # with over any path (fabric connections + intra-node RMA/AM),
        # which is what Table I counts.
        return {
            "rc_qps": self.ctx.rc_qps_created,
            "ud_qps": self.ctx.ud_qps_created,
            "connections": self.ctx.connections_established,
            "qp_memory_bytes": self.ctx.qp_memory_bytes,
            "registered_bytes": self.ctx.registered_bytes,
            "active_connections": self.conduit.connection_count,
            "peers": len(self.conduit.touched_peers),
        }

    def resource_usage(self) -> Dict[str, float]:
        snap = getattr(self, "_resource_snapshot", None)
        return snap if snap is not None else self._current_resources()
