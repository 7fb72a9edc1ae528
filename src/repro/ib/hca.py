"""Host Channel Adapter: QP table, QP-context cache, rkey routing.

One HCA per node, shared by every PE on that node (as on the paper's
clusters).  The HCA owns

* the **QP table** (qpn -> QP object),
* the **QP-context cache** -- an LRU over RC QPs modelling the limited
  on-board memory of ConnectX-era HCAs (paper Section I, drawback 3):
  traffic touching more QPs than fit pays a context-fetch penalty,
* the **rkey table** routing inbound RDMA/atomics to the owning PE's
  registered memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional

from ..cluster import CostModel
from ..errors import RemoteAccessError
from ..sim import Counters, Simulator
from .memory import MemoryRegion
from .types import Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector
    from .fabric import Fabric

__all__ = ["HCA", "install_timeline_probes"]


def install_timeline_probes(timeline, hcas, ctxs,
                            counters: Counters) -> None:
    """Register the verbs layer's time-series probes (pure reads; see
    the determinism contract in :mod:`repro.obs.timeline`).

    Occupancy is sampled as both the job-wide sum and the worst single
    HCA — the paper's QP-context pressure argument (Section I) is about
    the latter.  ``hca.qps`` counts the QP objects plus the QPs the
    static design paid for in bulk (``ctxs``' prepaid counts) but has
    not materialised; a materialised QP leaves the prepaid count."""
    def cache_occupancy() -> int:
        return sum(len(h._qp_cache) for h in hcas)

    def cache_occupancy_max() -> int:
        return max((len(h._qp_cache) for h in hcas), default=0)

    def live_qps() -> int:
        return (sum(len(h._qps) for h in hcas)
                + sum(c.prepaid_rc_qps for c in ctxs))

    timeline.add_probe("hca.qp_cache_occupancy", cache_occupancy)
    timeline.add_probe("hca.qp_cache_occupancy_max", cache_occupancy_max)
    timeline.add_probe("hca.qps", live_qps)
    timeline.add_probe("hca.qp_cache_misses",
                       lambda: counters["hca.qp_cache_misses"],
                       kind="counter")

#: RC request kinds a dead QP must NAK (responses/acks are dropped —
#: NAKing a NAK or an ack would ping-pong between two dead QPs).
_NAKABLE_KINDS = ("send", "rdma_write", "rdma_read_req", "atomic_req")


class HCA:
    """A node's InfiniBand adapter."""

    __slots__ = ("sim", "fabric", "node", "lid", "cost", "counters",
                 "_counts", "egress_free_at", "_qps", "_next_qpn",
                 "_qp_cache", "_rkeys", "_revoked_rkeys", "faults", "check")

    def __init__(
        self,
        sim: Simulator,
        fabric: "Fabric",
        node: int,
        lid: int,
        cost: CostModel,
        counters: Counters,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.node = node
        self.lid = lid
        self.cost = cost
        self.counters = counters
        #: The counters' backing dict, bumped in place on the per-packet path.
        self._counts = counters.counts
        #: When this HCA's uplink becomes idle (egress serialisation).
        self.egress_free_at = 0.0
        self._qps: Dict[int, object] = {}
        self._next_qpn = 1
        self._qp_cache: "OrderedDict[int, None]" = OrderedDict()
        self._rkeys: Dict[int, MemoryRegion] = {}
        #: rkeys whose region was deregistered (distinguishes a revoked
        #: handle from one that never existed when NAKing).
        self._revoked_rkeys: Dict[int, None] = {}
        #: Optional fault injector (installed by ``Job`` if ``config.faults``).
        self.faults: Optional["FaultInjector"] = None
        #: Invariant sanitizer (installed by ``Job`` if ``config.check``).
        self.check = None
        fabric.attach(self)

    # -- QP management ----------------------------------------------------
    def alloc_qpn(self) -> int:
        qpn = self._next_qpn
        self._next_qpn += 1
        return qpn

    def try_alloc_rc_context(self, rank: int) -> None:
        """Gate for RC QP creation: the HCA's on-board context memory
        may be (transiently) exhausted under a fault plan, in which
        case creation fails ENOMEM-style and the caller must back off
        and retry (the on-demand conduit does)."""
        faults = self.faults
        if faults is not None and faults.qp_create_fails(rank):
            from ..errors import ResourceExhaustedError

            self.counters.add("hca.qp_enomem")
            raise ResourceExhaustedError(
                f"LID {self.lid:#x}: out of QP context memory (ENOMEM) "
                f"creating RC QP for PE {rank}"
            )

    def register_qp(self, qp) -> None:
        if qp.qpn in self._qps:
            raise ValueError(f"qpn {qp.qpn} already registered on LID {self.lid:#x}")
        self._qps[qp.qpn] = qp
        if self.check is not None:
            self.check.on_qp_registered(qp)

    def destroy_qp(self, qpn: int) -> None:
        self._qps.pop(qpn, None)
        if qpn in self._qp_cache:
            del self._qp_cache[qpn]
            if self.check is not None:
                self.check.on_cache_remove(self)

    def qp(self, qpn: int):
        return self._qps[qpn]

    # -- QP context cache ---------------------------------------------------
    def touch_qp_cache(self, qpn: int) -> float:
        """LRU-touch an RC QP context; returns the miss penalty (us)."""
        cache = self._qp_cache
        if qpn in cache:
            cache.move_to_end(qpn)
            self._counts["hca.qp_cache_hits"] += 1
            if self.check is not None:
                self.check.on_cache_touch(self, hit=True, evicted=False)
            return 0.0
        cache[qpn] = None
        evicted = False
        if len(cache) > self.cost.qp_cache_entries:
            cache.popitem(last=False)
            evicted = True
        self.counters.add("hca.qp_cache_misses")
        if self.check is not None:
            self.check.on_cache_touch(self, hit=False, evicted=evicted)
        return self.cost.qp_cache_miss_penalty_us

    # -- memory routing -------------------------------------------------------
    def expose_memory(self, region: MemoryRegion) -> None:
        """Make a PE's registered region reachable by inbound RDMA."""
        self._rkeys[region.rkey] = region

    def hide_memory(self, region: MemoryRegion) -> None:
        if self._rkeys.pop(region.rkey, None) is not None:
            self._revoked_rkeys[region.rkey] = None

    def memory_target(self, rkey: int) -> MemoryRegion:
        """The region an inbound RDMA's rkey names (its one lookup)."""
        try:
            return self._rkeys[rkey]
        except KeyError:
            if rkey in self._revoked_rkeys:
                raise RemoteAccessError(
                    f"LID {self.lid:#x}: rkey {rkey:#x} revoked "
                    f"(region deregistered)"
                ) from None
            raise RemoteAccessError(
                f"LID {self.lid:#x}: no region with rkey {rkey:#x}"
            ) from None

    # -- packet arrival ---------------------------------------------------------
    def receive(self, packet: "Packet") -> None:
        """Fabric delivery callback (runs at packet-arrival time)."""
        qp = self._qps.get(packet.dst_qpn)
        if qp is None:
            if packet.kind in _NAKABLE_KINDS:
                # An RC *request* aimed at a destroyed QP (e.g. one a
                # disconnect evicted while the WR was in flight): real
                # hardware NAKs it.  The requester turns the NAK into a
                # WCStatus.REMOTE_ACCESS_ERROR completion — same
                # discipline as the deregister race — never a stale
                # write-through, never a hang on a swallowed WR.
                self.counters.add("hca.nak_dead_qp")
                self.fabric.transmit(self, Packet(
                    "nak", packet.src_lid, packet.src_qpn, self.lid,
                    packet.dst_qpn, 16,
                    f"LID {self.lid:#x}: QP {packet.dst_qpn} destroyed",
                    0, 0, packet.token, 0, 0,
                ))
                return
            # Responses/acks/UD for a missing QP: on real hardware
            # these are silently dropped; our protocols never rely on
            # them (and NAKing a response could ping-pong), so drop
            # and count.
            self.counters.add("hca.dropped_no_qp")
            return
        if qp.is_rc:
            penalty = self.touch_qp_cache(packet.dst_qpn)
            if penalty > 0.0:
                sim = self.sim
                sim._schedule_at(sim.now + penalty, qp.handle, packet)
                return
        qp.handle(packet)
