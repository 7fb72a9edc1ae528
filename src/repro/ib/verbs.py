"""Per-PE verbs context: the API upper layers program against.

All *time-charging* happens here: methods are generators the calling
PE-process must ``yield from``, so every CPU/HCA cost lands on the
right actor's timeline.  Protocol state changes themselves live in
:mod:`repro.ib.qp`.

The context also keeps the per-process **resource ledger** (QPs,
connections, registered bytes, QP memory) that Figure 9 and Table I
report.

Bulk accounting (static wire-up at scale)
-----------------------------------------
A fully-connected job at 8K PEs would need 67M QP objects — far beyond
what any simulator can hold.  The static conduit therefore uses
:meth:`VerbsContext.bulk_charge_rc_qps`, which charges the *exact same*
time and memory as ``n`` individual create+INIT+RTR+RTS sequences and
books them in the ledger, while actual QP objects are materialised
lazily on first use (with the creation cost already paid, so none is
charged again).  This is semantically equivalent for every quantity the
paper measures and is documented as a simulation technique in DESIGN.md.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..cluster import CostModel
from ..errors import RemoteAccessError, VerbsError
from ..sim import Counters, Simulator
from .cq import CompletionQueue
from .hca import HCA
from .memory import MemoryManager, MemoryRegion
from .qp import RCQueuePair, UDQueuePair
from .types import EndpointAddress, WCStatus

__all__ = ["VerbsContext"]


class VerbsContext:
    """One PE's handle onto its node's HCA."""

    __slots__ = ("sim", "hca", "rank", "cost", "counters", "mm",
                 "rc_qps_created", "ud_qps_created", "connections_established",
                 "qp_memory_bytes", "registered_bytes", "prepaid_rc_qps")

    def __init__(
        self,
        sim: Simulator,
        hca: HCA,
        rank: int,
        cost: CostModel,
        counters: Counters,
    ) -> None:
        self.sim = sim
        self.hca = hca
        self.rank = rank
        self.cost = cost
        self.counters = counters
        self.mm = MemoryManager(rank)
        # -- resource ledger (per process) --
        self.rc_qps_created = 0
        self.ud_qps_created = 0
        self.connections_established = 0
        self.qp_memory_bytes = 0
        self.registered_bytes = 0
        #: QPs pre-charged by bulk accounting that may be materialised
        #: free: paid for and connected, but not yet objects.
        self.prepaid_rc_qps = 0

    # ------------------------------------------------------------------
    # CQs
    # ------------------------------------------------------------------
    def create_cq(self) -> CompletionQueue:
        return CompletionQueue(self.sim)

    # ------------------------------------------------------------------
    # UD
    # ------------------------------------------------------------------
    def create_ud_qp(
        self, send_cq: CompletionQueue, recv_cq: CompletionQueue
    ) -> Generator:
        """Create and activate a UD QP (yields creation time)."""
        yield self.cost.ud_qp_create_us
        qp = UDQueuePair(self.hca, send_cq, recv_cq, self.rank)
        qp.activate()
        self.ud_qps_created += 1
        self.qp_memory_bytes += self.cost.ud_qp_memory_bytes
        self.counters.add("verbs.ud_qp_created")
        return qp

    def ud_send(
        self, qp: UDQueuePair, dst: EndpointAddress, payload, nbytes: int,
        wr_id: int = 0,
    ) -> Generator:
        yield self.cost.post_wr_us
        qp.post_send(dst, payload, nbytes, wr_id=wr_id)

    # ------------------------------------------------------------------
    # RC
    # ------------------------------------------------------------------
    def create_rc_qp(
        self,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        prepaid: bool = False,
    ) -> Generator:
        """Create an RC QP in RESET (yields creation time unless prepaid)."""
        if prepaid and self.prepaid_rc_qps > 0:
            self.prepaid_rc_qps -= 1
        else:
            yield self.cost.rc_qp_create_us
            # A fault plan may fail the creation ENOMEM-style *after*
            # the attempt's time is spent, as a real ibv_create_qp does.
            self.hca.try_alloc_rc_context(self.rank)
            self.rc_qps_created += 1
            self.qp_memory_bytes += self.cost.rc_qp_memory_bytes
            self.counters.add("verbs.rc_qp_created")
        qp = RCQueuePair(self.hca, send_cq, recv_cq, self.rank)
        return qp

    def connect_rc_qp(
        self, qp: RCQueuePair, remote: EndpointAddress, prepaid: bool = False
    ) -> Generator:
        """Drive the QP through INIT->RTR->RTS toward ``remote``."""
        if not prepaid:
            yield self.cost.qp_modify_init_us
        qp.modify_to_init()
        if not prepaid:
            yield self.cost.qp_modify_rtr_us
        qp.modify_to_rtr(remote)
        if not prepaid:
            yield self.cost.qp_modify_rts_us
        qp.modify_to_rts()
        if not prepaid:
            self.connections_established += 1
            self.qp_memory_bytes += self.cost.conn_state_bytes
            self.counters.add("verbs.rc_connected")
        if False:  # pragma: no cover - keeps this a generator when prepaid
            yield

    def modify_init(self, qp: RCQueuePair) -> Generator:
        """RESET -> INIT (charged)."""
        yield self.cost.qp_modify_init_us
        qp.modify_to_init()

    def modify_rtr(self, qp: RCQueuePair, remote: EndpointAddress) -> Generator:
        """INIT -> RTR toward ``remote`` (charged)."""
        yield self.cost.qp_modify_rtr_us
        qp.modify_to_rtr(remote)

    def modify_rts(self, qp: RCQueuePair) -> Generator:
        """RTR -> RTS (charged); books the established connection."""
        yield self.cost.qp_modify_rts_us
        qp.modify_to_rts()
        self.connections_established += 1
        self.qp_memory_bytes += self.cost.conn_state_bytes
        self.counters.add("verbs.rc_connected")

    def destroy_qp(self, qp) -> Generator:
        """Tear a QP down (charged)."""
        yield self.cost.qp_destroy_us
        qp.destroy()

    def bulk_charge_qp_destroy(self, n: int) -> Generator:
        """Charge teardown time for ``n`` QPs without materialising them;
        the prepaid QPs never materialised are gone after it."""
        yield n * self.cost.qp_destroy_us
        self.prepaid_rc_qps = 0

    def bulk_charge_rc_qps(self, n: int, connect: bool = True) -> Generator:
        """Charge time+memory for ``n`` full RC QP setups without objects.

        Used by the static conduit's wire-up (see module docstring).
        ``connect=True`` additionally charges the three state
        transitions and counts the connections.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        per_qp = self.cost.rc_qp_create_us
        if connect:
            per_qp += (
                self.cost.qp_modify_init_us
                + self.cost.qp_modify_rtr_us
                + self.cost.qp_modify_rts_us
            )
        yield n * per_qp
        self.rc_qps_created += n
        self.qp_memory_bytes += n * self.cost.rc_qp_memory_bytes
        if connect:
            self.connections_established += n
            self.qp_memory_bytes += n * self.cost.conn_state_bytes
            self.counters.add("verbs.rc_connected", n)
        self.prepaid_rc_qps += n
        self.counters.add("verbs.rc_qp_created", n)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def reg_mr(self, addr: int, model_bytes: Optional[int] = None) -> Generator:
        """Register the allocation at ``addr`` (yields pinning time).

        ``model_bytes`` overrides the size used for the *cost and
        accounting* (see SymmetricHeap: the simulator may back a large
        modelled region with a smaller real buffer).  Only the
        allocation size is read: the backing array stays lazy until the
        first data access.
        """
        size = self.mm._size_of(addr)
        size_for_cost = model_bytes if model_bytes is not None else size
        yield self.cost.mr_register_us(size_for_cost)
        region = self.mm.register(addr)
        self.hca.expose_memory(region)
        self.registered_bytes += size_for_cost
        self.counters.add("verbs.mr_registered")
        return region

    def dereg_mr(self, region: MemoryRegion) -> Generator:
        yield self.cost.mr_deregister_us
        self.hca.hide_memory(region)
        self.mm.deregister(region)
        self.registered_bytes -= region.size

    # ------------------------------------------------------------------
    # Posting helpers (charge post overhead, then fire)
    # ------------------------------------------------------------------
    def post_send(self, qp: RCQueuePair, payload, nbytes: int, wr_id: int = 0):
        yield self.cost.post_wr_us
        qp.post_send(payload, nbytes, wr_id=wr_id)

    def post_rdma_write(
        self, qp: RCQueuePair, data: bytes, raddr: int, rkey: int, wr_id: int = 0
    ):
        yield self.cost.post_wr_us
        qp.post_rdma_write(data, raddr, rkey, wr_id=wr_id)

    def post_rdma_read(
        self, qp: RCQueuePair, nbytes: int, raddr: int, rkey: int, wr_id: int = 0
    ):
        yield self.cost.post_wr_us
        qp.post_rdma_read(nbytes, raddr, rkey, wr_id=wr_id)

    def post_atomic(
        self,
        qp: RCQueuePair,
        op: str,
        raddr: int,
        rkey: int,
        compare: int = 0,
        swap_or_add: int = 0,
        wr_id: int = 0,
    ):
        yield self.cost.post_wr_us + self.cost.atomic_extra_us
        qp.post_atomic(
            op, raddr, rkey, compare=compare, swap_or_add=swap_or_add, wr_id=wr_id
        )

    def poll(self, cq: CompletionQueue):
        """Wait for (and charge the poll cost of) one completion.

        Error completions raise at the requester, as real verbs users
        treat them: a remote-access NAK (e.g. the target deregistered
        the region mid-flight) surfaces as :class:`RemoteAccessError`,
        anything else as :class:`VerbsError`.
        """
        wc = yield cq.wait()
        yield self.cost.poll_cq_us
        if wc.status is not WCStatus.SUCCESS:
            if wc.status is WCStatus.REMOTE_ACCESS_ERROR:
                raise RemoteAccessError(
                    f"PE {self.rank}: {wc.opcode.value} wr_id={wc.wr_id} "
                    f"failed remotely: {wc.data}"
                )
            raise VerbsError(
                f"PE {self.rank}: {wc.opcode.value} wr_id={wc.wr_id} "
                f"completed with {wc.status.value}"
            )
        return wc
