"""Base conduit: endpoints, progress engine, active messages, RMA.

The conduit is the GASNet-like layer between the runtime (OpenSHMEM /
MPI) and the verbs substrate.  One conduit object per PE.  Concrete
subclasses decide *when connections are made*:

* :class:`repro.gasnet.static_conduit.StaticConduit` — full wire-up at
  init (the ibv-conduit behaviour the paper starts from);
* :class:`repro.gasnet.ondemand_conduit.OnDemandConduit` — the paper's
  contribution: UD handshake on first communication, with the upper
  layer's *exchange payload* (segment keys) piggybacked.

Design notes
------------
* All PEs of a node share the node's HCA; **intra-node** peers use a
  shared-memory path (no QPs, no connections) — this matches the
  MVAPICH2-X unified runtime and is what makes the paper's intra-node
  barrier free of fabric connections.
* Each PE runs a **progress process** (the paper's "connection manager
  thread", Fig. 4) draining one shared receive CQ: UD handshake
  packets and RC active messages both land there.
* Blocking RMA/AM operations serialise per connection (a lock models
  non-thread-safe QP posting); handlers run in the progress process and
  must never initiate AMs themselves (documented no-deadlock rule —
  collectives put all sends in the main process).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional

from ..cluster import Cluster
from ..errors import ConduitError
from ..ib import (
    CompletionQueue,
    EndpointAddress,
    RCQueuePair,
    UDQueuePair,
    VerbsContext,
    WorkCompletion,
)
from ..ib.types import Opcode
from ..pmi import PMIClient, PMIHandle
from ..sim import Semaphore, Simulator, Tracer, spawn
from .messages import (
    ActiveMessage,
    ConnectReply,
    ConnectRequest,
    Disconnect,
    DisconnectAck,
)

_HANDSHAKE = (ConnectRequest, ConnectReply, Disconnect, DisconnectAck)

__all__ = [
    "Conduit",
    "ConduitNetwork",
    "Connection",
    "install_timeline_probes",
]


def install_timeline_probes(timeline, conduits: List["Conduit"],
                            counters) -> None:
    """Register the conduit layer's time-series probes.

    Called by ``Job`` when a telemetry timeline is enabled.  Every
    callable is a pure read of live conduit state — the determinism
    contract in :mod:`repro.obs.timeline` depends on that.

    ``conduit.peak_connections`` samples the running high-water mark
    (not the instantaneous sum), so the timeline's recorded peak equals
    the scalar peak the experiments report even when a transient
    maximum falls between two sampling ticks.
    """
    def pe_connections(c: "Conduit") -> int:
        # A static conduit's prepaid QPs are connections too; each one
        # leaves the prepaid count as it joins ``_conns``.
        return len(c._conns) + c.ctx.prepaid_rc_qps

    def live_connections() -> int:
        return sum(map(pe_connections, conduits))

    def max_pe_connections() -> int:
        return max(map(pe_connections, conduits), default=0)

    def peak_connections() -> int:
        return max((c.peak_connections for c in conduits), default=0)

    def draining() -> int:
        return sum(link.drain is not None
                   for c in conduits for link in c._links.values())

    def outstanding_wrs() -> int:
        total = 0
        for c in conduits:
            for conn in c._conns.values():
                total += len(conn.qp._pending)
        return total

    timeline.add_probe("conduit.connections", live_connections)
    timeline.add_probe("conduit.connections_max_pe", max_pe_connections)
    timeline.add_probe("conduit.peak_connections", peak_connections)
    timeline.add_probe("conduit.draining", draining)
    timeline.add_probe("conduit.outstanding_wrs", outstanding_wrs)
    # Cumulative counts sampled over time; the diff tool reports their
    # peak and final value like any series.  Counters.__getitem__ reads
    # without inserting, so these are side-effect-free too.
    timeline.add_probe("conduit.evictions", lambda: counters["conduit.evictions"],
                       kind="counter")
    timeline.add_probe("conduit.reconnects",
                       lambda: counters["conduit.reconnects"], kind="counter")
    timeline.add_probe(
        "conduit.ud_retransmits",
        lambda: (counters["conduit.connect_retries"]
                 + counters["conduit.disconnect_retries"]),
        kind="counter",
    )


class ConduitNetwork:
    """Registry of every PE's conduit in one job (for intra-node paths
    and lazy QP materialisation)."""

    def __init__(self) -> None:
        self._conduits: Dict[int, "Conduit"] = {}
        #: Job-wide memo for bootstrap data that is identical on every
        #: PE (e.g. the parsed UD directory) — avoids O(N^2) Python
        #: work at scale.  Timing is still charged per PE.
        self.shared_cache: Dict[str, Any] = {}
        #: Optional protocol tracer shared by every conduit (installed
        #: by ``Job(trace=True)``); used by the golden-trace
        #: determinism tests.
        self.tracer: Optional[Tracer] = None
        #: Flight recorder (repro.obs.Observability) shared by every
        #: conduit; installed by ``Job`` if ``config.observe``, else None.
        self.obs = None
        #: Invariant sanitizer shared by every conduit; installed by
        #: ``Job`` if ``config.check``, else None.
        self.check = None

    def register(self, conduit: "Conduit") -> None:
        self._conduits[conduit.rank] = conduit

    def peer(self, rank: int) -> "Conduit":
        return self._conduits[rank]

    def __len__(self) -> int:
        return len(self._conduits)


@dataclass(slots=True)
class Connection:
    """An established RC connection to one remote peer."""

    peer: int
    qp: RCQueuePair
    send_cq: CompletionQueue
    lock: Semaphore
    #: Lifecycle bookkeeping — only maintained when an eviction policy
    #: is installed (:class:`repro.gasnet.lifecycle.LifecyclePolicy`);
    #: stays at the defaults otherwise.
    last_used_us: float = 0.0
    credits: int = 0


class Conduit:
    """Abstract base conduit (one per PE)."""

    #: Subclass tag used in reports ("static" / "on-demand").
    mode = "abstract"

    # One conduit per PE: slots keep 8K of them from carrying a dict each.
    __slots__ = ("sim", "network", "ctx", "cluster", "cost", "pmi", "rank",
                 "counters", "tracer", "obs", "check", "_handlers", "_conns",
                 "_recv_cq", "_ud_send_cq", "ud_qp", "_ud_directory",
                 "_dir_handle", "_dir_parser", "_exchange_payload",
                 "_payload_cb", "_ready", "_held_requests", "_closed",
                 "touched_peers", "lifecycle", "peak_connections")

    #: Per-peer handshake records (:class:`~repro.gasnet.ondemand_conduit.
    #: PeerLink`); a conduit that never handshakes has none.
    _links: Mapping[int, Any] = MappingProxyType({})

    def __init__(
        self,
        sim: Simulator,
        network: ConduitNetwork,
        ctx: VerbsContext,
        cluster: Cluster,
        pmi: PMIClient,
        rank: int,
    ) -> None:
        self.sim = sim
        self.network = network
        self.ctx = ctx
        self.cluster = cluster
        self.cost = cluster.cost
        self.pmi = pmi
        self.rank = rank
        self.counters = ctx.counters
        self.tracer = network.tracer
        self.obs = network.obs
        self.check = network.check

        self._handlers: Dict[str, Callable] = {}
        self._conns: Dict[int, Connection] = {}
        self._recv_cq: Optional[CompletionQueue] = None
        self._ud_send_cq: Optional[CompletionQueue] = None
        self.ud_qp: Optional[UDQueuePair] = None

        #: rank -> EndpointAddress of every peer's UD QP, or None until
        #: resolved (possibly from a non-blocking PMI handle).
        self._ud_directory: Optional[Dict[int, EndpointAddress]] = None
        self._dir_handle: Optional[PMIHandle] = None
        self._dir_parser: Optional[Callable[[Any], EndpointAddress]] = None

        #: Opaque blob piggybacked on connect request/reply.
        self._exchange_payload: bytes = b""
        #: Callback(peer, payload_bytes) when a peer's blob arrives.
        self._payload_cb: Optional[Callable[[int, bytes], None]] = None

        #: Server-side readiness (Section IV-E: replies are held until
        #: the PE has registered its own segments).
        self._ready = False
        self._held_requests: List[ConnectRequest] = []
        #: Set once teardown begins; late handshake traffic must be
        #: dropped, not served (it would leak a half-open QP).
        self._closed = False

        #: Distinct peers this PE initiated communication with over any
        #: path (fabric or intra-node) — what Table I counts.
        self.touched_peers: set = set()

        #: Eviction policy (:class:`~repro.gasnet.lifecycle.
        #: LifecyclePolicy`) or None.  Installed only on the on-demand
        #: conduit; every lifecycle code path hides behind this one
        #: pointer check, like obs/faults/check.
        self.lifecycle = None
        #: High-water mark of simultaneously established connections
        #: (what a bounded-footprint claim is measured against).
        self.peak_connections = 0

        network.register(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def init_endpoint(self) -> Generator:
        """Create the UD endpoint + shared CQ and start the progress
        engine.  Must run before anything else."""
        self._recv_cq = self.ctx.create_cq()
        self._ud_send_cq = self.ctx.create_cq()
        self.ud_qp = yield from self.ctx.create_ud_qp(
            self._ud_send_cq, self._recv_cq
        )
        spawn(self.sim, self._progress_loop(), name=f"progress-{self.rank}")

    @property
    def ud_address(self) -> EndpointAddress:
        if self.ud_qp is None:
            raise ConduitError(f"PE {self.rank}: endpoint not initialised")
        return self.ud_qp.address

    def mark_ready(self) -> None:
        """Segments registered: serve any held connect requests."""
        self._ready = True
        held, self._held_requests = self._held_requests, []
        for req in held:
            spawn(
                self.sim,
                self._on_handshake(req),
                name=f"held-req-{self.rank}<-{req.src_rank}",
            )

    def shutdown(self) -> Generator:
        """Tear down all materialised connections (charged per QP)."""
        self._closed = True
        for conn in list(self._conns.values()):
            yield from self.ctx.destroy_qp(conn.qp)
        self._conns.clear()
        if self.ud_qp is not None:
            yield self.cost.qp_destroy_us
            self.ud_qp.destroy()

    # ------------------------------------------------------------------
    # directory / payload plumbing
    # ------------------------------------------------------------------
    def set_ud_directory(self, directory: Dict[int, EndpointAddress]) -> None:
        """Install a fully resolved rank -> UD address map."""
        self._ud_directory = directory

    def set_ud_directory_handle(
        self,
        handle: PMIHandle,
        parser: Optional[Callable[[Any], EndpointAddress]] = None,
    ) -> None:
        """Install a *pending* directory: an iallgather handle whose
        per-rank values ``parser`` turns into endpoint addresses
        (``None`` when the values already are addresses).  The conduit
        waits on it lazily, at first use (Section IV-D)."""
        self._dir_handle = handle
        self._dir_parser = parser

    def resolve_directory(self) -> Generator:
        """Block until the UD directory is available."""
        if self._ud_directory is None:
            if self._dir_handle is None:
                raise ConduitError(
                    f"PE {self.rank}: no UD directory and no pending handle"
                )
            result = yield self._dir_handle.wait()
            if self._dir_parser is None:
                # Values already are endpoint addresses; every PE shares
                # the collective's result object.
                self._ud_directory = result
            else:
                cached = self.network.shared_cache.get("ud_directory")
                if cached is None:
                    cached = {r: self._dir_parser(v) for r, v in result.items()}
                    self.network.shared_cache["ud_directory"] = cached
                self._ud_directory = cached
        return self._ud_directory

    def set_exchange_payload(self, data: bytes) -> None:
        """Blob to piggyback on connect packets (opaque to the conduit)."""
        self._exchange_payload = bytes(data)

    def on_peer_payload(self, callback: Callable[[int, bytes], None]) -> None:
        self._payload_cb = callback

    def _deliver_payload(self, peer: int, payload: bytes) -> None:
        if self._payload_cb is not None and payload:
            self._payload_cb(peer, payload)

    # ------------------------------------------------------------------
    # connection state
    # ------------------------------------------------------------------
    def is_connected(self, peer: int) -> bool:
        return peer in self._conns

    @property
    def connection_count(self) -> int:
        return len(self._conns)

    def _register_connection(self, peer: int, qp: RCQueuePair,
                             send_cq: CompletionQueue) -> Connection:
        if self.check is not None and peer in self._conns:
            self.check.on_protocol_error(
                self.rank, "handshake.duplicate_connection",
                f"second connection registered for peer {peer}",
            )
        conn = Connection(
            peer=peer, qp=qp, send_cq=send_cq, lock=Semaphore(self.sim, 1)
        )
        self._conns[peer] = conn
        if len(self._conns) > self.peak_connections:
            self.peak_connections = len(self._conns)
        lc = self.lifecycle
        if lc is not None:
            conn.last_used_us = self.sim.now
            conn.credits = lc.credits
        self.counters.add("conduit.connections")
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "connected", peer)
        return conn

    def ensure_connected(self, peer: int) -> Generator:
        """Guarantee an RC connection to ``peer`` exists (may block)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _acquire_conn(self, peer: int) -> Generator:
        """Connect (if needed) and return the connection, lock held.

        Re-validates after the lock acquisition: with a lifecycle policy
        installed the reaper can evict the connection between
        ``ensure_connected`` and the acquire (the drain itself holds the
        lock), so a poster waking up must check it still owns the *live*
        incarnation and transparently reconnect otherwise.  The caller
        must release ``conn.lock``.
        """
        while True:
            yield from self.ensure_connected(peer)
            conn = self._conns[peer]
            yield conn.lock.acquire()
            if self._conns.get(peer) is conn:
                lc = self.lifecycle
                if lc is not None:
                    conn.last_used_us = self.sim.now
                    conn.credits = lc.credits
                return conn
            conn.lock.release()

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def _progress_loop(self) -> Generator:
        while True:
            wc = yield self._recv_cq.wait()
            msg = wc.data
            tr = self.tracer
            if tr is not None and tr.enabled:
                tr.log(
                    f"pe{self.rank}", "rx",
                    (type(msg).__name__, getattr(msg, "src_rank", None)),
                )
            if isinstance(msg, ActiveMessage):
                lc = self.lifecycle
                if lc is not None:
                    conn = self._conns.get(msg.src_rank)
                    if conn is not None:
                        conn.last_used_us = self.sim.now
                        conn.credits = lc.credits
                yield self.cost.am_handler_cpu_us
                yield from self._dispatch_am(msg)
            elif isinstance(msg, _HANDSHAKE):
                yield from self._on_handshake(msg)
            else:  # pragma: no cover - protocol guard
                raise ConduitError(
                    f"PE {self.rank}: unexpected message {msg!r}"
                )

    def _on_handshake(self, msg) -> Generator:
        """Only the on-demand conduit speaks the UD handshake."""
        raise ConduitError(
            f"PE {self.rank}: unexpected {type(msg).__name__} from "
            f"{msg.src_rank} on a {self.mode} conduit"
        )
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # active messages
    # ------------------------------------------------------------------
    def register_handler(self, name: str, fn: Callable) -> None:
        """Register AM handler ``fn(src_rank, data)`` (may be a generator).

        Handlers run in the progress process and MUST NOT send AMs or
        block on remote state (no-deadlock rule).
        """
        if name in self._handlers:
            raise ConduitError(f"duplicate AM handler {name!r}")
        self._handlers[name] = fn

    def _dispatch_am(self, msg: ActiveMessage) -> Generator:
        try:
            fn = self._handlers[msg.handler]
        except KeyError:
            raise ConduitError(
                f"PE {self.rank}: no AM handler {msg.handler!r}"
            ) from None
        result = fn(msg.src_rank, msg.data)
        if hasattr(result, "send"):  # generator handler
            yield from result
        else:
            return
        if False:  # pragma: no cover
            yield

    def am_send(self, peer: int, handler: str, data: Any = None,
                data_bytes: int = 0) -> Generator:
        """Send an active message (blocks until delivered/acked)."""
        msg = ActiveMessage(
            src_rank=self.rank, handler=handler, data=data,
            data_bytes=data_bytes,
        )
        self.counters.add("conduit.am_sent")
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "am_send", (peer, handler))
        if peer != self.rank:
            self.touched_peers.add(peer)
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            yield from self._intra_deliver(peer, msg)
            return
        conn = yield from self._acquire_conn(peer)
        try:
            yield from self.ctx.post_send(conn.qp, msg, msg.nbytes)
            yield from self.ctx.poll(conn.send_cq)  # ack
        finally:
            conn.lock.release()

    def _intra_deliver(self, peer: int, msg: ActiveMessage) -> Generator:
        """Shared-memory delivery to a same-node peer's progress engine."""
        yield self.cost.post_wr_us
        delay = self.cost.intra_node_time(msg.nbytes)
        target_cq = self.network.peer(peer)._recv_cq
        wc = WorkCompletion(
            wr_id=0, opcode=Opcode.RECV, byte_len=msg.nbytes, data=msg
        )
        self.sim._schedule_at(self.sim.now + delay, target_cq.push, wc)
        self.counters.add("conduit.intra_am")

    # ------------------------------------------------------------------
    # RMA (blocking; see module docstring)
    # ------------------------------------------------------------------
    def rdma_put(self, peer: int, data: bytes, raddr: int, rkey: int) -> Generator:
        self.counters.add("conduit.puts")
        self.counters.add("conduit.put_bytes", len(data))
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "put", (peer, len(data)))
        if peer != self.rank:
            self.touched_peers.add(peer)
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            yield self.cost.intra_node_time(len(data))
            self.network.peer(peer).ctx.mm.rdma_write(raddr, rkey, data)
            return
        conn = yield from self._acquire_conn(peer)
        try:
            yield from self.ctx.post_rdma_write(conn.qp, data, raddr, rkey)
            yield from self.ctx.poll(conn.send_cq)
        finally:
            conn.lock.release()

    def rdma_get(self, peer: int, nbytes: int, raddr: int, rkey: int) -> Generator:
        self.counters.add("conduit.gets")
        self.counters.add("conduit.get_bytes", nbytes)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "get", (peer, nbytes))
        if peer != self.rank:
            self.touched_peers.add(peer)
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            yield self.cost.intra_node_time(nbytes)
            return self.network.peer(peer).ctx.mm.rdma_read(raddr, rkey, nbytes)
        conn = yield from self._acquire_conn(peer)
        try:
            yield from self.ctx.post_rdma_read(conn.qp, nbytes, raddr, rkey)
            wc = yield from self.ctx.poll(conn.send_cq)
            return wc.data
        finally:
            conn.lock.release()

    def atomic(self, peer: int, op: str, raddr: int, rkey: int,
               compare: int = 0, operand: int = 0) -> Generator:
        """64-bit remote atomic; returns the old value."""
        self.counters.add("conduit.atomics")
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "atomic", (peer, op))
        if peer != self.rank:
            self.touched_peers.add(peer)
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            yield self.cost.intra_node_time(8) + self.cost.atomic_extra_us
            return self.network.peer(peer).ctx.mm.atomic(
                raddr, rkey, op, compare, operand
            )
        conn = yield from self._acquire_conn(peer)
        try:
            yield from self.ctx.post_atomic(
                conn.qp, op, raddr, rkey, compare=compare, swap_or_add=operand
            )
            wc = yield from self.ctx.poll(conn.send_cq)
            return wc.data
        finally:
            conn.lock.release()

    # ------------------------------------------------------------------
    # UD helpers for the handshake
    # ------------------------------------------------------------------
    def _ud_send(self, dst: EndpointAddress, msg, nbytes: int) -> Generator:
        yield from self.ctx.ud_send(self.ud_qp, dst, msg, nbytes)
        self._ud_send_cq.drain()
