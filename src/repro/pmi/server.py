"""The process-manager side of PMI: one daemon per node, a k-ary tree.

Daemons talk to their node-local clients over a cheap local channel and
to each other over the management Ethernet (TCP cost model).  The tree
implements the fence/allgather dissemination the paper's Figure 1
charges as "PMI Exchange":

* **up phase** -- a daemon that has heard from all local clients and
  all children forwards the merged payload to its parent;
* **down phase** -- the root broadcasts the fully merged payload; each
  daemon forwards to its children (serialising the full data on every
  hop, which is what makes PMI fence scale poorly) and then releases
  its waiting local clients.

Every daemon is a simple state machine with a ``busy_until`` timestamp:
client requests and tree messages queue behind each other, so a daemon
serving 16 local ranks is genuinely a bottleneck, as on real systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..cluster import Cluster
from ..sim import Counters, SimEvent, Simulator
from .kvs import KeyValueStore

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector

__all__ = ["PMIDomain", "Daemon"]


class _SucceedWith:
    """Wave member callback: succeed each waiter with a shared result."""

    __slots__ = ("result",)

    def __init__(self, result: Any) -> None:
        self.result = result

    def __call__(self, ev: SimEvent) -> None:
        ev.succeed(self.result)


@dataclass(slots=True)
class _CollectiveState:
    """Per-daemon progress of one tree collective."""

    local_needed: int
    #: A fence carries counts of staged entries, not values.
    fence: bool = False
    local_arrived: int = 0
    children_needed: int = 0
    children_arrived: int = 0
    #: Merged payload for the subtree rooted here (rank -> value).
    payload: Dict[int, Any] = field(default_factory=dict)
    #: Fence only: running sum of ``payload``'s staged-entry counts.
    staged: int = 0
    up_sent: bool = False
    #: Set once the down-phase result reaches this daemon.
    result: Optional[Dict[int, Any]] = None
    waiters: List[SimEvent] = field(default_factory=list)

    @property
    def entries(self) -> int:
        """KVS entries a tree message carrying ``payload`` holds.

        For a fence, each rank's contribution is the *count* of entries
        it staged (the data that must ride the tree), kept as a running
        sum while contributions merge; for an allgather it is one value
        per rank.
        """
        return max(1, self.staged if self.fence else len(self.payload))


class Daemon:
    """One PMI daemon (e.g. a SLURM step daemon) on one node."""

    __slots__ = ("domain", "node", "nlocal", "busy_until", "staging", "_coll")

    def __init__(self, domain: "PMIDomain", node: int, nlocal: int) -> None:
        self.domain = domain
        self.node = node
        self.nlocal = nlocal
        self.busy_until = 0.0
        self.staging: Dict[str, Any] = {}
        self._coll: Dict[str, _CollectiveState] = {}

    # -- tree geometry ---------------------------------------------------
    @property
    def parent(self) -> Optional[int]:
        if self.node == 0:
            return None
        return (self.node - 1) // self.domain.fanout

    @property
    def children(self) -> List[int]:
        fanout = self.domain.fanout
        first = self.node * fanout + 1
        return [c for c in range(first, first + fanout) if c < self.domain.nnodes]

    # -- request serialisation ----------------------------------------------
    def occupy(self, arrival: float, cpu: float) -> float:
        """Queue ``cpu`` us of daemon work arriving at ``arrival``.

        Returns the completion time; advances ``busy_until``.  A fault
        plan may defer the arrival past a restart (outage) window or
        inflate ``cpu`` by a slowdown factor.
        """
        faults = self.domain.faults
        if faults is not None:
            arrival, cpu = faults.pmi_adjust(self.node, arrival, cpu)
        start = max(arrival, self.busy_until)
        done = start + cpu
        self.busy_until = done
        return done

    # -- collective machinery ---------------------------------------------
    def coll(self, cid: str) -> _CollectiveState:
        state = self._coll.get(cid)
        if state is None:
            state = _CollectiveState(
                local_needed=self.nlocal, fence=cid.startswith("fence:"),
                children_needed=len(self.children),
            )
            self._coll[cid] = state
        return state

    def local_contribution(self, cid: str, rank: int, value: Any, when: float) -> None:
        """A local client's contribution, already daemon-time adjusted."""
        state = self.coll(cid)
        state.local_arrived += 1
        if value is not None:
            state.payload[rank] = value
            if state.fence:
                state.staged += int(value)
        self.domain._check_progress(self, cid, when)

    def child_contribution(
        self, cid: str, payload: Dict[int, Any], staged: int, when: float
    ) -> None:
        state = self.coll(cid)
        state.children_arrived += 1
        state.payload.update(payload)
        state.staged += staged
        self.domain._check_progress(self, cid, when)

    def deliver_down(self, cid: str, result: Dict[int, Any], entries: int,
                     when: float) -> None:
        state = self.coll(cid)
        state.result = result
        self.domain._propagate_down(self, cid, entries, when)


class PMIDomain:
    """The whole process-manager: daemons, tree, committed KVS."""

    def __init__(self, sim: Simulator, cluster: Cluster, counters: Counters) -> None:
        self.sim = sim
        self.cluster = cluster
        self.cost = cluster.cost
        self.counters = counters
        self.fanout = max(2, cluster.cost.pmi_tree_fanout)
        self.nnodes = cluster.nnodes
        #: Optional fault injector (installed by ``Job`` if ``config.faults``).
        self.faults: Optional["FaultInjector"] = None
        #: Flight recorder (installed by ``Job`` if ``config.observe``).
        self.obs = None
        #: Invariant sanitizer (installed by ``Job`` if ``config.check``).
        self.check = None
        self.kvs = KeyValueStore()
        self.daemons = [
            Daemon(self, node, len(cluster.ranks_on_node(node)))
            for node in range(cluster.nnodes)
        ]

    def daemon_of(self, rank: int) -> Daemon:
        return self.daemons[self.cluster.node_of(rank)]

    def install_timeline_probes(self, timeline) -> None:
        """Register PMI time-series probes (pure reads; see the
        determinism contract in :mod:`repro.obs.timeline`)."""
        timeline.add_probe("pmi.kvs_keys", self.kvs.__len__)
        timeline.add_probe(
            "pmi.collectives",
            lambda: sum(len(d._coll) for d in self.daemons),
        )

    # ------------------------------------------------------------------
    # Tree message timing
    # ------------------------------------------------------------------
    def _tree_send(
        self,
        src: Daemon,
        dst: Daemon,
        entries: int,
        fn: Callable[[float], None],
        when: float,
    ) -> None:
        """Send a tree message carrying ``entries`` KVS entries.

        ``fn(t)`` runs at the destination once the message is received
        *and* processed (it may then trigger further sends).
        """
        nbytes = max(64, entries * self.cost.pmi_entry_bytes)
        ser_cpu = entries * self.cost.pmi_entry_cpu_us
        send_done = src.occupy(when, ser_cpu)
        arrival = send_done + self.cost.pmi_tcp_time(nbytes)
        proc_done_holder = {}

        def on_arrival(_arg) -> None:
            done = dst.occupy(
                self.sim.now, self.cost.pmi_server_cpu_us + ser_cpu
            )
            self.sim._schedule_at(done, lambda _a: fn(done), None)

        self.sim._schedule_at(arrival, on_arrival, None)
        self.counters.add("pmi.tree_messages")
        self.counters.add("pmi.tree_bytes", nbytes)
        if self.obs is not None:
            self.obs.spans.event(
                "pmi.tree_send", "pmi",
                src_node=src.node, dst_node=dst.node, nbytes=nbytes,
            )

    # ------------------------------------------------------------------
    # Collective progress
    # ------------------------------------------------------------------
    def _check_progress(self, daemon: Daemon, cid: str, when: float) -> None:
        state = daemon.coll(cid)
        if state.up_sent:
            return
        if (
            state.local_arrived >= state.local_needed
            and state.children_arrived >= state.children_needed
        ):
            state.up_sent = True
            parent = daemon.parent
            entries = state.entries
            if parent is None:
                # Root: subtree payload is the full result.
                if state.fence:
                    self.kvs.commit(self._collect_staging())
                daemon.deliver_down(cid, state.payload, entries, when)
            else:
                dst = self.daemons[parent]
                payload, staged = state.payload, state.staged
                self._tree_send(
                    daemon,
                    dst,
                    entries=entries,
                    fn=lambda t: dst.child_contribution(cid, payload, staged, t),
                    when=when,
                )

    def _collect_staging(self) -> Dict[str, Any]:
        staged: Dict[str, Any] = {}
        for d in self.daemons:
            staged.update(d.staging)
            d.staging = {}
        return staged

    def _propagate_down(self, daemon: Daemon, cid: str, entries: int,
                        when: float) -> None:
        """Forward the result (``entries`` KVS entries) to the children,
        then release the local waiters."""
        state = daemon.coll(cid)
        assert state.result is not None
        t = when
        for child in daemon.children:
            dst = self.daemons[child]
            self._tree_send(
                daemon,
                dst,
                entries=entries,
                fn=lambda tt, d=dst: d.deliver_down(cid, state.result,
                                                    entries, tt),
                when=t,
            )
        # Release local waiters after the daemon finished its down work.
        # All waiters share one release instant, so the whole fence wave
        # goes out as a single aggregate: one heap entry, one
        # contiguous seq block — byte-identical order to the former
        # per-waiter scheduling loop (see repro.sim.wave).
        release_at = max(when, daemon.busy_until) + self.cost.pmi_local_rtt_us / 2
        if state.waiters:
            self.sim.schedule_wave(
                release_at, _SucceedWith(state.result), state.waiters
            )
            state.waiters = []
