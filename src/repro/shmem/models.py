"""Macro phase models for ``start_pes`` (the analytical phase layer).

:func:`run_macro_job` is the orchestrator behind
``RuntimeConfig(macro=True)``: it reproduces one job's startup metrics
without stepping a per-PE protocol coroutine swarm.  Two strategies,
matched to the two design corners the macro layer supports:

* **On-demand (the paper's proposed design)** — every startup phase is
  homogeneous and data-independent: endpoint creation, the
  PMIX_Iallgather launch (which charges *zero* client time — the
  daemon-tree work happens in the background), memory registration,
  shared-memory setup and two intra-node barriers.  The whole flow
  reduces to per-PE closed-form arithmetic plus a per-node max for the
  barrier release — O(npes) float ops, O(1) simulator events (none).
  This is the path that carries a 1,048,576-PE Figure-5 point.

* **Static (the baseline)** — the blocking Put/Fence/Get exchange and
  the two global AM-tree barriers serialise through the PMI daemon
  tree and the conduit, so instead of a fragile closed form the macro
  layer runs a *condensed replica*: the real simulator, PMI daemons,
  fabric, verbs contexts and static conduits, driven by one flat
  generator per PE that mirrors ``_static_startup`` statement by
  statement — but with no :class:`~repro.shmem.runtime.ShmemPE`, no
  segment tables, no observability shims.  Timing is exact by
  construction (the engine sees the identical yield sequence); what is
  saved is the per-PE object graph, which is what limits the exact
  engine's scale.  The static corner is never run at macro scale — it
  exists so the equivalence fixtures can cross-check both corners.

Equivalence contract (see ``tests/core/test_macro_equivalence.py``):
phase-timing breakdowns, ``init_duration`` / ``init_done_at``, the
deterministic per-layer counters and the resource snapshots are
reproduced bit for bit against the exact engine.  For the on-demand
corner, ``wall_time_us``, the finalize-path counters and the resource
snapshot come from the lossless-UD model in :mod:`repro.gasnet.models`
(the exact engine draws UD-loss randomness there, and its per-PE
snapshot can catch finalize-phase connect traffic from early
finishers) and are reported in ``MacroRunResult.modeled`` rather than
asserted.
"""

from __future__ import annotations

import gc
import math
from typing import Dict, Generator, List

from ..cluster import Cluster
from ..errors import ConfigError
from ..gasnet import ConduitNetwork, StaticConduit
from ..gasnet.models import exchange_payload_bytes, finalize_model
from ..ib import HCA, Fabric, VerbsContext
from ..pmi import PMIClient, PMIDomain
from ..pmi.models import iallgather_release_times, iallgather_tree_counters
from ..sim import (
    Counters,
    Mailbox,
    PhaseTimer,
    RngRegistry,
    Simulator,
    Tracer,
    spawn,
    spawn_batch,
)
from ..sim.macro import MacroPE, MacroRunResult
from .collectives import tree_parent_children
from .context import COLL_HANDLER
from .heap import SymmetricHeap
from .startup import PHASE_CONN, PHASE_MEMREG, PHASE_OTHER, PHASE_PMI, PHASE_SHM

__all__ = ["run_macro_job"]


def run_macro_job(app, npes: int, config, cluster: Cluster,
                  scheduler: str = "calendar") -> MacroRunResult:
    """Reproduce one job's metrics through the macro phase models.

    ``config`` is one of the two design corners: ``RuntimeConfig``
    refuses ``macro=True`` anywhere else when it is built.
    """
    profile = getattr(app, "macro_profile", None)
    if profile is None:
        raise ConfigError(
            f"macro mode requires an app with a macro_profile() "
            f"(closed-form per-rank cost); {type(app).__name__} has none"
        )
    if config.connection_mode == "ondemand":
        return _ondemand_macro(app, npes, config, cluster)
    return _static_macro(app, npes, config, cluster, scheduler)


# ======================================================================
# on-demand corner: fully analytic (zero simulator events)
# ======================================================================
def _ondemand_macro(app, npes: int, config, cluster: Cluster
                    ) -> MacroRunResult:
    cost = cluster.cost
    rng = RngRegistry(config.seed)
    skews = rng.stream("launch-skew").uniform(
        0.0, cost.launch_skew_us, size=npes
    )

    model_bytes = int(config.heap_mb * 1024 * 1024)
    backing = int(config.heap_backing_kb * 1024)
    reg_bytes = max(model_bytes, backing)
    mr_us = cost.mr_register_us(reg_bytes)

    # Per-PE instants, mirroring the exact flow's float ops one by one
    # (each ``yield d`` is one ``now + d``):
    #   t0 launch skew -> OTHER: init_misc + UD endpoint (t1)
    #   -> PMI: PMIX_Iallgather launch, zero client time
    #   -> MEMREG: heap registration (t2)
    #   -> SHM: shared-memory setup (t3)
    #   -> OTHER: two intra-node barriers (exit2).
    t0 = [0.0] * npes
    t1 = [0.0] * npes
    t3 = [0.0] * npes
    memreg = [0.0] * npes
    shm_us = [0.0] * npes
    for r in range(npes):
        s = 0.0 + float(skews[r])
        a = s + cost.init_misc_us
        b = a + cost.ud_qp_create_us
        c = b + mr_us
        local = cluster.local_size(r)
        d = c + (cost.shm_setup_base_us + cost.shm_setup_per_rank_us * local)
        t0[r] = s
        t1[r] = b
        memreg[r] = c - b
        t3[r] = d
        shm_us[r] = d - c

    # Intra-node barriers: ``yield shm_barrier_us * rounds`` then a
    # node Barrier released at the *last arrival* instant.  Nodes do
    # not synchronise with each other here, so exit times are per node.
    exit2 = [0.0] * cluster.nnodes
    for node in range(cluster.nnodes):
        ranks = cluster.ranks_on_node(node)
        local = len(ranks)
        rounds = max(1, math.ceil(math.log2(max(2, local))))
        w = cost.shm_barrier_us * rounds
        exit1 = max(t3[r] + w for r in ranks)
        exit2[node] = exit1 + w

    pes: List[MacroPE] = []
    app_done = [0.0] * npes
    results: List = [None] * npes
    resources = {
        "rc_qps": 0,
        "ud_qps": 1,
        "connections": 0,
        "qp_memory_bytes": cost.ud_qp_memory_bytes,
        "registered_bytes": reg_bytes,
        "active_connections": 0,
        "peers": 0,
    }
    for r in range(npes):
        done = exit2[cluster.node_of(r)]
        # PhaseTimer accumulation order: OTHER opens first, so it leads
        # the dict; both OTHER segments add in chronological order.
        breakdown = {
            PHASE_OTHER: (t1[r] - t0[r]) + (done - t3[r]),
            PHASE_PMI: 0.0,
            PHASE_MEMREG: memreg[r],
            PHASE_SHM: shm_us[r],
        }
        pes.append(MacroPE(
            rank=r, breakdown=breakdown, init_done_at=done,
            init_duration=done - t0[r], resources=resources,
        ))
        elapsed, value = app.macro_profile(r, npes, cost)
        app_done[r] = done + elapsed
        results[r] = value

    counters: Dict[str, int] = {
        "pmi.iallgathers": npes,
        "verbs.ud_qp_created": npes,
        "verbs.mr_registered": npes,
        "shmem.intranode_barriers": 2 * npes,
        "shmem.start_pes_done": npes,
    }
    tree_msgs, tree_bytes = iallgather_tree_counters(cluster)
    if tree_msgs:
        counters["pmi.tree_messages"] = tree_msgs
        counters["pmi.tree_bytes"] = tree_bytes

    # Finalize: barrier_all over lazily connected peers + QP sweep.
    # Modeled (lossless UD), not asserted — see the module docstring.
    dir_release = iallgather_release_times(cluster, t1)
    payload = exchange_payload_bytes(backing)
    done_times, fin_counters = finalize_model(
        cluster, app_done, dir_release, payload
    )
    # The per-PE resource snapshot is taken at *that PE's* app
    # completion; in the exact engine a PE on a slow node can first
    # serve connect requests from early finishers already inside the
    # finalize barrier, so a few server-side RC QPs leak into its
    # snapshot.  The macro snapshot is the startup-complete state
    # (no connections), which is the startup-attributable quantity —
    # hence "resources" rides the modeled list with the finalize keys.
    modeled = ["resources"]
    for key, value in fin_counters.items():
        if value:
            counters[key] = counters.get(key, 0) + value
            modeled.append(key)
    modeled.append("wall_time_us")

    launch = cost.launch_overhead_us
    return MacroRunResult(
        pes=pes,
        wall_time_us=launch + max(done_times),
        app_done_us=launch + max(app_done),
        app_results=results,
        counters=counters,
        modeled=modeled,
    )


# ======================================================================
# static corner: condensed replica on the real substrate
# ======================================================================
class _ReplicaPE:
    """Minimal stand-in for a ShmemPE in the static macro replica.

    Carries only what the flat startup generator and the job-level
    reducers touch: the real :class:`~repro.sim.trace.PhaseTimer`, the
    collective mailboxes, and the final resource snapshot.
    """

    __slots__ = ("sim", "rank", "ctx", "conduit", "counters", "timer",
                 "init_done_at", "init_duration", "heap", "heap_region",
                 "_chans", "_resources")

    def __init__(self, sim, rank, ctx, conduit, counters) -> None:
        self.sim = sim
        self.rank = rank
        self.ctx = ctx
        self.conduit = conduit
        self.counters = counters
        self.timer = PhaseTimer(sim)
        self.init_done_at = 0.0
        self.init_duration = 0.0
        self.heap = None
        self.heap_region = None
        self._chans: Dict[tuple, Mailbox] = {}
        self._resources: Dict[str, float] = {}
        conduit.register_handler(COLL_HANDLER, self._on_coll_message)

    def _chan(self, key: tuple) -> Mailbox:
        mbox = self._chans.get(key)
        if mbox is None:
            mbox = Mailbox(self.sim, name=f"coll-{self.rank}-{key}")
            self._chans[key] = mbox
        return mbox

    def _on_coll_message(self, src: int, data) -> None:
        key, payload = data
        self._chan(key).send((src, payload))

    def breakdown(self) -> Dict[str, float]:
        return self.timer.breakdown()

    def resource_usage(self) -> Dict[str, float]:
        return self._resources


def _replica_barrier(pe: _ReplicaPE, npes: int, seq: int) -> Generator:
    """``barrier_all`` over the world set, event-for-event (binary
    rank tree, gather up then release down over real AM sends)."""
    pe.counters.add("shmem.barriers")
    parent, children = tree_parent_children(pe.rank, npes)
    up = ("bar", seq, "up")
    down = ("bar", seq, "down")
    for _ in children:
        yield pe._chan(up).recv()
    if parent is not None:
        yield from pe.conduit.am_send(
            parent, COLL_HANDLER, data=(up, None), data_bytes=0
        )
        yield pe._chan(down).recv()
    for child in children:
        yield from pe.conduit.am_send(
            child, COLL_HANDLER, data=(down, None), data_bytes=0
        )


def _static_macro(app, npes: int, config, cluster: Cluster,
                  scheduler: str) -> MacroRunResult:
    # -- machine assembly: the same substrate Job builds, minus the
    # ShmemPE layer, observability, faults and sanitizer -------------
    sim = Simulator(scheduler=scheduler)
    counters = Counters()
    rng = RngRegistry(config.seed)
    fabric = Fabric(sim, cluster, rng, counters)
    cost = cluster.cost
    hcas = [
        HCA(sim, fabric, node=n, lid=0x100 + n, cost=cost, counters=counters)
        for n in range(cluster.nnodes)
    ]
    ctxs = [
        VerbsContext(sim, hcas[cluster.node_of(r)], r, cost, counters)
        for r in range(npes)
    ]
    pmi_domain = PMIDomain(sim, cluster, counters)
    pmi = [PMIClient(pmi_domain, r) for r in range(npes)]
    network = ConduitNetwork()
    network.obs = None
    network.check = None
    network.tracer = Tracer(sim, enabled=False)
    conduits = [
        StaticConduit(sim, network, ctxs[r], cluster, pmi[r], r)
        for r in range(npes)
    ]
    pes = [
        _ReplicaPE(sim, r, ctxs[r], conduits[r], counters)
        for r in range(npes)
    ]

    skews = rng.stream("launch-skew").uniform(
        0.0, cost.launch_skew_us, size=npes
    )
    model_bytes = int(config.heap_mb * 1024 * 1024)
    backing = int(config.heap_backing_kb * 1024)
    app_done_at: List[float] = [0.0] * npes
    all_done_at: List[float] = [0.0] * npes
    results: List = [None] * npes

    def pe_main(rank: int) -> Generator:
        # Mirrors Job.pe_main + _static_startup statement by statement;
        # the engine sees the identical yield sequence, so timing and
        # counters are exact by construction.
        pe = pes[rank]
        ctx = ctxs[rank]
        conduit = conduits[rank]
        client = pmi[rank]
        yield float(skews[rank])
        started = sim.now
        # -- OTHER: misc init + UD endpoint --
        pe.timer.begin(PHASE_OTHER)
        yield cost.init_misc_us
        yield from conduit.init_endpoint()
        # -- PMI: blocking Put / Fence / Get-range --
        pe.timer.begin(PHASE_PMI)
        yield from client.put(f"ud-{rank}", conduit.ud_address)
        yield from client.fence()
        yield from client.get_range("ud-", npes)
        cache = network.shared_cache
        directory = cache.get("ud_directory")
        if directory is None:
            directory = {
                r: network.peer(r).ud_address for r in range(npes)
            }
            cache["ud_directory"] = directory
        conduit.set_ud_directory(directory)
        # -- MEMREG: heap registration --
        pe.timer.begin(PHASE_MEMREG)
        pe.heap = SymmetricHeap(ctx.mm, model_bytes, backing_bytes=backing)
        pe.heap_region = yield from ctx.reg_mr(
            pe.heap.base, model_bytes=max(model_bytes, backing)
        )
        # -- SHM: shared-memory setup --
        pe.timer.begin(PHASE_SHM)
        local = cluster.local_size(rank)
        yield cost.shm_setup_base_us + cost.shm_setup_per_rank_us * local
        # -- CONN: full wire-up, second fence, segment push --
        pe.timer.begin(PHASE_CONN)
        yield from conduit.wireup()
        yield from client.put(f"wired-{rank}", 1)
        yield from client.fence()
        per_msg = cost.post_wr_us + cost.am_handler_cpu_us
        yield npes * per_msg
        conduit.mark_ready()
        # -- OTHER: two global init barriers --
        pe.timer.begin(PHASE_OTHER)
        yield from _replica_barrier(pe, npes, 0)
        yield from _replica_barrier(pe, npes, 1)
        pe.timer.stop()
        pe.init_done_at = sim.now
        pe.init_duration = sim.now - started
        counters.add("shmem.start_pes_done")
        # -- application (closed-form profile, same Timeout path) --
        elapsed, value = app.macro_profile(rank, npes, cost)
        yield sim.timeout(elapsed)
        app_done_at[rank] = sim.now
        results[rank] = value
        pe._resources = {
            "rc_qps": ctx.rc_qps_created,
            "ud_qps": ctx.ud_qps_created,
            "connections": ctx.connections_established,
            "qp_memory_bytes": ctx.qp_memory_bytes,
            "registered_bytes": ctx.registered_bytes,
            "active_connections": conduit.connection_count,
            "peers": len(conduit.touched_peers),
        }
        # -- finalize: barrier_all + bulk teardown --
        yield from _replica_barrier(pe, npes, 2)
        yield from conduit.teardown_charge()
        all_done_at[rank] = sim.now

    procs = spawn_batch(sim, ((pe_main(r), f"pe{r}") for r in range(npes)))
    done = {"ok": False}

    def join_all(s):
        yield s.all_of(procs)
        done["ok"] = True

    spawn(sim, join_all(sim), name="join")
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    if not done["ok"]:
        raise RuntimeError(
            "macro static replica did not complete (a PE is deadlocked)"
        )

    launch = cost.launch_overhead_us
    return MacroRunResult(
        pes=pes,
        wall_time_us=launch + max(all_done_at),
        app_done_us=launch + max(app_done_at),
        app_results=results,
        counters=counters.as_dict(),
        modeled=[],
    )
