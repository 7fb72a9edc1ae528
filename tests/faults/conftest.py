"""Shared chaos-scenario driver for the fault-injection tests.

``run_chaos`` exercises the on-demand handshake's adverse paths in one
deterministic scenario: staggered server readiness (held requests),
simultaneous initiators (collisions), and all-to-all first touch, all
under a caller-supplied :class:`repro.faults.FaultPlan` plus mild
baseline UD noise.  It returns the rig and the full protocol trace so
callers can assert both *convergence* and *bit-exact determinism*.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster import Cluster, CostModel
from repro.faults import FaultInjector
from repro.ib import HCA, Fabric, VerbsContext
from repro.sim import Counters, RngRegistry, Simulator, spawn

from ..gasnet.conftest import CRig, build_conduit_rig


@dataclass
class URig:
    """Bare IB substrate rig (no conduits): one UD QP + recv drainer per
    PE, with arrivals recorded as ``(payload, sim.now)`` tuples.  Lets
    the injector tests observe exact datagram fates and timings."""

    sim: Simulator
    counters: Counters
    ctxs: List[VerbsContext]
    hcas: List[HCA]
    fabric: Fabric
    qps: list
    send_cqs: list
    recv_cqs: list
    injector: Optional[FaultInjector]
    #: Per-PE list of (payload, arrival_time) in delivery order.
    arrivals: List[list] = field(default_factory=list)
    #: Per-PE list of the raw receive WorkCompletions, same order.
    recv_wcs: List[list] = field(default_factory=list)


def build_ud_rig(plan=None, npes=2, seed=7, cost=None) -> URig:
    cost = cost or CostModel().evolve(ud_loss_prob=0.0, ud_duplicate_prob=0.0)
    sim = Simulator()
    cluster = Cluster(npes=npes, ppn=1, cost=cost, name="urig")
    counters = Counters()
    rng = RngRegistry(seed)
    fabric = Fabric(sim, cluster, rng, counters)
    hcas = [
        HCA(sim, fabric, node=n, lid=0x100 + n, cost=cost, counters=counters)
        for n in range(cluster.nnodes)
    ]
    ctxs = [VerbsContext(sim, hcas[n], n, cost, counters) for n in range(npes)]
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, sim, rng, counters).install(
            fabric=fabric, hcas=hcas
        )
    rig = URig(sim, counters, ctxs, hcas, fabric, qps=[], send_cqs=[],
               recv_cqs=[], injector=injector,
               arrivals=[[] for _ in range(npes)],
               recv_wcs=[[] for _ in range(npes)])

    def boot():
        for ctx in ctxs:
            scq = ctx.create_cq()
            rcq = ctx.create_cq()
            qp = yield from ctx.create_ud_qp(scq, rcq)
            rig.qps.append(qp)
            rig.send_cqs.append(scq)
            rig.recv_cqs.append(rcq)

    def drainer(r):
        while True:
            wc = yield rig.recv_cqs[r].wait()
            rig.arrivals[r].append((wc.data, sim.now))
            rig.recv_wcs[r].append(wc)

    spawn(sim, boot(), name="boot")
    sim.run()
    for r in range(npes):
        spawn(sim, drainer(r), name=f"drain-{r}")
    return rig


def ud_send(rig: URig, src: int, dst: int, payload, nbytes: int = 64):
    """Generator: one charged UD datagram ``src -> dst``."""
    yield from rig.ctxs[src].ud_send(
        rig.qps[src], rig.qps[dst].address, payload, nbytes
    )


@dataclass
class ChaosResult:
    rig: CRig
    trace: List[str]
    received: List[tuple]


def chaos_cost(**overrides) -> CostModel:
    """Baseline noise + fast retry clock so chaos runs stay small."""
    defaults = dict(
        ud_loss_prob=0.01,
        ud_duplicate_prob=0.005,
        ud_retry_timeout_us=400.0,
        ud_max_retries=40,
        qp_create_backoff_base_us=25.0,
    )
    defaults.update(overrides)
    return CostModel().evolve(**defaults)


def run_chaos(seed, plan, npes=4, cost=None, pmi_directory=True) -> ChaosResult:
    """One chaos run; every PE ends fully connected or the run raises."""
    rig = build_conduit_rig(
        npes=npes, ppn=1, cost=cost or chaos_cost(), seed=seed,
        ready=False, faults=plan, trace=True, pmi_directory=pmi_directory,
    )
    sim = rig.sim
    received = []
    for c in rig.conduits:
        c.register_handler(
            "chaos", lambda src, data, _r=c.rank: received.append((_r, src, data))
        )

    def become_ready(c, delay):
        yield delay
        c.mark_ready()

    def pe(c, peers):
        # First-touch every peer; rank-rotated order makes the low pairs
        # collide (0->1 and 1->0 start together) while later sends hit
        # already-served peers and duplicate-request paths.
        for p in peers:
            yield from c.am_send(p, "chaos", data=(c.rank, p))

    for r, c in enumerate(rig.conduits):
        # Staggered readiness: early senders find servers not ready and
        # their requests are held (Section IV-E).
        spawn(sim, become_ready(c, 150.0 * r + 1.0), name=f"ready-{r}")
        peers = [(r + k) % npes for k in range(1, npes)]
        spawn(sim, pe(c, peers), name=f"chaos-pe{r}")
    sim.run()
    return ChaosResult(rig=rig, trace=rig.tracer.formatted(), received=received)


def assert_converged(res: ChaosResult, npes=4) -> None:
    rig = res.rig
    pairs = npes * (npes - 1)
    for c in rig.conduits:
        for p in range(npes):
            if p != c.rank:
                assert c.is_connected(p), (
                    f"PE {c.rank} never connected to {p}"
                )
    assert len(res.received) == pairs
    assert sorted({(r, s) for r, s, _ in res.received}) == sorted(
        (r, s) for r in range(npes) for s in range(npes) if r != s
    )
    # Retry counters stay within the structural budget: no connect ran
    # its full schedule (that would have raised), and the total is
    # bounded by the per-pair retry budget.
    cost = rig.cluster.cost
    assert rig.counters["conduit.connect_retries"] <= pairs * cost.ud_max_retries
    assert rig.counters["conduit.qp_create_retries"] <= pairs * (
        cost.qp_create_max_retries
    )
