"""Conduit-level test rig: conduits wired over the IB + PMI substrates."""

import os
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.check import CheckPlan, Sanitizer
from repro.cluster import Cluster, CostModel
from repro.faults import FaultInjector, FaultPlan
from repro.gasnet import ConduitNetwork, OnDemandConduit, StaticConduit
from repro.ib import HCA, Fabric, VerbsContext
from repro.pmi import PMIClient, PMIDomain
from repro.sim import Counters, RngRegistry, Simulator, Tracer, spawn


@dataclass
class CRig:
    sim: Simulator
    cluster: Cluster
    counters: Counters
    ctxs: List[VerbsContext]
    conduits: list
    pmi: List[PMIClient]
    network: Optional[ConduitNetwork] = None
    faults: Optional[FaultInjector] = None
    check: Optional[Sanitizer] = None

    @property
    def tracer(self) -> Tracer:
        return self.network.tracer


def build_conduit_rig(npes=2, ppn=1, mode="on-demand", cost=None, seed=3,
                      ready=True, faults=None, trace=False,
                      pmi_directory=False, check=None, lifecycle=None):
    """Assemble conduits with endpoints initialised and directory set.

    With ``ready=True`` every conduit is marked ready and the UD
    directory is installed directly (no PMI), so handshake tests can
    focus on the protocol itself.  ``pmi_directory=True`` instead
    resolves the directory lazily through a PMIX_Iallgather (so PMI
    fault plans bite).  ``faults`` installs a
    :class:`repro.faults.FaultPlan` across the fabric, HCAs and PMI
    daemons; ``trace=True`` enables the protocol tracer.  ``check``
    installs a :class:`repro.check.CheckPlan` sanitizer (``REPRO_CHECK=1``
    in the environment arms a default non-strict plan on every rig, so
    the whole conduit suite doubles as a sanitizer soak).
    """
    cost = cost or CostModel().evolve(ud_loss_prob=0.0, ud_duplicate_prob=0.0)
    sim = Simulator()
    cluster = Cluster(npes=npes, ppn=ppn, cost=cost, name="crig")
    counters = Counters()
    rng = RngRegistry(seed)
    fabric = Fabric(sim, cluster, rng, counters)
    hcas = [
        HCA(sim, fabric, node=n, lid=0x100 + n, cost=cost, counters=counters)
        for n in range(cluster.nnodes)
    ]
    ctxs = [
        VerbsContext(sim, hcas[cluster.node_of(r)], r, cost, counters)
        for r in range(npes)
    ]
    domain = PMIDomain(sim, cluster, counters)
    pmi = [PMIClient(domain, r) for r in range(npes)]
    injector = None
    if faults is not None:
        if not isinstance(faults, FaultPlan):
            faults = FaultPlan.from_dict(faults)
        injector = FaultInjector(faults, sim, rng, counters).install(
            fabric=fabric, hcas=hcas, pmi_domain=domain
        )
    if check is None and os.environ.get("REPRO_CHECK", "").strip() not in ("", "0"):
        # Soak mode: run the whole conduit suite sanitized, collecting
        # (not raising) so legitimately fault-injected runs complete.
        check = CheckPlan(name="env-soak", strict=False)
    if check is True:
        check = CheckPlan()
    elif check is False:
        check = None
    elif isinstance(check, dict):
        check = CheckPlan.from_dict(check)
    sanitizer = None
    if check is not None:
        sanitizer = Sanitizer(check, sim).install(
            hcas=hcas, pmi_domain=domain
        )
    network = ConduitNetwork()
    network.check = sanitizer
    network.tracer = Tracer(sim, enabled=trace)
    cls = OnDemandConduit if mode == "on-demand" else StaticConduit
    conduits = [
        cls(sim, network, ctxs[r], cluster, pmi[r], r) for r in range(npes)
    ]
    if lifecycle is not None and mode == "on-demand":
        for c in conduits:
            c.install_lifecycle(lifecycle)

    def boot(sim):
        for c in conduits:
            yield from c.init_endpoint()
        if pmi_directory:
            for r, c in enumerate(conduits):
                c.set_ud_directory_handle(pmi[r].iallgather(c.ud_address))
        else:
            directory = {r: conduits[r].ud_address for r in range(npes)}
            for c in conduits:
                c.set_ud_directory(directory)
        if ready:
            for c in conduits:
                c.mark_ready()

    spawn(sim, boot(sim), name="boot")
    sim.run()
    return CRig(sim, cluster, counters, ctxs, conduits, pmi,
                network=network, faults=injector, check=sanitizer)


@pytest.fixture
def crig2():
    return build_conduit_rig(npes=2, ppn=1)


@pytest.fixture
def crig4():
    """4 PEs, 2 nodes x 2 ppn (on-demand)."""
    return build_conduit_rig(npes=4, ppn=2)
