"""Shared fixtures: a small assembled IB rig for substrate tests."""

from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.cluster import Cluster, CostModel
from repro.ib import HCA, Fabric, VerbsContext
from repro.sim import Counters, RngRegistry, Simulator


@dataclass
class Rig:
    """A wired-up mini machine: sim + cluster + fabric + per-PE verbs."""

    sim: Simulator
    cluster: Cluster
    fabric: Fabric
    counters: Counters
    hcas: List[HCA]
    ctxs: List[VerbsContext]


def build_rig(npes: int = 2, ppn: int = 1, cost: CostModel = None, seed: int = 7) -> Rig:
    cost = cost or CostModel().evolve(ud_loss_prob=0.0, ud_duplicate_prob=0.0)
    sim = Simulator()
    cluster = Cluster(npes=npes, ppn=ppn, cost=cost, name="rig")
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
    return Rig(sim, cluster, fabric, counters, hcas, ctxs)


def _schedule_members(self, when, fn, args):
    """``Simulator.schedule_wave`` unfolded: one heap entry per member."""
    for arg in args:
        self._schedule_at(when, fn, arg)


@pytest.fixture
def event_waves(request, monkeypatch):
    """How wave members reach the heap (parametrize indirectly).

    ``True`` keeps the engine's aggregate waves; ``False`` swaps
    :meth:`Simulator.schedule_wave` for a loop that pushes one heap
    entry per member — the order every wave must reproduce.
    """
    if not request.param:
        monkeypatch.setattr(Simulator, "schedule_wave", _schedule_members)
    return request.param


#: Run a test once with aggregate waves and once with one heap entry
#: per member.  The ids keep the names these cases carried when they
#: compared the calendar queue (which held the waves) with the heap.
both_wave_forms = pytest.mark.parametrize(
    "event_waves", [True, False], ids=["calendar", "heap"], indirect=True)


@pytest.fixture
def rig2():
    """Two PEs on two nodes, lossless UD."""
    return build_rig(npes=2, ppn=1)


@pytest.fixture
def rig4_shared():
    """Four PEs on two nodes (2 ppn), lossless UD."""
    return build_rig(npes=4, ppn=2)
