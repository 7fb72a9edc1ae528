"""The benchmark's workloads: what one job builds, runs and must return.

Each workload stresses a different layer (see ``perf/README.md`` for the
measured shares), so an optimisation of one layer has a workload that
exercises it and one that should not move:

* ``startup-ondemand-8k`` — the paper's Fig. 5 corner; memory-bound in ``ib``.
* ``startup-static-4k`` — full wire-up; the only workload where ``pmi`` matters.
* ``churn-lru-256`` — connect / evict / reconnect in ``gasnet``.
* ``graph500-hybrid-64`` — the OpenSHMEM+MPI data path of Fig. 8b.

``--quick`` shrinks every workload to a toy size with the same shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps import ChurnWorkload, HelloWorld
from repro.apps.graph500 import Graph500Hybrid
from repro.cluster import cluster_a, cluster_b
from repro.core import Job, RuntimeConfig
from repro.gasnet import LifecyclePolicy

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SEED", "fingerprint"]

#: ``RuntimeConfig``'s own default seed; ``perf/reference.json`` holds
#: the fingerprints at this seed.
DEFAULT_SEED = RuntimeConfig().seed


@dataclass(frozen=True)
class Workload:
    name: str
    npes: int
    quick_npes: int
    #: ``(npes, seed) -> Job``: everything timed as the build.
    build: Callable[[int, int], Job]
    #: ``quick -> Application``.
    app: Callable[[bool], object]
    #: ``(app, result) -> error message or None``.
    validate: Callable[[object, object], Optional[str]]

    def sized(self, quick: bool) -> int:
        return self.quick_npes if quick else self.npes


def _hello_ok(app, result) -> Optional[str]:
    for rank, value in enumerate(result.app_results):
        expected = f"Hello from PE {rank} of {result.npes}"
        if value != expected:
            return f"PE {rank} returned {value!r}, expected {expected!r}"
    return None


def _churn_ok(app, result) -> Optional[str]:
    expected = app.epochs * sum(
        max(1, app.requests >> slot) for slot in range(app.partners)
    )
    for rank, value in enumerate(result.app_results):
        if value["puts"] != expected:
            return f"PE {rank} issued {value['puts']} puts, expected {expected}"
    return None


def _graph500_ok(app, result) -> Optional[str]:
    for rank, value in enumerate(result.app_results):
        if len(value["bfs"]) != app.nroots:
            return f"PE {rank} ran {len(value['bfs'])} BFS, expected {app.nroots}"
        for bfs in value["bfs"]:
            if bfs["errors"] != 0:
                return f"PE {rank}: BFS from root {bfs['root']} has {bfs['errors']} errors"
    return None


def _startup(config_factory):
    def build(npes: int, seed: int) -> Job:
        return Job(npes=npes, config=config_factory(seed=seed),
                   cluster=cluster_b(npes, ppn=32))
    return build


def _churn_build(npes: int, seed: int) -> Job:
    config = RuntimeConfig.proposed(
        seed=seed, lifecycle=LifecyclePolicy(policy="lru"))
    return Job(npes=npes, config=config, cluster=cluster_a(npes))


def _graph500_build(npes: int, seed: int) -> Job:
    config = RuntimeConfig.proposed(seed=seed, heap_backing_kb=2048)
    return Job(npes=npes, config=config, cluster=cluster_a(npes))


WORKLOADS = {w.name: w for w in [
    Workload("startup-ondemand-8k", 8192, 256, _startup(RuntimeConfig.proposed),
             lambda quick: HelloWorld(), _hello_ok),
    Workload("startup-static-4k", 4096, 128, _startup(RuntimeConfig.current),
             lambda quick: HelloWorld(), _hello_ok),
    Workload(
        "churn-lru-256", 256, 32, _churn_build,
        lambda quick: ChurnWorkload(epochs=6, partners=4, requests=8,
                                    idle_gap_us=30_000.0),
        _churn_ok),
    Workload(
        "graph500-hybrid-64", 64, 16, _graph500_build,
        # Scale 10 overflows the BFS receive queue at 16 PEs.
        lambda quick: Graph500Hybrid(scale=7 if quick else 10,
                                     edgefactor=16, nroots=2),
        _graph500_ok),
]}


def fingerprint(result) -> dict:
    """The job's simulated output, compared exactly between jobs."""
    app_json = json.dumps(result.app_results, sort_keys=True)
    return {
        "wall_time_us": result.wall_time_us,
        "app_done_us": result.app_done_us,
        "startup": dataclasses.asdict(result.startup),
        "resources": dataclasses.asdict(result.resources),
        "app_results_sha256": hashlib.sha256(app_json.encode()).hexdigest(),
    }
