"""Figure 6 — point-to-point and atomic latency, static vs on-demand.

Paper finding: at the microbenchmark level both designs are identical
(<3% difference), because the on-demand handshake is a one-time cost
amortised over the timing loop's iterations (Section V-C).
Cluster-A, 2 PEs on distinct nodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..microbench import DEFAULT_SIZES, AtomicLatency, GetLatency, PutLatency
from ..runner import CURRENT, PROPOSED, ExperimentResult, run_job

QUICK_SIZES = [1, 16, 256, 4096, 65536, 1048576]


def _latency(app_cls, sizes, iterations, config):
    result = run_job(
        app_cls(sizes=sizes, iterations=iterations), npes=2, config=config,
        testbed="A", ppn=1, heap_backing_kb=2 * 1024,
    )
    return result.app_results[0]


def run(sizes: Optional[Sequence[int]] = None, iterations: int = 100,
        quick: bool = True) -> ExperimentResult:
    """Figures 6(a) get and 6(b) put."""
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else DEFAULT_SIZES)
    rows: List[list] = []
    raw = {"get": {}, "put": {}}
    for op, cls in (("get", GetLatency), ("put", PutLatency)):
        static = _latency(cls, sizes, iterations, CURRENT)
        ondemand = _latency(cls, sizes, iterations, PROPOSED)
        for size in sizes:
            s, o = static[size], ondemand[size]
            diff = abs(o - s) / s * 100.0
            raw[op][size] = (s, o, diff)
            rows.append([op, size, f"{s:.2f}", f"{o:.2f}", f"{diff:.2f}%"])
    return ExperimentResult(
        experiment="Figure 6(a,b)",
        title="shmem get/put latency (us), static vs on-demand (Cluster-A)",
        columns=["op", "size (B)", "static (us)", "on-demand (us)", "diff"],
        rows=rows,
        note="<3% difference at every size (handshake amortised)",
        extras={"latency": raw},
    )


def run_atomics(iterations: int = 100) -> ExperimentResult:
    """Figure 6(c): atomic-operation latency."""
    static = _latency_atomics(iterations, CURRENT)
    ondemand = _latency_atomics(iterations, PROPOSED)
    rows = []
    raw = {}
    for op in AtomicLatency.OPS:
        s, o = static[op], ondemand[op]
        diff = abs(o - s) / s * 100.0
        raw[op] = (s, o, diff)
        rows.append([op, f"{s:.2f}", f"{o:.2f}", f"{diff:.2f}%"])
    return ExperimentResult(
        experiment="Figure 6(c)",
        title="shmem atomics latency (us), static vs on-demand (Cluster-A)",
        columns=["op", "static (us)", "on-demand (us)", "diff"],
        rows=rows,
        note="<3% difference on every operation",
        extras={"latency": raw},
    )


def _latency_atomics(iterations, config):
    result = run_job(
        AtomicLatency(iterations=iterations), npes=2, config=config,
        testbed="A", ppn=1,
    )
    return result.app_results[0]
