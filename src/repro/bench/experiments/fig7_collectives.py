"""Figure 7 — collective latency, static vs on-demand.

(a) shmem_collect (dense) and (b) shmem_reduce (sparse) across message
sizes at a fixed PE count (paper: 512), and (c) shmem_barrier_all
across PE counts.  Expected: both schemes identical (the on-demand
setup amortises), collect costs much more than reduce at equal sizes.
Cluster-A, 8 ppn.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..microbench import BarrierLatency, CollectiveLatency
from ..runner import (
    CURRENT,
    PROPOSED,
    ExperimentResult,
    job_spec,
    run_jobs,
)
from ..tables import fmt_us

FULL_NPES = 512
QUICK_NPES = 64
FULL_BARRIER_SIZES = [128, 256, 512]
QUICK_BARRIER_SIZES = [32, 64, 128]


def run(npes: Optional[int] = None, sizes: Optional[Sequence[int]] = None,
        iterations: Optional[int] = None, quick: bool = True
        ) -> ExperimentResult:
    """Figures 7(a) collect and 7(b) reduce."""
    npes = npes or (QUICK_NPES if quick else FULL_NPES)
    iterations = iterations or (10 if quick else 20)
    sizes = list(sizes) if sizes else [64, 1024, 16384]
    rows: List[list] = []
    raw = {"collect": {}, "reduce": {}}
    backing = max(1024, (max(sizes) * (npes + 2)) // 1024 + 64)
    kinds = ("collect", "reduce")
    results = run_jobs(
        job_spec(
            CollectiveLatency(kind, sizes=sizes, iterations=iterations),
            npes, config, testbed="A", heap_backing_kb=backing,
        )
        for kind in kinds
        for config in (CURRENT, PROPOSED)
    )
    for i, kind in enumerate(kinds):
        static = results[2 * i].app_results[0]
        ondemand = results[2 * i + 1].app_results[0]
        for size in sizes:
            s, o = static[size], ondemand[size]
            diff = abs(o - s) / s * 100.0
            raw[kind][size] = (s, o, diff)
            rows.append(
                [kind, size, fmt_us(s), fmt_us(o), f"{diff:.2f}%"]
            )
    return ExperimentResult(
        experiment="Figure 7(a,b)",
        title=f"shmem collect/reduce latency at {npes} PEs (Cluster-A)",
        columns=["collective", "size (B)", "static", "on-demand", "diff"],
        rows=rows,
        note="identical performance; collect (dense) >> reduce (sparse)",
        extras={"latency": raw, "npes": npes},
    )


def run_barrier(sizes: Optional[Sequence[int]] = None, iterations: int = 30,
                quick: bool = True) -> ExperimentResult:
    """Figure 7(c): shmem_barrier_all vs process count."""
    sizes = list(sizes) if sizes else (
        QUICK_BARRIER_SIZES if quick else FULL_BARRIER_SIZES
    )
    results = run_jobs(
        job_spec(BarrierLatency(iterations=iterations), npes, config,
                 testbed="A")
        for npes in sizes
        for config in (CURRENT, PROPOSED)
    )
    rows = []
    raw = {}
    for i, npes in enumerate(sizes):
        s = results[2 * i].app_results[0]
        o = results[2 * i + 1].app_results[0]
        diff = abs(o - s) / s * 100.0
        raw[npes] = (s, o, diff)
        rows.append([npes, f"{s:.2f}", f"{o:.2f}", f"{diff:.2f}%"])
    return ExperimentResult(
        experiment="Figure 7(c)",
        title="shmem_barrier_all latency (us) vs process count (Cluster-A)",
        columns=["npes", "static (us)", "on-demand (us)", "diff"],
        rows=rows,
        note="similar for both schemes at every process count",
        extras={"latency": raw},
    )
