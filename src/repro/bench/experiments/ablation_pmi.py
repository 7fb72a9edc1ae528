"""Ablation D2 — blocking vs non-blocking PMI, per connection mode.

Section IV-D's claim, restated operationally: only the combination
**on-demand + non-blocking iallgather** gives a (near-)constant ``start_pes``
across job sizes — the out-of-band exchange leaves the critical path
entirely.  Every other combination keeps an N-dependent term on the
critical path: blocking PMI pays the fence + gets inside init, and
static connections must consume the exchanged data (and wire up N
peers) before init can finish regardless of the PMI API.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from ...apps import HelloWorld
from ...core import RuntimeConfig
from ..runner import ExperimentResult, job_spec, run_jobs
from ..tables import fmt_us

FULL_SIZES = [512, 2048, 8192]
QUICK_SIZES = [256, 2048]

COMBOS = [
    ("static", "blocking"),
    ("static", "nonblocking"),
    ("ondemand", "blocking"),
    ("ondemand", "nonblocking"),
]


def run(sizes: Optional[Sequence[int]] = None, quick: bool = True
        ) -> ExperimentResult:
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    grid = list(product(COMBOS, sizes))
    results = run_jobs(
        job_spec(
            HelloWorld(), npes,
            RuntimeConfig(
                connection_mode=conn,
                pmi_mode=pmi,
                barrier_mode="global" if conn == "static" else "intranode",
            ),
            testbed="B",
        )
        for (conn, pmi), npes in grid
    )
    times: Dict[Tuple[str, str], Dict[int, float]] = {c: {} for c in COMBOS}
    for ((conn, pmi), npes), result in zip(grid, results):
        times[(conn, pmi)][npes] = result.startup.mean_us

    rows: List[list] = []
    growths: Dict[Tuple[str, str], float] = {}
    small, large = min(sizes), max(sizes)
    for combo in COMBOS:
        series = times[combo]
        growth = series[large] / series[small]
        growths[combo] = growth
        rows.append(
            list(combo)
            + [fmt_us(series[n]) for n in sizes]
            + [f"{growth:.3f}x"]
        )
    return ExperimentResult(
        experiment="Ablation D2",
        title="start_pes vs (connection mode x PMI mode) (Cluster-B)",
        columns=["connections", "PMI"] + [f"{n} PEs" for n in sizes]
        + ["growth"],
        rows=rows,
        note="only on-demand + non-blocking PMI stays ~constant with "
             "job size",
        extras={"times": times, "growths": growths,
                "sizes": (small, large)},
    )
