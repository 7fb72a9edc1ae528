"""Figure 9 (churn companion) — steady-state QP footprint vs reconnect
latency under connection churn.

The paper's Figure 9 shows on-demand endpoint counts staying far below
the static design's N-per-process because its applications touch small,
*stable* neighbourhoods.  This companion asks the follow-up the paper
leaves open: what happens when the neighbourhood rotates?  The
:class:`~repro.apps.ChurnWorkload` touches a fresh skewed peer set each
epoch, so without a lifecycle policy the per-PE QP footprint is the
union of every epoch's peers — it grows with runtime, not with the
working set.  With idle eviction installed
(:class:`~repro.gasnet.LifecyclePolicy`) the reaper retires cold
connections during the inter-epoch gaps and the footprint stays pinned
near the per-epoch working set, at the price of reconnect handshakes
(latency read from the flight recorder's
``conduit.reconnect_latency_us`` histogram).

Three design points per size:

* ``off``    — no lifecycle (the paper's behaviour): footprint grows.
* ``lru``    — evict anything idle past ``idle_timeout_us``: smallest
  footprint, but the hot partner is evicted during every gap and pays
  a reconnect each epoch.
* ``credit`` — credit-based aging with a deeper budget: cold rotated
  peers still drain, the hot partner's refreshed credits survive the
  gap, so it reconnects less.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...apps import ChurnWorkload
from ...gasnet import LifecyclePolicy
from ...obs import series_peak
from ..runner import PROPOSED, ExperimentResult, job_spec, run_jobs

FULL_SIZES = [256, 1024]
QUICK_SIZES = [64]

#: Epochs/partners chosen so the union footprint (epochs x cold
#: partners) clearly exceeds the working set at every size.
EPOCHS = 6
PARTNERS = 4
REQUESTS = 8
#: Inter-epoch idle gap: one lru idle_timeout (20ms default) plus
#: slack, so a full reaper scan lands inside every gap.
IDLE_GAP_US = 30_000.0

#: The evaluated lifecycle policies (``None`` = paper behaviour).
POLICIES = [
    ("off", None),
    ("lru", LifecyclePolicy(policy="lru")),
    # credits * scan_interval = 40ms of idle tolerance > the 30ms gap:
    # the hot partner's refilled credits carry it across epochs while
    # never-retouched cold peers still drain to zero.
    ("credit", LifecyclePolicy(policy="credit", credits=8)),
]


def _app() -> ChurnWorkload:
    return ChurnWorkload(epochs=EPOCHS, partners=PARTNERS,
                         requests=REQUESTS, idle_gap_us=IDLE_GAP_US)


def run(sizes: Optional[Sequence[int]] = None, quick: bool = True
        ) -> ExperimentResult:
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    app = _app()
    grid = [(npes, label, policy)
            for npes in sizes for label, policy in POLICIES]
    results = run_jobs(
        job_spec(app, npes, PROPOSED, testbed="A",
                 observe={"timeline": True}, lifecycle=policy)
        for npes, label, policy in grid
    )

    rows: List[list] = []
    series: Dict[str, Dict[int, Dict[str, float]]] = {}
    telemetry: Dict[str, Dict[int, dict]] = {}
    for (npes, label, _policy), result in zip(grid, results):
        peak = max(r["peak_connections"] for r in result.app_results)
        final = max(r["final_connections"] for r in result.app_results)
        evictions = result.counters.get("conduit.evictions", 0)
        reconnects = result.counters.get("conduit.reconnects", 0)
        hist = result.telemetry["histograms"].get(
            "conduit.reconnect_latency_us"
        )
        p50 = hist["p50"] if hist else float("nan")
        p99 = hist["p99"] if hist else float("nan")
        # The sampled footprint timeline must agree with the scalar
        # high-water mark: conduit.peak_connections samples the running
        # maximum, so its own max is exactly the job-wide peak even
        # when the transient extremum falls between two ticks.
        timeline = result.telemetry["timeline"]
        tl_peak = series_peak(timeline["series"]["conduit.peak_connections"])
        if int(tl_peak) != int(peak):
            raise AssertionError(
                f"timeline peak {tl_peak} != scalar peak {peak} "
                f"(npes={npes}, policy={label})"
            )
        telemetry.setdefault(label, {})[npes] = result.telemetry
        series.setdefault(label, {})[npes] = {
            "peak_connections": peak,
            "final_connections": final,
            "timeline_peak_connections": tl_peak,
            "evictions": evictions,
            "reconnects": reconnects,
            "reconnect_p50_us": p50,
            "reconnect_p99_us": p99,
        }
        rows.append([
            npes, label, peak, int(tl_peak), final, evictions, reconnects,
            "-" if hist is None else f"{p50:.1f}",
            "-" if hist is None else f"{p99:.1f}",
        ])

    return ExperimentResult(
        experiment="Figure 9 (churn)",
        title="QP footprint vs reconnect latency under connection churn "
              "(Cluster-A)",
        columns=["PEs", "policy", "peak conns", "tl peak", "final conns",
                 "evictions", "reconnects",
                 "reconnect p50 (us)", "reconnect p99 (us)"],
        rows=rows,
        note="'off' footprint is the union of every epoch's peers "
             "(grows with runtime); eviction pins it to the working set "
             "at the price of reconnect handshakes; 'tl peak' is the "
             "sampled footprint timeline's maximum (must equal the "
             "scalar peak)",
        extras={"series": series, "epochs": EPOCHS, "partners": PARTNERS,
                "telemetry": telemetry},
    )
