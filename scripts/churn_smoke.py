#!/usr/bin/env python
"""CI churn smoke: eviction/reconnect lifecycle at 512 PEs, audited.

Three gates, all on one job:

1. **Lifecycle**: a 512-PE churn epoch with idle eviction armed must
   actually churn — evictions and reconnects both strictly positive,
   and the steady-state footprint bounded (peak live connections well
   under the epochs x partners union the evict-never baseline leaks
   towards).

2. **Strict checking**: the whole run executes under the invariant
   sanitizer in strict mode.  Any drain-protocol bug — a QP destroyed
   with WRs in flight, a reconnect storm, a half-open pair at finalize
   — raises at the exact simulated instant instead of surfacing as a
   flaky benchmark number.

3. **Trace**: the flight recorder is on and the exported Chrome trace
   must validate structurally (matched flow arrows, well-formed
   events) and contain the lifecycle span types (``conduit.disconnect``
   on the initiator, ``conduit.drain`` on the target).

4. **Timeline**: the run samples the connection-footprint time-series,
   whose recorded ``conduit.peak_connections`` maximum must equal the
   scalar high-water mark the PEs report — the sampled timeline is a
   faithful view, not an approximation.  ``--footprint-csv FILE``
   writes the full series as CSV (uploaded as a CI artifact).

Usage::

    PYTHONPATH=src python scripts/churn_smoke.py            # defaults
    PYTHONPATH=src python scripts/churn_smoke.py --npes 128
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import ChurnWorkload  # noqa: E402
from repro.cluster import cluster_a  # noqa: E402
from repro.core import Job, RuntimeConfig  # noqa: E402
from repro.gasnet import LifecyclePolicy  # noqa: E402
from repro.obs import (  # noqa: E402
    series_peak,
    timeline_csv,
    validate_chrome_trace,
)

EPOCHS = 6
PARTNERS = 4
IDLE_GAP_US = 30_000.0


def churn_gate(npes: int, footprint_csv: str = None) -> bool:
    print(f"[churn-smoke] {npes}-PE churn epoch, strict sanitizer, "
          "flight recorder + timeline on ...", flush=True)
    t0 = time.perf_counter()
    app = ChurnWorkload(epochs=EPOCHS, partners=PARTNERS, requests=4,
                        idle_gap_us=IDLE_GAP_US)
    policy = LifecyclePolicy(policy="lru")
    config = RuntimeConfig.proposed(
        lifecycle=policy, observe={"timeline": True}, check=True)
    job = Job(npes=npes, config=config, cluster=cluster_a(npes, ppn=8))
    result = job.run(app)
    wall = time.perf_counter() - t0

    ok = True
    evictions = result.counters.get("conduit.evictions", 0)
    reconnects = result.counters.get("conduit.reconnects", 0)
    peak = max(r["peak_connections"] for r in result.app_results)
    final = max(r["final_connections"] for r in result.app_results)
    print(f"[churn-smoke] wall={wall:.1f}s evictions={evictions} "
          f"reconnects={reconnects} peak_conns={peak} "
          f"final_conns={final}", flush=True)
    if evictions <= 0 or reconnects <= 0:
        print("[churn-smoke] FAIL: the reaper never churned", flush=True)
        ok = False
    # Bounded footprint: the union of rotated peer sets approaches
    # epochs x partners; eviction must keep the peak near one epoch's
    # working set.
    if peak >= EPOCHS * PARTNERS:
        print(f"[churn-smoke] FAIL: peak {peak} reached the evict-never "
              f"union ({EPOCHS * PARTNERS})", flush=True)
        ok = False

    assert result.check is not None
    if result.check["strict"] is not True or result.check["violations"]:
        print(f"[churn-smoke] FAIL: sanitizer reported "
              f"{result.check['violations']}", flush=True)
        ok = False
    stats = result.check["stats"]
    print(f"[churn-smoke] sanitizer: evictions={stats['evictions']} "
          f"reconnects={stats['reconnects']} violations=0", flush=True)

    snapshot = result.telemetry["timeline"]
    tl_peak = series_peak(snapshot["series"]["conduit.peak_connections"])
    print(f"[churn-smoke] timeline: {snapshot['samples']} samples, "
          f"footprint peak {tl_peak}", flush=True)
    if int(tl_peak) != int(peak):
        print(f"[churn-smoke] FAIL: timeline peak {tl_peak} != scalar "
              f"peak {peak}", flush=True)
        ok = False
    if footprint_csv:
        Path(footprint_csv).write_text(timeline_csv(snapshot))
        print(f"[churn-smoke] wrote {footprint_csv}", flush=True)

    trace = job.obs.chrome_trace(label=f"churn-smoke {npes} PEs")
    phases = validate_chrome_trace(trace)
    names = {ev.get("name") for ev in trace["traceEvents"]}
    print(f"[churn-smoke] trace: {sum(phases.values())} events "
          f"{phases}", flush=True)
    for required in ("conduit.disconnect", "conduit.drain",
                     "conduit.connect", "conduit.serve"):
        if required not in names:
            print(f"[churn-smoke] FAIL: no {required!r} span in the "
                  "trace", flush=True)
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--npes", type=int, default=512,
                        help="churn job size (default 512)")
    parser.add_argument("--footprint-csv", default=None, metavar="FILE",
                        help="write the sampled timeline as CSV here")
    args = parser.parse_args(argv)

    if not churn_gate(args.npes, footprint_csv=args.footprint_csv):
        print("[churn-smoke] FAILED", flush=True)
        return 1
    print("[churn-smoke] all gates passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
