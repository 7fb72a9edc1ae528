#!/usr/bin/env python
"""CI scale smoke: the event kernel at real size, on a budget.

Three gates, all cheap enough for every merge:

1. **Order**: the 128-PE golden trace, replayed with microtasks and
   event waves enabled, must match the committed fixture byte for
   byte — the fast paths are constant-factor optimisations, never
   semantic ones.

2. **Macro scale**: a 262,144-PE on-demand startup through the
   analytical phase-model layer (``macro=True``) must finish inside
   ``--macro-budget`` seconds and ``--macro-rss-mb`` peak RSS.  The
   macro layer's whole value is O(nodes) cost at any npes; a stray
   per-PE loop or per-PE allocation shows up here immediately.  It
   runs in this process; the exact gate below runs in a child, so the
   process RSS high-water reflects the macro run alone.

3. **Scale**: a 16,384-PE on-demand startup (one fig5 scale point) on
   the exact engine must finish inside ``--budget`` wall-clock
   seconds and ``--rss-kb-per-pe`` KiB of peak RSS per simulated PE.
   An accidental O(N^2) anywhere in the startup path blows the budget
   immediately rather than surfacing months later on someone's
   65,536-PE run.  Likewise a per-PE buffer that startup never touches
   (say, an eagerly zeroed heap backing array) blows the memory
   budget.  The job runs in a fresh child process, spawned before the
   macro gate runs, so the peak RSS it reports is its own, not the
   macro gate's.

Usage::

    PYTHONPATH=src python scripts/scale_smoke.py              # defaults
    PYTHONPATH=src python scripts/scale_smoke.py --npes 4096 --budget 60
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import HelloWorld  # noqa: E402
from repro.cluster import cluster_b  # noqa: E402
from repro.core import Job, RuntimeConfig  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "data" / "golden_trace_ondemand_128.txt"


def _exact_startup(npes: int) -> tuple:
    """One exact-engine startup; returns (wall s, sim s, start_pes ms,
    peak RSS KiB).  Meant for a fresh process: ``ru_maxrss`` is the
    process-wide high-water."""
    t0 = time.perf_counter()
    job = Job(npes=npes, config=RuntimeConfig.proposed(),
              cluster=cluster_b(npes, ppn=32))
    result = job.run(HelloWorld())
    wall = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (wall, result.wall_time_us / 1e6, result.startup.mean_us / 1e3,
            rss_kb)


def scale_gate(npes: int, budget_s: float, rss_kb_per_pe: float) -> bool:
    print(f"[scale-smoke] {npes}-PE on-demand startup "
          f"(budget {budget_s:.0f}s / {rss_kb_per_pe:.0f}KiB RSS per PE) "
          "...", flush=True)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        wall, sim_s, start_ms, rss_kb = pool.apply(_exact_startup, (npes,))
    per_pe = rss_kb / npes
    ok = wall <= budget_s and per_pe <= rss_kb_per_pe
    print(f"[scale-smoke] {npes}-PE: wall={wall:.1f}s "
          f"rss={rss_kb / 1024:.0f}MB ({per_pe:.1f}KiB/PE) "
          f"sim={sim_s:.2f}s start_pes={start_ms:.1f}ms "
          f"-> {'OK' if ok else 'OVER BUDGET'}", flush=True)
    return ok


def macro_gate(npes: int, budget_s: float, rss_budget_mb: float) -> bool:
    print(f"[scale-smoke] {npes}-PE macro startup "
          f"(budget {budget_s:.0f}s / {rss_budget_mb:.0f}MB RSS) ...",
          flush=True)
    t0 = time.perf_counter()
    config = RuntimeConfig.proposed(macro=True)
    job = Job(npes=npes, config=config, cluster=cluster_b(npes, ppn=32))
    result = job.run(HelloWorld())
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = wall <= budget_s and rss_mb <= rss_budget_mb
    print(f"[scale-smoke] {npes}-PE macro: wall={wall:.1f}s "
          f"rss={rss_mb:.0f}MB sim={result.wall_time_us / 1e6:.2f}s "
          f"start_pes={result.startup.mean_us / 1e3:.1f}ms "
          f"-> {'OK' if ok else 'OVER BUDGET'}", flush=True)
    return ok


def golden_gate() -> bool:
    print("[scale-smoke] 128-PE golden trace vs fixture ...", flush=True)
    want = GOLDEN.read_text().splitlines()
    job = Job(npes=128, config=RuntimeConfig.proposed(),
              cluster=cluster_b(128, ppn=16), trace=True)
    job.run(HelloWorld())
    got = job.tracer.formatted()
    if got == want:
        print(f"[scale-smoke] {len(got)} lines, byte-identical", flush=True)
        return True
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            print(f"[scale-smoke] trace diverges at line {i + 1}:\n"
                  f"  got:  {g}\n  want: {w}", flush=True)
            break
    else:
        print(f"[scale-smoke] trace length {len(got)} != fixture "
              f"{len(want)}", flush=True)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--npes", type=int, default=16384,
                        help="scale-gate job size (default 16384)")
    parser.add_argument("--budget", type=float, default=300.0,
                        help="wall-clock budget in seconds (default 300; "
                             "the reference 1-core host runs 16K PEs in "
                             "~20s, so 300 absorbs slow shared runners)")
    parser.add_argument("--rss-kb-per-pe", type=float, default=48.0,
                        help="scale-gate peak-RSS budget in KiB per "
                             "simulated PE (default 48; the reference "
                             "host peaks ~15 KiB/PE at 16,384 PEs)")
    parser.add_argument("--macro-npes", type=int, default=262144,
                        help="macro-gate job size (default 262144)")
    parser.add_argument("--macro-budget", type=float, default=120.0,
                        help="macro-gate wall budget in seconds (default "
                             "120; the reference host models 262,144 PEs "
                             "in ~3s)")
    parser.add_argument("--macro-rss-mb", type=float, default=4096.0,
                        help="macro-gate peak-RSS budget in MB (default "
                             "4096; the reference host peaks ~300MB)")
    parser.add_argument("--skip-scale", action="store_true",
                        help="golden-trace gate only")
    args = parser.parse_args(argv)

    ok = golden_gate()
    if not args.skip_scale:
        # getrusage's high-water is process-wide: the macro gate runs
        # in this process, the exact gate in a child of its own.  A
        # spawned child's high-water starts at this process's, so the
        # child goes first, before the macro gate grows this process.
        ok = scale_gate(args.npes, args.budget, args.rss_kb_per_pe) and ok
        ok = macro_gate(args.macro_npes, args.macro_budget,
                        args.macro_rss_mb) and ok
    if not ok:
        print("[scale-smoke] FAILED", flush=True)
        return 1
    print("[scale-smoke] all gates passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
