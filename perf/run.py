"""The repo benchmark: host cost of simulated jobs, end to end and by layer.

Run from the repo root::

    python3 perf/run.py                      # all workloads, N = 7 jobs each
    python3 perf/run.py --quick              # toy sizes, one job each
    python3 perf/run.py --sets 2             # two sets; fail if they disagree
    python3 perf/run.py --workload churn-lru-256 --seed 7 --seconds 25 --trace 0

Every job runs in a fresh child process (``perf/child.py``), one at a
time, rotating round-robin across the workloads (order reversed on odd
rounds): a closed loop with one client.  ``--trace 0`` runs only the
timed jobs, ``--trace 1`` only the traced ones (plus one plain job for
the trace overhead); without ``--trace`` both run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full report, with every job's raw
numbers, the host block and the spans, goes to ``perf/out/report.json``.
The exit code is nonzero when a job fails or the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
SRC = REPO / "src"
REFERENCE = PERF / "reference.json"
REPORT = PERF / "out" / "report.json"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perf: no simulator source at {SRC / 'repro'}; "
                     "run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import ledger  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: name -> (unit, better, bound).  The bound is the share of the
#: parent's value by which a metric may worsen; ``BENCHMARK.json``
#: repeats this table.  wall_s's bound covers the drift of host speed
#: between runs minutes apart (see perf/README.md).
END_TO_END = {
    "wall_s": ("s", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}
#: A job still running after this long has hung and counts as failed.
JOB_TIMEOUT_S = 150
DEFAULT_JOBS = 7
ENVELOPE_STRETCHES = 20


def log(msg: str) -> None:
    print(f"[perf] {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# one child process
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, mode: str, quick: bool) -> dict:
    """Run one job in a fresh process; ``failed`` holds why it failed."""
    cmd = [sys.executable, str(PERF / "child.py"), name, str(seed), mode]
    if quick:
        cmd.append("--quick")
    rec = {"workload": name, "mode": mode, "failed": None}
    try:
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["failed"] = f"timed out after {JOB_TIMEOUT_S} s"
        return rec
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        rec["failed"] = f"exit {proc.returncode}: {tail}"
        return rec
    rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    if rec["error"] is not None:
        rec["failed"] = f"validation: {rec['error']}"
    return rec


def _drift(ref, got, path: str = "") -> Optional[str]:
    """The first field where ``got`` differs from ``ref``, or None."""
    if isinstance(ref, dict) and isinstance(got, dict):
        for key in sorted(set(ref) | set(got)):
            found = _drift(ref.get(key), got.get(key), f"{path}{key}.")
            if found:
                return found
        return None
    return None if ref == got else f"{path.rstrip('.')}: {got!r} != {ref!r}"


def check_fingerprints(records: List[dict], expected: Optional[dict]) -> None:
    """Fail every job whose output differs from ``expected`` or, when
    there is no reference, from the first good job of the run."""
    for rec in records:
        if rec["failed"] is not None:
            continue
        if expected is None:
            expected = rec["fingerprint"]
            continue
        drift = _drift(expected, rec["fingerprint"])
        if drift:
            rec["failed"] = f"fingerprint drift in {drift}"


# ----------------------------------------------------------------------
# timed jobs and their summary
# ----------------------------------------------------------------------
def run_set(names, seed, quick, jobs, seconds) -> Dict[str, List[dict]]:
    """Timed jobs, round-robin; stop after ``jobs`` rounds or, when
    ``seconds`` is given, at the first round end past it."""
    records: Dict[str, List[dict]] = {n: [] for n in names}
    start = time.perf_counter()
    rounds = 0
    while True:
        for name in (names if rounds % 2 == 0 else names[::-1]):
            rec = run_child(name, seed, "time", quick)
            records[name].append(rec)
            log(f"{name} job {len(records[name])}: " + (
                f"FAILED {rec['failed']}" if rec["failed"] else
                f"wall {rec['wall_s']:.3f} s, build {rec['build_s']:.4f} s, "
                f"rss {rec['peak_rss_mb']:.1f} MiB"))
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds) if seconds is not None else rounds >= jobs:
            return records


def _spread(values: List[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"all": values, "min": min(values), "median": q2,
            "q1": q1, "q3": q3}


def _reached(progress, sim_time: float) -> float:
    """Host seconds into the run at which simulated time reached ``sim_time``."""
    for (t0, s0), (t1, s1) in zip(progress, progress[1:]):
        if s1 >= sim_time:
            return t0 + (t1 - t0) * ((sim_time - s0) / (s1 - s0) if s1 > s0 else 1.0)
    return progress[-1][0]


def envelope_run_s(records: List[dict]) -> float:
    """Best-of-N run time, taken stretch by stretch.

    The jobs are identical, so each passes the same simulated times.
    The first job's run is cut into ``ENVELOPE_STRETCHES`` equal spans of
    host time; each stretch costs the fastest any job took for it.  Host
    slowdowns last seconds, so this recovers the undisturbed run time
    from jobs that were each slowed somewhere; it is at most the fastest
    job's own run time.
    """
    ref = records[0]["progress"]
    cuts = [next(s for t, s in ref if t >= ref[-1][0] * k / ENVELOPE_STRETCHES)
            for k in range(1, ENVELOPE_STRETCHES)]
    stretches = []
    for rec in records:
        at = [0.0] + [_reached(rec["progress"], s) for s in cuts] + [rec["run_s"]]
        stretches.append([b - a for a, b in zip(at, at[1:])])
    return sum(min(column) for column in zip(*stretches))


def summarise(records: List[dict]) -> dict:
    """End-to-end metrics of one workload's timed jobs, plus raw times."""
    good = [r for r in records if r["failed"] is None]
    out = {"attempted": len(records), "failed": len(records) - len(good),
           "fail_ratio": (len(records) - len(good)) / len(records),
           "metrics": {}, "raw": {}}
    if not good:
        return out
    builds = [r["build_s"] for r in good]
    rss = [r["peak_rss_mb"] for r in good]
    # Best-of-N: host noise on a shared machine only ever adds time.
    out["metrics"] = {"wall_s": min(builds) + envelope_run_s(good),
                      "setup_s": min(builds), "peak_rss_mb": max(rss)}
    out["raw"] = {"wall_s": _spread([r["wall_s"] for r in good]),
                  "setup_s": _spread(builds),
                  "run_s": _spread([r["run_s"] for r in good]),
                  "peak_rss_mb": _spread(rss)}
    return out


def agreement(sets: List[Dict[str, dict]]) -> List[dict]:
    """Each end-to-end metric of every later set against the first."""
    rows = []
    for later in sets[1:]:
        for name, first in sets[0].items():
            second = later[name]
            rows.append({"workload": name, "metric": "fail_ratio",
                         "a": first["fail_ratio"], "b": second["fail_ratio"],
                         "diff": second["fail_ratio"] - first["fail_ratio"],
                         "bound": 0.0})
            for metric, (_unit, _better, bound) in END_TO_END.items():
                a = first["metrics"].get(metric)
                b = second["metrics"].get(metric)
                diff = abs(b - a) / a if a and b is not None else float("inf")
                rows.append({"workload": name, "metric": metric, "a": a,
                             "b": b, "diff": diff, "bound": bound})
    for row in rows:
        row["ok"] = row["diff"] <= row["bound"]
    return rows


# ----------------------------------------------------------------------
# traced jobs: the per-layer ledger
# ----------------------------------------------------------------------
def run_traced(name: str, seed: int, quick: bool) -> List[dict]:
    """The profile pass and the memory pass, each in its own process."""
    recs = [run_child(name, seed, mode, quick) for mode in ("profile", "memory")]
    for rec in recs:
        log(f"{name} {rec['mode']} pass: " + (
            f"FAILED {rec['failed']}" if rec["failed"] else "ok"))
    return recs


def ledger_metrics(recs: List[dict]) -> Dict[str, float]:
    layers = {}
    for rec in recs:
        if rec["failed"] is None:
            layers.update(rec["layers"])
    return {name: layers[name] for name, _u, _b in ledger.PER_LAYER
            if name in layers}


# ----------------------------------------------------------------------
def host_block(args, jobs) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "jobs": jobs,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def update_reference() -> int:
    """Rewrite ``perf/reference.json`` from one job per workload and size."""
    reference = {}
    for variant, quick in (("full", False), ("quick", True)):
        reference[variant] = {}
        for name in WORKLOADS:
            rec = run_child(name, DEFAULT_SEED, "time", quick)
            if rec["failed"]:
                log(f"{name} ({variant}) FAILED {rec['failed']}")
                return 1
            reference[variant][name] = rec["fingerprint"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    log(f"wrote {REFERENCE}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="RuntimeConfig seed; the default is checked against "
                        "perf/reference.json, any other for agreement "
                        "between the run's own jobs")
    p.add_argument("--seconds", type=float, default=None,
                   help="time budget for the timed jobs (overrides --jobs)")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"timed jobs per workload (default {DEFAULT_JOBS}, "
                        "quick 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: timed jobs only, 1: traced jobs only "
                        "(default: both)")
    p.add_argument("--sets", type=int, default=1,
                   help="independent sets of timed jobs; with 2 or more, "
                        "exit nonzero when a metric differs beyond its bound")
    p.add_argument("--quick", action="store_true",
                   help="toy sizes (256 / 128 / 32 / 16 PEs)")
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite perf/reference.json and exit")
    return p.parse_args(argv)


def main(argv=None, reference_path: Path = REFERENCE) -> int:
    args = parse_args(argv)
    if args.update_reference:
        return update_reference()
    names = args.workload or list(WORKLOADS)
    jobs = args.jobs or (1 if args.quick else DEFAULT_JOBS)
    t0 = time.perf_counter()
    report = {"host": host_block(args, jobs), "workloads": names}

    sets = [run_set(names, args.seed, args.quick, jobs, args.seconds)
            for _ in range(args.sets)] if args.trace != 1 else []
    plain, traced = {}, {}
    if args.trace != 0:
        for name in names:
            if not sets:
                # One plain job, so the trace overhead has a base.
                plain[name] = [run_child(name, args.seed, "time", args.quick)]
            traced[name] = run_traced(name, args.seed, args.quick)

    expected = {}
    if args.seed == DEFAULT_SEED:
        variant = "quick" if args.quick else "full"
        expected = json.loads(Path(reference_path).read_text())[variant]
    every = {n: [r for s in sets for r in s[n]] + plain.get(n, [])
             + traced.get(n, []) for n in names}
    for name in names:
        check_fingerprints(every[name], expected.get(name))
        for rec in every[name]:
            if rec["failed"] and "fingerprint" in rec["failed"]:
                log(f"{name} {rec['mode']} job FAILED {rec['failed']}")

    summaries = [{n: summarise(s[n]) for n in names} for s in sets]
    metrics: Dict[str, Dict[str, float]] = {n: {} for n in names}
    per_workload = {}
    for name in names:
        entry = {}
        if summaries:
            entry["sets"] = [s[name] for s in summaries]
            metrics[name].update(summaries[0][name]["metrics"])
        if name in traced:
            layer = ledger_metrics(traced[name])
            metrics[name].update(layer)
            entry["layers"] = layer
            prof = [r for r in traced[name][:1] if r["failed"] is None]
            timed = [r["wall_s"] for r in every[name]
                     if r["mode"] == "time" and r["failed"] is None]
            if prof and timed:
                entry["spans"] = prof[0]["spans"]
                entry["trace_overhead"] = prof[0]["traced_wall_s"] / min(timed)
        per_workload[name] = entry

    attempted = sum(len(v) for v in every.values())
    failed = sum(r["failed"] is not None for v in every.values() for r in v)
    rows = agreement([{n: s[n] for n in names} for s in summaries])
    for row in rows:
        log(f"{row['workload']:<20} {row['metric']:<12} set1 {row['a']!s:<22} "
            f"set2 {row['b']!s:<22} diff {row['diff']:.4f} "
            f"bound {row['bound']:.2f} {'ok' if row['ok'] else 'EXCEEDED'}")

    for recs in every.values():
        for rec in recs:
            rec.pop("progress", None)  # summarised by envelope_run_s
    report.update({"per_workload": per_workload, "agreement": rows,
                   "attempted": attempted, "failed": failed,
                   "jobs": {n: every[n] for n in names}})
    report["host"]["loadavg_end"] = os.getloadavg()
    report["host"]["total_s"] = time.perf_counter() - t0
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=1) + "\n")

    units = {m: u for m, (u, _b, _x) in END_TO_END.items()}
    units.update({m: u for m, u, _b in ledger.PER_LAYER})
    flat = {}
    for name in names:
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in metrics[name].items():
            flat[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if failed == 0 and all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
