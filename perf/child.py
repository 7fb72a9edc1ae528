"""One benchmark job in its own process; prints one JSON object.

Usage::

    python3 perf/child.py WORKLOAD SEED MODE [--quick]

``MODE`` is one of:

* ``time``    — time ``Job(...)`` (the build) and ``Job.run`` from
  outside, sample the simulated clock during the run, and report the
  process's own peak RSS;
* ``profile`` — the same job under ``cProfile`` plus ``KernelProfile``:
  self time and calls per layer, the layer counters and the spans;
* ``memory``  — the same job under ``tracemalloc``: bytes still
  allocated per layer after the build and after the run.

Every mode also reports the output fingerprint and the app validation
error (``null`` when the output is valid).  Run it from the repo root.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.profile import KernelProfile  # noqa: E402

import ledger  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

SAMPLE_PERIOD_S = 0.01


def _time(workload, npes, seed, app):
    clock = time.perf_counter
    t0 = clock()
    job = workload.build(npes, seed)
    t1 = clock()
    # (host seconds into the run, simulated time) every SAMPLE_PERIOD_S:
    # identical jobs reach the same simulated times, so run.py can line
    # up stretches of the run across jobs (see run.envelope_run_s).
    progress = [(0.0, job.sim.now)]
    stop = threading.Event()

    def sample():
        while not stop.wait(SAMPLE_PERIOD_S):
            progress.append((clock() - t1, job.sim.now))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        result = job.run(app)
    finally:
        t2 = clock()
        stop.set()
        sampler.join()
    progress.append((t2 - t1, job.sim.now))
    return result, {"build_s": t1 - t0, "run_s": t2 - t1, "wall_s": t2 - t0,
                    "progress": progress}


def _profile(workload, npes, seed, app):
    clock = time.perf_counter
    t0 = clock()
    prof = cProfile.Profile()
    prof.enable()
    job = workload.build(npes, seed)
    prof.disable()
    t1 = clock()
    build = ledger.profile_by_layer(prof)
    kernel = KernelProfile().attach(job.sim)
    t2 = clock()
    prof = cProfile.Profile()
    prof.enable()
    result = job.run(app)
    prof.disable()
    t3 = clock()
    run = ledger.profile_by_layer(prof)
    layers = {}
    for layer in ledger.LAYERS:
        layers[f"{layer}.self_s"] = run[layer]["self_s"]
        layers[f"{layer}.calls"] = run[layer]["calls"]
        layers[f"{layer}.build_self_s"] = build[layer]["self_s"]
    layers.update(ledger.layer_counters(result, kernel.snapshot(top=0)))
    spans = [
        {"id": 1, "parent": None, "name": "job", "start_s": 0.0, "end_s": t3 - t0},
        {"id": 2, "parent": 1, "name": "build", "start_s": 0.0, "end_s": t1 - t0},
        {"id": 3, "parent": 1, "name": "run", "start_s": t2 - t0, "end_s": t3 - t0},
    ]
    return result, {"layers": layers, "spans": spans,
                    "traced_wall_s": (t1 - t0) + (t3 - t2)}


def _memory(workload, npes, seed, app):
    tracemalloc.start()
    try:
        job = workload.build(npes, seed)
        gc.collect()
        build = ledger.memory_by_layer(tracemalloc.take_snapshot())
        result = job.run(app)
        gc.collect()
        run = ledger.memory_by_layer(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    layers = {}
    for layer in ledger.LAYERS:
        layers[f"{layer}.retained_mb"] = run[layer]
        layers[f"{layer}.build_retained_mb"] = build[layer]
    return result, {"layers": layers}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    name, seed, mode = [a for a in argv if a != "--quick"]
    workload = WORKLOADS[name]
    npes = workload.sized(quick)
    app = workload.app(quick)
    run = {"time": _time, "profile": _profile, "memory": _memory}[mode]
    result, out = run(workload, npes, int(seed), app)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["fingerprint"] = fingerprint(result)
    out["error"] = workload.validate(app, result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a large machine object by
    # object takes seconds and measures nothing.
    os._exit(code)
