"""Layer attribution, metric names, and BENCHMARK.json against the code."""

import json
import re

import pytest

import ledger
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("filename,layer", [
    ("/home/u/repo/src/repro/sim/engine.py", "sim"),
    ("/home/u/repo/src/repro/ib/verbs.py", "ib"),
    ("/home/u/repo/src/repro/apps/nas/bt.py", "apps"),
    ("/home/u/repo/src/repro/core/job.py", "core"),
    ("/home/u/repo/src/repro/cluster/presets.py", "cluster"),
    ("/home/u/repo/src/repro/obs/metrics.py", "other"),
    ("/home/u/repo/src/repro/errors.py", "other"),
    ("/usr/lib/python3.11/json/encoder.py", "other"),
    ("~", "other"),
    ("/ckout/src/repro/src/repro/gasnet/conduit.py", "gasnet"),
    ("C:\\ckout\\src\\repro\\pmi\\server.py", "pmi"),
])
def test_layer_of(filename, layer):
    assert ledger.layer_of(filename) == layer


def test_per_layer_metrics_are_five_per_layer_plus_counters():
    names = [name for name, _unit, _better in ledger.PER_LAYER]
    assert len(names) == len(set(names)) == 83
    for layer in ledger.LAYERS:
        for kind in ("self_s", "calls", "build_self_s", "retained_mb",
                     "build_retained_mb"):
            assert f"{layer}.{kind}" in names


def test_metric_names_and_units_are_well_formed():
    rows = ledger.PER_LAYER + [(n, u, b) for n, (u, b, _x)
                               in run.END_TO_END.items()]
    for name, unit, better in rows:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    for name in WORKLOADS:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == ledger.PER_LAYER
    # setup_s carries the largest bound, and no bound exceeds 0.25.
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_drift_names_the_first_differing_field():
    ref = {"startup": {"mean_us": 1.0, "max_us": 2.0}, "wall_time_us": 3.0}
    got = {"startup": {"mean_us": 1.0, "max_us": 2.5}, "wall_time_us": 3.0}
    assert run._drift(ref, ref) is None
    assert run._drift(ref, got) == "startup.max_us: 2.5 != 2.0"


def _job(speeds):
    """A job whose simulated clock runs 0..10 at ``speeds[i]`` sim-units
    per host second in half ``i``; sampled every 0.01 host seconds."""
    progress, t, sim = [(0.0, 0.0)], 0.0, 0.0
    while sim < 10.0:
        speed = speeds[0] if sim < 5.0 else speeds[1]
        t, sim = t + 0.01, min(10.0, sim + speed * 0.01)
        progress.append((t, sim))
    return {"progress": progress, "run_s": t}


def test_envelope_takes_each_stretch_from_its_fastest_job():
    alone = _job([10.0, 10.0])
    assert run.envelope_run_s([alone]) == pytest.approx(alone["run_s"])
    slow_first, slow_second = _job([5.0, 10.0]), _job([10.0, 5.0])
    both = run.envelope_run_s([slow_first, slow_second])
    assert both == pytest.approx(1.0, abs=0.03)
    assert both <= min(slow_first["run_s"], slow_second["run_s"])


def test_agreement_flags_a_metric_beyond_its_bound():
    first = {"w": {"fail_ratio": 0.0, "metrics": {
        "wall_s": 1.0, "setup_s": 0.01, "peak_rss_mb": 100.0}}}
    close = {"w": {"fail_ratio": 0.0, "metrics": {
        "wall_s": 1.05, "setup_s": 0.011, "peak_rss_mb": 101.0}}}
    slow = {"w": {"fail_ratio": 0.5, "metrics": {
        "wall_s": 1.3, "setup_s": 0.01, "peak_rss_mb": 100.0}}}
    assert all(row["ok"] for row in run.agreement([first, close]))
    bad = {row["metric"] for row in run.agreement([first, slow])
           if not row["ok"]}
    assert bad == {"wall_s", "fail_ratio"}
