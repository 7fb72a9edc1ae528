"""End-to-end checks of perf/run.py, mostly on the quick sizes."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_ledger():
    """One quick traced run of every workload: ``{workload: metrics}``."""
    out = {}
    for name in WORKLOADS:
        recs = run.run_traced(name, DEFAULT_SEED, quick=True)
        assert all(r["failed"] is None for r in recs), recs
        out[name] = run.ledger_metrics(recs)
    return out


def test_quick_ledger_has_every_metric(quick_ledger):
    for metrics in quick_ledger.values():
        assert list(metrics) == [name for name, _u, _b in run.ledger.PER_LAYER]


def test_quick_ledger_shape(quick_ledger):
    def positive(metric):
        return {n for n, m in quick_ledger.items() if m[metric] > 0}

    assert positive("gasnet.reconnects") == {"churn-lru-256"}
    assert positive("gasnet.evictions") == {"churn-lru-256"}
    assert positive("mpi.collectives") == {"graph500-hybrid-64"}
    assert positive("mpi.calls") == {"graph500-hybrid-64"}
    gets = {n: m["pmi.gets"] for n, m in quick_ledger.items()}
    assert max(gets, key=gets.get) == "startup-static-4k"
    ondemand = quick_ledger["startup-ondemand-8k"]
    retained = {layer: ondemand[f"{layer}.retained_mb"]
                for layer in run.ledger.LAYERS}
    assert max(retained, key=retained.get) == "ib"


def test_quick_run_is_correct_at_another_seed(capsys):
    code = run.main(["--quick", "--seed", "7", "--jobs", "2", "--trace", "0"])
    result = _last_line(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(WORKLOADS)
    report = json.loads(run.REPORT.read_text())
    for name in WORKLOADS:
        assert report["per_workload"][name]["sets"][0]["fail_ratio"] == 0


def test_corrupted_reference_fails_every_job(tmp_path, capsys):
    reference = json.loads(run.REFERENCE.read_text())
    reference["quick"]["churn-lru-256"]["startup"]["mean_us"] += 1.0
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code = run.main(["--quick", "--workload", "churn-lru-256", "--jobs", "2",
                     "--trace", "0"], reference_path=path)
    result = _last_line(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"] == 2
    report = json.loads(run.REPORT.read_text())
    assert report["per_workload"]["churn-lru-256"]["sets"][0]["fail_ratio"] == 1.0
    jobs = report["jobs"]["churn-lru-256"]
    assert all("startup.mean_us" in job["failed"] for job in jobs)


def test_peak_rss_is_per_job():
    """A small job's peak RSS does not inherit a large job's high-water."""
    small = "graph500-hybrid-64"
    alone = run.run_child(small, DEFAULT_SEED, "time", quick=True)
    large = run.run_child("startup-static-4k", DEFAULT_SEED, "time", quick=False)
    after = run.run_child(small, DEFAULT_SEED, "time", quick=True)
    assert large["peak_rss_mb"] > 3 * alone["peak_rss_mb"]
    assert after["peak_rss_mb"] == pytest.approx(alone["peak_rss_mb"], rel=0.05)


def test_fails_without_the_simulator_source(tmp_path):
    """Run from a directory holding only the benchmark: no result, exit != 0."""
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "churn-lru-256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
