"""Benchmark harness configuration.

Each benchmark runs one experiment from the registry
``repro.bench.experiments.EXPERIMENTS`` (quick scale by default; set
``REPRO_BENCH_FULL=1`` for paper scale), asserts the paper's
qualitative claims, and writes the rendered table under the
experiment's name to ``benchmarks/results/`` (quick) or
``benchmarks/results/full/`` (paper scale).
"""

import os
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture
def experiment(benchmark):
    """Run a registered experiment once, save its table and echo it.

    Simulations are deterministic, so one pytest-benchmark round is
    exact; re-running a multi-second DES adds nothing."""

    def _run(name: str):
        result = benchmark.pedantic(
            EXPERIMENTS[name], kwargs={"quick": not full_scale()},
            rounds=1, iterations=1,
        )
        out = RESULTS_DIR / "full" if full_scale() else RESULTS_DIR
        out.mkdir(parents=True, exist_ok=True)
        text = result.render()
        (out / f"{name}.txt").write_text(text)
        (out / f"{name}.csv").write_text(result.csv())
        print(text)
        return result

    return _run
