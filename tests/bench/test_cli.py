"""The `python -m repro.bench` command-line interface."""

from pathlib import Path

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_list_mode(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1_breakdown", "fig5a_startup", "fig9_resources",
                 "ablation_d2_pmi"):
        assert name in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment():
    assert main(["nope"]) == 2


def test_sizes_only_with_fig5_scale():
    assert main(["fig5a_startup", "--sizes", "128"]) == 2


def test_runs_small_experiment(capsys):
    assert main(["fig6c_atomics"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6(c)" in out
    assert "fadd" in out


def test_every_registered_name_is_callable():
    for name, fn in EXPERIMENTS.items():
        assert callable(fn), name


def test_registry_names_are_the_committed_artifact_stems():
    # One name per experiment: the stem of its quick table and of its
    # paper-scale table.
    for directory in (RESULTS, RESULTS / "full"):
        stems = {p.stem for p in directory.glob("*.txt")}
        assert stems == set(EXPERIMENTS), directory


def test_full_prints_the_committed_full_tables(capsys):
    names = ["ablation_d1_piggyback", "fig6c_atomics"]
    assert main(["--full", *names]) == 0
    want = "".join((RESULTS / "full" / f"{name}.txt").read_text() + "\n"
                   for name in names)
    assert capsys.readouterr().out == want
