"""The diff tool: it loads only the telemetry record, self-diffs it to
zero deltas, and rejects every other file at the boundary."""

import csv
import io
import json

import pytest

from repro.apps import HelloWorld
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.obs import diff_snapshots, format_diff, load_snapshot, timeline_csv
from repro.obs.__main__ import main as obs_main


@pytest.fixture(scope="module")
def telemetry():
    config = RuntimeConfig.proposed(
        observe={"timeline": {"interval_us": 2000.0}})
    job = Job(npes=8, config=config, cluster=cluster_a(8, ppn=2))
    return job.run(HelloWorld()).telemetry


def _assert_zero_self_diff(report):
    for entry in report["series"].values():
        assert entry["only_in"] is None
        assert entry["peak_delta"] == 0.0 and entry["final_delta"] == 0.0
    for entry in report["counters"].values():
        assert entry["only_in"] is None and entry["delta"] == 0
    for entry in report["histograms"].values():
        assert entry["only_in"] is None
        for field in ("count", "mean", "p50", "p99"):
            assert entry[f"{field}_delta"] == 0


def _record(counters=None, series=None):
    record = {"spans": {}, "counters": counters or {}, "histograms": {}}
    if series is not None:
        record["timeline"] = {"series": series}
    return record


class TestRoundTrips:
    def test_telemetry_json(self, telemetry, tmp_path):
        path = tmp_path / "tele.json"
        path.write_text(json.dumps(telemetry))
        record = load_snapshot(str(path))
        assert record == telemetry
        assert (record["timeline"]["series"] and record["counters"]
                and record["histograms"])
        _assert_zero_self_diff(diff_snapshots(record, record))

    def test_timeline_csv(self, telemetry):
        """The CSV rendering carries every stored sample, exactly."""
        rows = list(csv.reader(io.StringIO(timeline_csv(
            telemetry["timeline"]))))
        assert rows[0] == ["series", "kind", "t_us", "value"]
        got = {}
        for key, kind, t, value in rows[1:]:
            buf = got.setdefault(key, {"kind": kind, "t": [], "value": []})
            buf["t"].append(float(t))
            buf["value"].append(float(value))
        want = telemetry["timeline"]["series"]
        assert got == {k: {"kind": b["kind"], "t": b["t"], "value": b["value"]}
                       for k, b in want.items()}


class TestDiffSemantics:
    def test_series_deltas_and_only_in(self):
        a = _record(series={
            "conn": {"kind": "gauge", "value": [3.0, 5.0, 2.0]},
            "gone": {"kind": "gauge", "value": [1.0]},
        })
        b = _record(series={
            "conn": {"kind": "gauge", "value": [9.0, 4.0]},
            "new": {"kind": "gauge", "value": [2.0]},
        })
        report = diff_snapshots(a, b)
        conn = report["series"]["conn"]
        assert conn["peak_delta"] == 4.0 and conn["final_delta"] == 2.0
        assert report["series"]["gone"]["only_in"] == "a"
        assert report["series"]["new"]["only_in"] == "b"

    def test_counter_delta(self):
        report = diff_snapshots(_record({"evictions": 10}),
                                _record({"evictions": 3}))
        assert report["counters"]["evictions"]["delta"] == -7

    def test_format_diff_mentions_everything(self):
        report = diff_snapshots(
            _record({"c": 1}, {"x": {"value": [1.0]}}),
            _record({"c": 5}, {"x": {"value": [4.0, 0.0]}}),
        )
        text = format_diff(report, label_a="base", label_b="new")
        assert "A=base" in text and "B=new" in text
        assert "x: peak 1 -> 4 (+3)" in text
        assert "c: 1 -> 5 (+4)" in text

    def test_format_diff_empty(self):
        text = format_diff(diff_snapshots(_record(), _record()))
        assert "(no overlapping telemetry)" in text


class TestLoadSnapshotErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("content,why", [
        ("", "empty"),
        ("{not json", "corrupt JSON"),
        ("[1, 2]", "must be an object"),
        ("what even is this", "unrecognised"),
    ])
    def test_bad_content(self, tmp_path, content, why):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=why):
            load_snapshot(str(path))


@pytest.mark.parametrize("name,write,missing", [
    ("timeline.csv", lambda t: timeline_csv(t["timeline"]), "spans"),
    ("metrics.prom", lambda t: "# TYPE pmi.gets counter\npmi.gets 3\n",
     "spans"),
    ("timeline.json", lambda t: json.dumps(t["timeline"]), "spans"),
    ("old.json", lambda t: json.dumps(
        {"spans": t["spans"], "metrics": {"counters": t["counters"]}}),
     "counters"),
], ids=["timeline-csv", "prometheus", "bare-timeline", "no-record-keys"])
def test_diff_rejects_anything_but_the_record(telemetry, tmp_path, capsys,
                                              name, write, missing):
    path = tmp_path / name
    path.write_text(write(telemetry))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(telemetry))
    assert obs_main(["diff", str(good), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(path) in err and f"missing key {missing!r}" in err


class TestCli:
    def test_diff_subcommand_self_diff(self, telemetry, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(telemetry))
        assert obs_main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry diff" in out

    def test_diff_missing_file_one_line_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert obs_main(["diff", missing, missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_diff_corrupt_file_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert obs_main(["diff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "corrupt JSON" in err and "Traceback" not in err

    def test_run_output_path_validated_before_running(self, capsys):
        assert obs_main(["--npes", "4", "--out", "/no/such/dir/x.json"]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "does not exist" in err

    def test_csv_requires_timeline(self, capsys):
        assert obs_main(["--npes", "4", "--csv", "x.csv"]) == 2
        assert "--csv requires --timeline" in capsys.readouterr().err

    def test_bad_seed_one_line_error(self, capsys):
        assert obs_main(["--npes", "4", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative int" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--npes", "0"), ("--ppn", "-1"), ("--ppn", "0"),
    ])
    def test_bad_size_one_line_error(self, capsys, flag, value):
        argv = ["--npes", "4", flag, value] if flag == "--ppn" \
            else [flag, value]
        assert obs_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be an integer >= 1")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_diff_output_flag_validated(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text("{}")
        assert obs_main(["diff", str(path), str(path),
                         "--output", "/no/such/dir/report.txt"]) == 2
        assert "--output" in capsys.readouterr().err
