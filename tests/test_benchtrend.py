"""``tools/benchtrend.py``: the verdict rule, the report of two small bench
files, and the report of every committed ``BENCH_*.json`` file."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import benchtrend

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]


def run(workload: str, side: str, pair: int, p50: float) -> dict:
    values = {"setup_s": 0.02, "job_p50_s": p50, "job_p90_s": 0.004, "digits_per_s": 1e5, "peak_rss_mb": 24.0}
    return {"workload": workload, "seed": 1 + pair, "pair": pair, "side": side,
            "result": {"correct": True, "attempted": 100, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}}


@pytest.fixture
def bench_files(tmp_path):
    # an older file with one workload, an incomplete third pair and no
    # exponent runs, and a newer one with two workloads and exponent runs
    older = {"runs": [run("div-sd", "parent", 0, 0.004), run("div-sd", "change", 0, 0.003),
                      run("div-sd", "change", 1, 0.005), run("div-sd", "parent", 1, 0.006),
                      run("div-sd", "parent", 2, 0.1)]}
    newer = {"runs": [run("div-sd", "parent", 0, 0.003), run("div-sd", "change", 0, 0.003),
                      run("cli-mix", "parent", 0, 0.002), run("cli-mix", "change", 0, 0.001)],
             "exponent_runs": [{"side": "parent", "process": 0, "growth_exponent": 1.8},
                               {"side": "change", "process": 0, "growth_exponent": 1.7},
                               {"side": "change", "process": 1, "growth_exponent": 1.9},
                               {"side": "parent", "process": 1, "growth_exponent": 1.6},
                               {"side": "parent", "process": 2, "growth_exponent": 1.75}]}
    paths = [tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"]
    for path, bench in zip(paths, (older, newer)):
        path.write_text(json.dumps(bench))
    return paths


def test_verdicts_against_the_bound():
    # worse past the bound; unresolved where the parent's quartiles lie
    # further apart than the bound, unless every change run reads better
    # than every parent run; ties win for neither side
    assert benchtrend.compare([1.0] * 4, [1.3] * 4, "lower", 0.25)["verdict"] == "worse"
    assert benchtrend.compare([1.0] * 4, [0.7] * 4, "higher", 0.25)["verdict"] == "worse"
    assert benchtrend.compare([1.0, 1.0, 2.0, 2.0], [1.2] * 4, "lower", 0.25)["verdict"] == "unresolved"
    assert benchtrend.compare([1.0, 1.0, 2.0, 2.0], [0.9] * 4, "lower", 0.25)["verdict"] == "within"
    assert benchtrend.compare([1.0, 1.0, 2.0, 2.0], [2.1] * 4, "higher", 0.25)["verdict"] == "within"
    assert benchtrend.compare([1.0, 1.0, 2.0, 2.0], [0.9, 0.9, 0.9, 1.0], "lower", 0.25)["verdict"] == "unresolved"
    row = benchtrend.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0], "lower", 1.0)
    assert row == {"median": 3.0, "q1": 2.0, "q3": 4.0, "change": 3.0, "delta": 0.0, "won": 3,
                   "verdict": "within"}




def test_the_trend_prints_each_side_median_per_file_workload_and_metric(bench_files, capsys):
    assert benchtrend.main([str(path) for path in bench_files]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["workload", "metric", "file", "parent", "median", "[q1,", "q3]", "change", "delta", "won",
                        "verdict"]
    # workloads and metrics in BENCHMARK.json's order, files in the order given
    assert [row[:3] for row in lines[1:-4]] == (
        [["div-sd", metric, name] for metric in METRICS for name in ("BENCH_1.json", "BENCH_2.json")]
        + [["cli-mix", metric, "BENCH_2.json"] for metric in METRICS])
    rows = {tuple(row[:3]): row[3:] for row in lines[1:-4]}
    assert rows["div-sd", "job_p50_s", "BENCH_1.json"] == ["0.005", "[0.0045,", "0.0055]", "0.004", "-20.0%",
                                                          "2/2", "within"]
    assert rows["div-sd", "job_p50_s", "BENCH_2.json"] == ["0.003", "[0.003,", "0.003]", "0.003", "+0.0%", "0/1",
                                                          "within"]
    assert rows["cli-mix", "job_p50_s", "BENCH_2.json"] == ["0.002", "[0.002,", "0.002]", "0.001", "-50.0%",
                                                           "1/1", "within"]
    assert [" ".join(row) for row in lines[-4:]] == [
        "BENCH_1.json parent failed 0 of 300 jobs, 0 of 3 runs not correct",
        "BENCH_1.json change failed 0 of 200 jobs, 0 of 2 runs not correct",
        "BENCH_2.json parent failed 0 of 200 jobs, 0 of 2 runs not correct; "
        "growth exponent median 1.750, min 1.600, max 1.800 over 3 processes",
        "BENCH_2.json change failed 0 of 200 jobs, 0 of 2 runs not correct; "
        "growth exponent median 1.800, min 1.700, max 1.900 over 2 processes"]


def test_every_committed_bench_file_gets_a_verdict_per_workload_and_metric():
    benches = {path.name: json.loads(path.read_text()) for path in sorted(ROOT.glob("BENCH_*.json"))}
    rows = [line.split() for line in benchtrend.report(benches, BENCHMARK)[1:]]
    rows = [row for row in rows if row[0] in WORKLOADS]
    assert [tuple(row[:3]) for row in rows] == [
        (workload, metric, name) for workload in WORKLOADS for metric in METRICS
        for name, bench in benches.items() if benchtrend.complete_pairs(bench, workload)]
    assert {row[-1] for row in rows} <= {"within", "worse", "unresolved"}
    assert [row[-1] for row in rows if row[2] == "BENCH_30.json"] == ["within"] * len(WORKLOADS) * len(METRICS)


def test_the_trend_needs_a_file():
    with pytest.raises(SystemExit) as exit_info:
        benchtrend.main([])
    assert exit_info.value.code == 2
