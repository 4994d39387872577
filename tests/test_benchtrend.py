"""``tools/benchtrend.py`` on two small bench files: the medians per file,
workload and metric, and the growth exponent per side."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchtrend", ROOT / "tools" / "benchtrend.py")
benchtrend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchtrend)


def run(workload: str, side: str, p50: float, setup_wall: float | None = None) -> dict:
    record = {"workload": workload, "seed": 1, "pair": 0, "side": side,
              "result": {"correct": True, "attempted": 100, "failed": 0,
                         "metrics": {"setup_s": {"value": 0.02, "unit": "s"},
                                     "job_p50_s": {"value": p50, "unit": "s"}}}}
    if setup_wall is not None:
        record["setup_wall_s"] = setup_wall
    return record


@pytest.fixture
def bench_files(tmp_path):
    # an older file without wall setup readings or exponent runs, and a newer
    # one with both, on two workloads
    older = {"runs": [run("div-sd", "parent", 0.004), run("div-sd", "change", 0.003),
                      run("div-sd", "parent", 0.006), run("div-sd", "change", 0.005)]}
    newer = {"runs": [run("div-sd", "parent", 0.003, 0.010), run("div-sd", "change", 0.003, 0.007),
                      run("cli-mix", "parent", 0.002, 0.014), run("cli-mix", "change", 0.001, 0.012)],
             "exponent_runs": [{"side": "parent", "process": 0, "growth_exponent": 1.8},
                               {"side": "change", "process": 0, "growth_exponent": 1.7},
                               {"side": "change", "process": 1, "growth_exponent": 1.9},
                               {"side": "parent", "process": 1, "growth_exponent": 1.6},
                               {"side": "parent", "process": 2, "growth_exponent": 1.75}]}
    paths = [tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"]
    for path, bench in zip(paths, (older, newer)):
        path.write_text(json.dumps(bench))
    return paths


def test_the_trend_prints_each_side_median_per_file_workload_and_metric(bench_files, capsys):
    assert benchtrend.main([str(path) for path in bench_files]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        ["workload", "metric", "file", "parent", "change", "delta"],
        ["div-sd", "setup_s", "BENCH_1.json", "0.02", "0.02", "+0.0%"],
        ["div-sd", "setup_s", "BENCH_2.json", "0.02", "0.02", "+0.0%"],
        ["div-sd", "job_p50_s", "BENCH_1.json", "0.005", "0.004", "-20.0%"],
        ["div-sd", "job_p50_s", "BENCH_2.json", "0.003", "0.003", "+0.0%"],
        ["div-sd", "setup_wall_s", "BENCH_2.json", "0.01", "0.007", "-30.0%"],
        ["cli-mix", "setup_s", "BENCH_2.json", "0.02", "0.02", "+0.0%"],
        ["cli-mix", "job_p50_s", "BENCH_2.json", "0.002", "0.001", "-50.0%"],
        ["cli-mix", "setup_wall_s", "BENCH_2.json", "0.014", "0.012", "-14.3%"],
        ["growth", "exponent", "BENCH_2.json", "parent", "median", "1.750", "min", "1.600,",
         "change", "median", "1.800", "min", "1.700"],
    ]


def test_the_trend_needs_a_file():
    with pytest.raises(SystemExit) as exit_info:
        benchtrend.main([])
    assert exit_info.value.code == 2
