"""``tools/pairbench.py`` with stub runners: run order, the JSON layout of
the ``BENCH_*.json`` files and the report it prints of the file it writes,
without spawning a benchmark."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

import pairbench

ROOT = Path(__file__).resolve().parent.parent

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = BENCHMARK["end_to_end"]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def result(p50: float, failed: int = 0, correct: bool = True) -> dict:
    """A perfbench result line whose job_p50_s is ``p50`` and whose other
    metrics read the same on every run."""
    values = {"setup_s": 0.02, "job_p50_s": p50, "job_p90_s": 0.004, "digits_per_s": 1e5, "peak_rss_mb": 24.0}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def record(p50: float, failed: int = 0) -> dict:
    """What ``run_perfbench`` returns for one run: the result line."""
    return {"result": result(p50, failed)}


def test_pairs_alternate_which_side_runs_first_on_consecutive_seeds():
    calls, logged = [], []

    def runner(side, workload, seed, seconds):
        calls.append((side, workload, seed, seconds))
        return record(0.002)

    runs = pairbench.paired_runs(WORKLOADS, 7, 25, runner, logged.append)
    assert calls == [(side, workload, 7 + 10 * i + pair, 25)
                     for i, workload in enumerate(WORKLOADS) for pair in range(10)
                     for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent"))]
    assert [(run["workload"], run["seed"], run["pair"], run["side"]) for run in runs[18:22]] == [
        ("div-sd", 16, 9, "change"), ("div-sd", 16, 9, "parent"), ("div-gray", 17, 0, "parent"),
        ("div-gray", 17, 0, "change")]
    assert len(logged) == len(runs) == 80 and logged[0].startswith("div-sd seed 7 parent: setup_s=0.02 ")

    sides = []
    exponents = pairbench.exponent_runs(lambda side: sides.append(side) or {"growth_exponent": 1.8})
    assert sides == ["parent", "change", "change", "parent"] * 10
    assert exponents[2] == {"side": "change", "process": 1, "growth_exponent": 1.8}


def test_main_writes_the_bench_file_layout_and_reports_each_metric(tmp_path, monkeypatch, capsys):
    runs = []

    def run_perfbench(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed, seconds))
        parent = checkout.name == "parent"
        return record(0.003 if parent else 0.002, failed=int(workload == "div-sd"))

    def export(repo, commit, dest):
        (dest / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())

    monkeypatch.setattr(pairbench, "resolve", lambda repo, commit: commit * 40)
    monkeypatch.setattr(pairbench, "export", export)
    monkeypatch.setattr(pairbench, "run_perfbench", run_perfbench)
    monkeypatch.setattr(pairbench, "run_exponent", lambda checkout: {
        "elapsed_s": {"100": 0.001}, "growth_exponent": 1.7 if checkout.name == "parent" else 1.9})
    out = tmp_path / "BENCH.json"
    assert pairbench.main(["a", "b", "--seed", "5", "--json", str(out)]) == 0
    assert len(runs) == 80 and runs[:3] == [("parent", "div-sd", 5, 25), ("change", "div-sd", 5, 25),
                                            ("change", "div-sd", 6, 25)]
    assert runs[-1] == ("parent", "cli-mix", 44, 25)

    bench = json.loads(out.read_text())
    assert list(bench) == list(json.loads((ROOT / "BENCH_25.json").read_text()))
    assert (bench["parent"], bench["change"]) == ("a" * 40, "b" * 40)
    assert "--seconds 25," in bench["command"]
    assert bench["runs"][42] == {"workload": "expr-dag", "seed": 26, "pair": 1, "side": "change",
                                 "result": result(0.002)}
    assert len(bench["exponent_runs"]) == 40

    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:3]): line for line in lines[1:]}
    assert len(lines) == 1 + 4 * len(METRICS) + 2
    assert rows["expr-dag", "job_p50_s", "BENCH.json"].split()[-4:] == ["0.002", "-33.3%", "10/10", "within"]
    assert rows["div-sd", "setup_s", "BENCH.json"].split()[-2:] == ["0/10", "within"]
    assert lines[-2:] == [
        "BENCH.json     parent failed 10 of 4000 jobs, 0 of 40 runs not correct; "
        "growth exponent median 1.700, min 1.700, max 1.700 over 20 processes",
        "BENCH.json     change failed 10 of 4000 jobs, 0 of 40 runs not correct; "
        "growth exponent median 1.900, min 1.900, max 1.900 over 20 processes"]


def test_a_perfbench_run_keeps_its_result_line(monkeypatch, tmp_path):
    line = result(0.0017)
    stdout = ("workload cli-mix seed 3 inputs 4ca99556b01244a4\n"
              "wall (uncalibrated): setup 0.013209 s, p50 0.000817 s, p90 0.001184 s, 41454.1 digits/s; "
              "reference loop median 1.709 ms [1.620, 3.280] over 36 samples\n"
              "jobs 960, failed 0 (fail_frac 0.0000), wrong 0\n"
              "  setup_s                           0.0264899 s\n"
              + json.dumps(line) + "\n")
    calls = []

    def run(argv, **kwargs):
        calls.append((argv[1:], kwargs["cwd"], kwargs["env"]["PYTHONDONTWRITEBYTECODE"]))
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(pairbench.subprocess, "run", run)
    assert pairbench.run_perfbench(tmp_path, "cli-mix", 3, 25) == {"result": line}
    assert calls == [(["perfbench/run.py", "--workload", "cli-mix", "--seed", "3", "--seconds", "25"], tmp_path, "1")]


@pytest.mark.parametrize("argv", [["a", "b", "--json", "out.json"], ["a", "b", "--seed", "5"],
                                  ["a", "b", "--seed", "5", "--json", "out.json", "--exponent", "2"]])
def test_the_command_takes_exactly_two_commits_a_seed_and_a_file(argv):
    with pytest.raises(SystemExit) as exit_info:
        pairbench.main(argv)
    assert exit_info.value.code == 2


def test_export_writes_the_committed_tree_only(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "out"
    repo.mkdir()
    dest.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "kept.txt").write_text("committed\n")
    subprocess.run(git + ["add", "kept.txt"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one file"], check=True)
    (repo / "kept.txt").write_text("edited after the commit\n")
    (repo / "stray.txt").write_text("never committed\n")
    commit = pairbench.resolve(repo, "HEAD")
    assert len(commit) == 40
    pairbench.export(repo, commit, dest)
    assert sorted(path.name for path in dest.iterdir()) == ["kept.txt"]
    assert (dest / "kept.txt").read_text() == "committed\n"
