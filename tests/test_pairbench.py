"""``tools/pairbench.py`` with stub runners: run order, the JSON layout of
the ``BENCH_*.json`` files and the report's verdicts, without spawning a
benchmark."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairbench", ROOT / "tools" / "pairbench.py")
pairbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairbench)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = BENCHMARK["end_to_end"]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def result(p50: float, failed: int = 0, correct: bool = True) -> dict:
    """A perfbench result line whose job_p50_s is ``p50`` and whose other
    metrics read the same on every run."""
    values = {"setup_s": 0.02, "job_p50_s": p50, "job_p90_s": 0.004, "digits_per_s": 1e5, "peak_rss_mb": 24.0}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def test_pairs_alternate_which_side_runs_first_on_consecutive_seeds():
    calls, logged = [], []

    def runner(side, workload, seed, seconds):
        calls.append((side, workload, seed, seconds))
        return result(0.002)

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


def test_verdicts_against_the_bound():
    # worse past the bound; unresolved where the parent's quartiles lie
    # further apart than the bound, unless every change run reads better
    # than every parent run; ties win for neither side
    assert pairbench.compare([1.0] * 4, [1.3] * 4, "lower", 0.25)["verdict"] == "worse"
    assert pairbench.compare([1.0] * 4, [0.7] * 4, "higher", 0.25)["verdict"] == "worse"
    assert pairbench.compare([1.0, 1.0, 2.0, 2.0], [1.2] * 4, "lower", 0.25)["verdict"] == "unresolved"
    assert pairbench.compare([1.0, 1.0, 2.0, 2.0], [0.9] * 4, "lower", 0.25)["verdict"] == "within"
    assert pairbench.compare([1.0, 1.0, 2.0, 2.0], [2.1] * 4, "higher", 0.25)["verdict"] == "within"
    assert pairbench.compare([1.0, 1.0, 2.0, 2.0], [0.9, 0.9, 0.9, 1.0], "lower", 0.25)["verdict"] == "unresolved"
    row = pairbench.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0], "lower", 1.0)
    assert row == {"median": 3.0, "q1": 2.0, "q3": 4.0, "change": 3.0, "delta": 0.0, "won": 3,
                   "verdict": "within"}


def test_main_writes_the_bench_file_layout_and_reports_each_metric(tmp_path, monkeypatch, capsys):
    runs = []

    def run_perfbench(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed, seconds))
        return result(0.003 if checkout.name == "parent" else 0.002, failed=int(workload == "div-sd"))

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
    rows = {tuple(line.split()[:2]): line for line in lines[1:]}
    assert len(lines) == 1 + 4 * len(METRICS) + 4 * 2 + 2
    assert rows["expr-dag", "job_p50_s"].split()[-4:] == ["0.002", "-33.3%", "10/10", "within"]
    assert rows["div-sd", "setup_s"].split()[-2:] == ["0/10", "within"]
    assert rows["div-sd", "change"].endswith("failed 10 of 1000 jobs, 0 of 10 runs not correct")
    assert lines[-2:] == ["growth exponent parent: median 1.700, min 1.700, max 1.700 over 20 processes",
                          "growth exponent change: median 1.900, min 1.900, max 1.900 over 20 processes"]


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
