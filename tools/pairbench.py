#!/usr/bin/env python3
"""Paired perfbench runs of two commits, with medians, pairs won and verdicts.

    python3 tools/pairbench.py PARENT CHANGE --seed 2801 --json BENCH_28.json

Each commit is exported with ``git archive`` into a fresh directory, so no
``__pycache__`` or stray file of the working tree reaches a run.  Every
workload of the change's ``BENCHMARK.json`` runs 10 pairs, workload i on
seeds ``S + 10i`` to ``S + 10i + 9`` in the file's order: each pair runs
``perfbench/run.py`` once per side on one seed, for the file's
``run_seconds``, under ``PYTHONDONTWRITEBYTECODE=1``, the parent first in
even pairs and the change first in odd ones.  Then 20 fresh
``python3 -m streamreal bench --digits 100,500,2000`` processes per side,
alternating, give the division's growth exponent.

The JSON file has the key layout of the earlier ``BENCH_*.json`` files:
``python``, ``host``, ``command``, ``parent``, ``change``, ``runs``,
``exponent_command``, ``exponent_runs``; each run record also keeps, as
``setup_wall_s``, the wall setup median that perfbench prints in its
``wall (uncalibrated): setup X s`` line.  The report prints, per workload
and end-to-end metric of the change's ``BENCHMARK.json``, the parent median
and quartiles, the change median and its relative delta, the pairs the
change won (ties count for neither side) and a verdict against the metric's
bound: ``worse`` when the change's median is worse than the parent's by
more than the bound, ``unresolved`` when the parent's own spread (the
distance between its quartiles, relative to its median) is wider than the
bound and some change run reads no better than some parent run, and
``within`` otherwise.  Beside ``setup_s`` it prints the same row for
``setup_wall_s``, judged against ``setup_s``'s bound: the calibration scales
the child's import by the parent process's reference loop, which can turn a
faster wall import into a slower calibrated one.  It adds no dependency: it
runs on the standard library and ``git``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

EXPONENT_DIGITS = "100,500,2000"
PAIRS = 10  # pairs per workload, on consecutive seeds
EXPONENT_PROCESSES = 20  # growth-exponent processes per side
WALL_SETUP = "setup_wall_s"  # reported beside the calibrated setup_s


def resolve(repo: Path, commit: str) -> str:
    """The full hash of ``commit`` in ``repo``."""
    return subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", commit + "^{commit}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def export(repo: Path, commit: str, dest: Path) -> None:
    """The tree of ``commit`` written into the empty directory ``dest``."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its wall setup median as
    ``setup_wall_s`` and, as ``result``, the JSON object that
    ``perfbench/run.py`` prints last."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # perfbench imports the checkout's own src
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    wall = next(line for line in lines if line.startswith("wall (uncalibrated): setup "))
    return {WALL_SETUP: float(wall.split()[3]), "result": json.loads(lines[-1])}


def run_exponent(checkout: Path) -> dict:
    """``elapsed_s`` per digit count and ``growth_exponent`` of one fresh
    ``streamreal bench`` process in ``checkout``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, "-m", "streamreal", "bench", "--digits", EXPONENT_DIGITS],
                          cwd=checkout, env=env, capture_output=True, text=True, check=True)
    lines = [dict(part.split("=", 1) for part in line.split()) for line in done.stdout.splitlines()]
    return {"elapsed_s": {line["digits"]: float(line["elapsed"]) for line in lines if "digits" in line},
            "growth_exponent": float(lines[-1]["growth-exponent"])}


def paired_runs(workloads: list[str], first_seed: int, seconds: float, runner, log) -> list[dict]:
    """One record per run, in run order: ``workload``, ``seed``, ``pair``,
    ``side`` and the keys of the runner's record (``setup_wall_s`` and
    ``result``); workload i runs ``PAIRS`` pairs from seed
    ``first_seed + PAIRS * i`` on, the parent first in even pairs.
    ``runner(side, workload, seed, seconds)`` does one run, and ``log`` gets
    one line per run."""
    runs = []
    for i, workload in enumerate(workloads):
        for pair in range(PAIRS):
            seed = first_seed + PAIRS * i + pair
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                record = runner(side, workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, **record})
                log(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{name}={metric['value']:.6g}" for name, metric in record["result"]["metrics"].items()))
    return runs


def exponent_runs(runner) -> list[dict]:
    """``EXPONENT_PROCESSES`` processes per side, the parent first in even
    processes; ``runner(side)`` does one."""
    runs = []
    for process in range(EXPONENT_PROCESSES):
        for side in ("parent", "change") if process % 2 == 0 else ("change", "parent"):
            runs.append({"side": side, "process": process, **runner(side)})
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over complete pairs, ``parent[i]`` and ``change[i]`` run on
    one seed: the parent median and quartiles, the change median, its
    relative delta, the pairs the change won and the verdict, ``worse``,
    ``unresolved`` or ``within`` as the module docstring defines them."""
    base = statistics.median(parent)
    q1, q3 = quartiles(parent)
    delta = (statistics.median(change) - base) / base
    all_better = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if (delta if better == "lower" else -delta) > bound:
        verdict = "worse"
    elif (q3 - q1) / base > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"median": base, "q1": q1, "q3": q3, "change": statistics.median(change), "delta": delta,
            "won": sum(c < p if better == "lower" else c > p for p, c in zip(parent, change)),
            "verdict": verdict}


def value(record: dict, name: str) -> float:
    """The reading of metric ``name`` in a run record."""
    return record[name] if name == WALL_SETUP else record["result"]["metrics"][name]["value"]


def report(runs: list[dict], metrics: list[dict], exponents: list[dict]) -> list[str]:
    """The report lines: one per workload and metric, with ``setup_wall_s``
    after ``setup_s``, then one per workload and side with its failed and
    attempted jobs, then the exponent per side."""
    lines = [f"{'workload':<10} {'metric':<14} {'parent median [q1, q3]':<36} {'change':>12} "
             f"{'delta':>8} {'won':>6}  verdict"]
    shown = []
    for metric in metrics:
        shown.append(metric)
        if metric["name"] == "setup_s":
            shown.append({**metric, "name": WALL_SETUP})
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    for workload in workloads:
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        complete = [pair for pair in pairs.values() if len(pair) == 2]
        for metric in shown:
            name = metric["name"]
            row = compare([value(pair["parent"], name) for pair in complete],
                          [value(pair["change"], name) for pair in complete],
                          metric["better"], metric["bound"])
            spread = f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}]"
            lines.append(f"{workload:<10} {name:<14} {spread:<36} {row['change']:>12.6g} {row['delta']:>+8.1%} "
                         f"{row['won']:>3}/{len(complete):<2}  {row['verdict']}")
    for workload in workloads:
        for side in ("parent", "change"):
            results = [run["result"] for run in runs if run["workload"] == workload and run["side"] == side]
            failed = sum(result["failed"] for result in results)
            attempted = sum(result["attempted"] for result in results)
            wrong = sum(not result["correct"] for result in results)
            lines.append(f"{workload:<10} {side:<6} failed {failed} of {attempted} jobs, "
                         f"{wrong} of {len(results)} runs not correct")
    for side in ("parent", "change"):
        values = [run["growth_exponent"] for run in exponents if run["side"] == side]
        if values:
            lines.append(f"growth exponent {side}: median {statistics.median(values):.3f}, "
                         f"min {min(values):.3f}, max {max(values):.3f} over {len(values)} processes")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit measured as the baseline")
    parser.add_argument("change", help="the commit measured against it")
    parser.add_argument("--seed", type=int, required=True, metavar="S",
                        help="the first seed; workload i runs on seeds S+10i to S+10i+9")
    parser.add_argument("--json", type=Path, required=True, help="write the runs to this file")
    args = parser.parse_args(argv)

    repo = Path(__file__).resolve().parent.parent
    commits = {"parent": resolve(repo, args.parent), "change": resolve(repo, args.change)}
    with tempfile.TemporaryDirectory(prefix="pairbench-") as tmp:
        checkouts = {side: Path(tmp, side) for side in commits}
        for side, checkout in checkouts.items():
            checkout.mkdir()
            export(repo, commits[side], checkout)
        benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = benchmark["run_seconds"]
        runs = paired_runs([workload["name"] for workload in benchmark["workloads"]], args.seed, seconds,
                           lambda side, *run: run_perfbench(checkouts[side], *run),
                           log=lambda line: print(line, file=sys.stderr, flush=True))
        exponents = exponent_runs(lambda side: run_exponent(checkouts[side]))
    args.json.write_text(json.dumps({
        "python": platform.python_version(),
        "host": f"{len(os.sched_getaffinity(0))} vCPUs, {platform.system()}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}, in fresh "
                   "git archive checkouts of each commit under PYTHONDONTWRITEBYTECODE=1, sides "
                   "alternating within each pair",
        "parent": commits["parent"],
        "change": commits["change"],
        "runs": runs,
        "exponent_command": f"python3 -m streamreal bench --digits {EXPONENT_DIGITS}, one fresh process "
                            "each, alternating sides",
        "exponent_runs": exponents,
    }, indent=1) + "\n")
    print("\n".join(report(runs, benchmark["end_to_end"], exponents)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
