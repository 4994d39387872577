#!/usr/bin/env python3
"""Paired perfbench runs of two commits, written to a ``BENCH_*.json`` file.

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
``exponent_command``, ``exponent_runs``; each run record keeps, as
``result``, the JSON object that perfbench prints last.  After writing it,
pairbench prints ``tools/benchtrend.py``'s report of the file, judged by
the change's ``BENCHMARK.json``.  It adds no dependency: it runs on the
standard library and ``git``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import benchtrend

EXPONENT_DIGITS = "100,500,2000"
PAIRS = 10  # pairs per workload, on consecutive seeds
EXPONENT_PROCESSES = 20  # growth-exponent processes per side


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
    """One perfbench run in ``checkout``: as ``result``, the JSON object that
    ``perfbench/run.py`` prints last."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # perfbench imports the checkout's own src
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return {"result": json.loads(done.stdout.strip().splitlines()[-1])}


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
    ``side`` and the keys of the runner's record, ``result``; workload i
    runs ``PAIRS`` pairs from seed ``first_seed + PAIRS * i`` on, the parent
    first in even pairs.
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
    bench = {
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
    }
    args.json.write_text(json.dumps(bench, indent=1) + "\n")
    print("\n".join(benchtrend.report({args.json.name: bench}, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
