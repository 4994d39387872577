#!/usr/bin/env python3
"""The verdicts of committed ``BENCH_*.json`` files, read without running anything.

    python3 tools/benchtrend.py BENCH_*.json

For each workload and end-to-end metric of the repo's ``BENCHMARK.json``,
in that file's order, one row per given file with complete pairs (a pair is
complete when both sides ran on its seed): the parent median and quartiles,
the change median and its relative delta, the pairs the change won (ties
count for neither side) and a verdict against the metric's bound:
``worse`` when the change's median is worse than the parent's by more than
the bound, ``unresolved`` when the parent's own spread (the distance between
its quartiles, relative to its median) is wider than the bound and some
change run reads no better than some parent run, and ``within`` otherwise.
Then, per file and side, the failed and attempted jobs, the runs not
correct and, where the file has exponent runs, the median, minimum and
maximum growth exponent.  ``tools/pairbench.py`` prints this report of the
file it writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")


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


def complete_pairs(bench: dict, workload: str) -> list[dict[str, dict]]:
    """The run records of ``workload`` by pair, each pair as ``{side: record}``,
    leaving out the pairs that lack a side."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in bench["runs"]:
        if run["workload"] == workload:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
    return [pair for pair in pairs.values() if len(pair) == 2]


def report(benches: dict[str, dict], benchmark: dict) -> list[str]:
    """The report lines for ``benches``, bench files by name in the order to
    print, judged by the workloads and end-to-end metrics of ``benchmark``."""
    lines = [f"{'workload':<10} {'metric':<12} {'file':<14} {'parent median [q1, q3]':<36} {'change':>12} "
             f"{'delta':>8} {'won':>6}  verdict"]
    for workload in (workload["name"] for workload in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            for name, bench in benches.items():
                pairs = complete_pairs(bench, workload)
                if not pairs:
                    continue
                values = {side: [pair[side]["result"]["metrics"][metric["name"]]["value"] for pair in pairs]
                          for side in SIDES}
                row = compare(values["parent"], values["change"], metric["better"], metric["bound"])
                spread = f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}]"
                lines.append(f"{workload:<10} {metric['name']:<12} {name:<14} {spread:<36} {row['change']:>12.6g} "
                             f"{row['delta']:>+8.1%} {row['won']:>3}/{len(pairs):<2}  {row['verdict']}")
    for name, bench in benches.items():
        for side in SIDES:
            results = [run["result"] for run in bench["runs"] if run["side"] == side]
            line = (f"{name:<14} {side:<6} failed {sum(result['failed'] for result in results)} of "
                    f"{sum(result['attempted'] for result in results)} jobs, "
                    f"{sum(not result['correct'] for result in results)} of {len(results)} runs not correct")
            exponents = [run["growth_exponent"] for run in bench.get("exponent_runs", []) if run["side"] == side]
            if exponents:
                line += (f"; growth exponent median {statistics.median(exponents):.3f}, min {min(exponents):.3f}, "
                         f"max {max(exponents):.3f} over {len(exponents)} processes")
            lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="BENCH_*.json files, in the order to print")
    args = parser.parse_args(argv)
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    print("\n".join(report({path.name: json.loads(path.read_text()) for path in args.files}, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
