#!/usr/bin/env python3
"""The bench trajectory, read from committed ``BENCH_*.json`` files.

    python3 tools/benchtrend.py BENCH_*.json

For each workload and end-to-end metric, one line per file, in the order
the files are given: the median of the parent's runs, the median of the
change's runs and the change's relative delta.  The metrics are those the
files' run records carry, ``setup_wall_s`` included where
``tools/pairbench.py`` kept it.  Then one line per file with exponent runs:
the median and the minimum of the growth exponent on each side.  It runs
nothing and reads only the files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")


def readings(run: dict) -> dict[str, float]:
    """Every end-to-end reading of one run record, by metric name."""
    values = {name: metric["value"] for name, metric in run["result"]["metrics"].items()}
    if "setup_wall_s" in run:
        values["setup_wall_s"] = run["setup_wall_s"]
    return values


def medians(bench: dict) -> dict[tuple[str, str], dict[str, float]]:
    """The median of each side's runs, by workload and metric."""
    found: dict[tuple[str, str], dict[str, list[float]]] = {}
    for run in bench["runs"]:
        for name, value in readings(run).items():
            found.setdefault((run["workload"], name), {}).setdefault(run["side"], []).append(value)
    return {key: {side: statistics.median(values) for side, values in by_side.items()}
            for key, by_side in found.items()}


def trend(files: list[Path]) -> list[str]:
    """The report lines for ``files``, read in the order given."""
    benches = {path.name: json.loads(path.read_text()) for path in files}
    table = {name: medians(bench) for name, bench in benches.items()}
    keys = list(dict.fromkeys(key for rows in table.values() for key in rows))
    workloads = list(dict.fromkeys(workload for workload, _ in keys))
    lines = [f"{'workload':<10} {'metric':<14} {'file':<16} {'parent':>12} {'change':>12} {'delta':>8}"]
    for workload, metric in sorted(keys, key=lambda key: workloads.index(key[0])):
        for name, rows in table.items():
            row = rows.get((workload, metric), {})
            if all(side in row for side in SIDES):
                delta = (row["change"] - row["parent"]) / row["parent"]
                lines.append(f"{workload:<10} {metric:<14} {name:<16} {row['parent']:>12.6g} "
                             f"{row['change']:>12.6g} {delta:>+8.1%}")
    for name, bench in benches.items():
        parts = []
        for side in SIDES:
            values = [run["growth_exponent"] for run in bench.get("exponent_runs", []) if run["side"] == side]
            if values:
                parts.append(f"{side} median {statistics.median(values):.3f} min {min(values):.3f}")
        if parts:
            lines.append(f"growth exponent {name:<16} " + ", ".join(parts))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="BENCH_*.json files, in the order to print")
    args = parser.parse_args(argv)
    print("\n".join(trend(args.files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
