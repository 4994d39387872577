#!/usr/bin/env python3
"""Seeded end-to-end benchmark of streamreal.

    python3 perfbench/run.py --workload div-sd --seed 1 --seconds 25 --trace 0

Workloads: div-sd, div-gray, expr-dag, cli-mix, or ``all`` to run each in a
fresh process in turn.  Each workload is a closed loop: one client, one
thread, the next job starts when the last has been checked.  The garbage
collector stays at the interpreter default, as CLI and library callers get
it; a full collection outside the timed region precedes each division.  Times
are reported in calibrated seconds (see :mod:`speed`).

``--trace 0`` measures for ``--seconds`` (whole passes, at least 100 jobs)
and prints the end-to-end metrics; ``--trace 1`` runs the traced pass of
:mod:`tracing` and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``correct`` is false when any output was wrong; jobs that
raised or exited with an unexpected code count as failed but not as wrong.
After the measurement, every run also runs the workload's probes of the
program's known defects (:func:`gen.defect_probes`) and reports each one's
outcome; the probes are neither timed nor counted in the result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from check import Failed, Wrong, check_cli, check_dag, check_div
from gen import WORKLOADS, CliJob, DivJob, defect_probes, fingerprint, passes
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_JOBS = 100
# (quantile, half-width of the band of ranks averaged around it)
P50 = (0.5, 0.1)
P90 = (0.9, 0.05)
SETUP_SPAWNS = 25
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "__import__(sys.argv[2])\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds(module: str, clock) -> tuple[float, float]:
    """Median time for a fresh interpreter to import ``module``.

    Returns the calibrated and the wall median.
    """
    calibrated, wall = [], []
    for i in range(SETUP_SPAWNS + 1):
        clock.tick(force=True)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), module],
                              capture_output=True, text=True, check=True, timeout=60)
        if i:  # the first spawn may compile the sources
            wall.append(float(done.stdout))
            calibrated.append(wall[-1] * clock.scale(start))
    return statistics.median(calibrated), statistics.median(wall)


def describe(job) -> str:
    if isinstance(job, DivJob):
        return f"{job.code} divide {job.x} / {job.y} to {job.n}"
    if isinstance(job, CliJob):
        return "streamreal " + " ".join(job.argv)
    deepest = max(job.nodes, key=lambda node: node.depth)
    return f"DAG of {len(job.nodes)} nodes, depth {deepest.depth} ({deepest.code}), sinks {job.sinks}"


class Tally:
    """Times, checks and failure records of one sequence of jobs."""

    def __init__(self, runner, checker, clock, collect: bool):
        self.runner = runner
        self.checker = checker
        self.clock = clock
        self.collect = collect
        self.starts: list[float] = []
        self.times: list[float] = []  # wall time of each job
        self.passed: list[bool] = []
        self.digits = 0  # output digits of jobs that passed
        self.failures: list[tuple[str, str, object]] = []  # (kind, reason, job)

    def run(self, job, tracer) -> None:
        if self.collect:
            gc.collect()
        self.clock.tick()
        start = time.perf_counter()
        self.starts.append(start)
        try:
            result = self.runner(job, tracer)
        except Exception as exc:  # any exception is a failed job
            self.times.append(time.perf_counter() - start)
            self.passed.append(False)
            self.failures.append(("error", type(exc).__name__, job))
            return
        self.times.append(time.perf_counter() - start)
        try:
            self.digits += self.checker(job, result)
        except Failed as failed:
            self.passed.append(False)
            kind = "wrong" if isinstance(failed, Wrong) else "error"
            self.failures.append((kind, str(failed), job))
        else:
            self.passed.append(True)

    def calibrated(self, first: int = 0, last: int | None = None) -> list[float]:
        """Job times in calibrated seconds (see :mod:`speed`)."""
        return [t * self.clock.scale(s)
                for t, s in zip(self.times[first:last], self.starts[first:last])]

    @property
    def wrong(self) -> int:
        return sum(kind == "wrong" for kind, _, _ in self.failures)

    def report_failures(self, limit: int = 3) -> None:
        counts = Counter((kind, reason.split(":")[0]) for kind, reason, _ in self.failures)
        for (kind, reason), count in counts.most_common():
            print(f"failed {kind}: {reason} x{count}")
            shown = [j for k, r, j in self.failures if (k, r.split(":")[0]) == (kind, reason)]
            for job in shown[:limit]:
                print(f"    {describe(job)}")


def run_passes(workload: str, seed: int, tally: Tally, tracer, done) -> None:
    for jobs in passes(workload, seed):
        for job in jobs:
            tally.run(job, tracer)
        if done():
            return


def percentile(values: list[float], q: float, band: float) -> float:
    """Mean of the empirical quantile function over ``q - band .. q + band``.

    A single order statistic moves with the one job that happens to hold
    its rank, and job times vary by about 10% between identical runs; the
    mean over the ranks around it is steadier.  Ranks at the ends of the
    band count with the share of it they cover, so a run of four passes and
    one of five weigh the strata around ``q`` alike.  Failed jobs count as
    infinitely slow, so a band that reaches one reads infinite.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo, hi = round(max(q - band, 0) * n, 9), round(min(q + band, 1) * n, 9)
    total = 0.0
    for k in range(math.floor(lo), math.ceil(hi)):  # ordered[k] covers (k/n, (k+1)/n]
        total += (min(hi, k + 1) - max(lo, k)) * ordered[k]
    return total / (hi - lo)


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    from jobs import NoTracer

    setup, setup_wall = setup_seconds("streamreal.cli" if workload == "cli-mix" else "streamreal",
                                      tally.clock)
    start = time.perf_counter()
    run_passes(workload, seed, tally, NoTracer(),
               lambda: len(tally.times) >= MIN_JOBS and time.perf_counter() - start >= seconds)
    calibrated = tally.calibrated()
    latencies = [t if ok else math.inf for t, ok in zip(calibrated, tally.passed)]
    walls = [t if ok else math.inf for t, ok in zip(tally.times, tally.passed)]
    refs = tally.clock.refs
    print(f"wall (uncalibrated): setup {setup_wall:.6f} s, p50 {percentile(walls, *P50):.6f} s, "
          f"p90 {percentile(walls, *P90):.6f} s, {tally.digits / sum(tally.times):.1f} digits/s; "
          f"reference loop median {statistics.median(refs) * 1e3:.3f} ms "
          f"[{min(refs) * 1e3:.3f}, {max(refs) * 1e3:.3f}] over {len(refs)} samples")
    return {
        "setup_s": (setup, "s"),
        "job_p50_s": (percentile(latencies, *P50), "s"),
        "job_p90_s": (percentile(latencies, *P90), "s"),
        "digits_per_s": (tally.digits / sum(calibrated), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def probe_defects(workload: str, seed: int, runner, checker) -> None:
    """Runs the known-defect probes and prints whether each still fails."""
    from jobs import NoTracer

    for job in defect_probes(workload, seed):
        try:
            checker(job, runner(job, NoTracer()))
        except Exception as exc:  # Failed, Wrong or whatever the program raised
            print(f"known defect shows: {type(exc).__name__}: {exc} -- {describe(job)}")
        else:
            print(f"known defect no longer shows -- {describe(job)}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # These import streamreal, which main() has put on the path.
    import streamreal
    from jobs import run_cli, run_dag, run_div

    if Path(streamreal.__file__).resolve().parent != SRC / "streamreal":
        print(f"error: imported streamreal from {streamreal.__file__}", file=sys.stderr)
        return 2
    # One CPU for the jobs, the set-up children and the speed reference, so
    # the reference tracks the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # runner, checker, and whether a full collection precedes each job.  A
    # division builds a heap of tens of MB; the collection resets the
    # collector's bookkeeping, so the collections during a job depend on
    # that job alone (as for a CLI call in a fresh process), not on the size
    # of the job before it.  The other workloads' heaps stay small, and a
    # collection would cost more than their jobs.  The collector keeps its
    # default settings throughout.
    runner, checker, collect = {
        "div-sd": (run_div, check_div, True),
        "div-gray": (run_div, check_div, True),
        "expr-dag": (run_dag, check_dag, False),
        "cli-mix": (run_cli, check_cli, False),
    }[workload]
    print(f"workload {workload} seed {seed} inputs {fingerprint(workload, seed)}")
    tally = Tally(runner, checker, SpeedClock(), collect)
    if trace:
        import tracing

        metrics = tracing.per_layer(workload, seed, tally)
    else:
        metrics = end_to_end(workload, seed, seconds, tally)
    attempted, failed = len(tally.times), len(tally.failures)
    print(f"jobs {attempted}, failed {failed} (fail_frac {failed / attempted:.4f}), wrong {tally.wrong}")
    tally.report_failures()
    probe_defects(workload, seed, runner, checker)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, so its peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "streamreal" / "__init__.py").is_file():
        print(f"error: no streamreal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
