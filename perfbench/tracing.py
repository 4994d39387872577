"""The traced run: time, counts and memory split by package module.

It runs a fixed job set, the first ``TRACE_PASSES`` passes of the workload,
three times in one process:

1. reference -- untraced, with ``gc.callbacks`` timing every collection;
2. profiled -- ``cProfile`` enabled around each job, with a span for the
   job and for each call into a public entry point.  Nearly all lazy work
   runs inside the forcing span, in thunks and generators, so self time and
   call counts are split by the file of each code object;
3. census -- ``tracemalloc`` on, one snapshot grouped by file at the end of
   each job's forcing.  It is its own pass so it does not distort the
   profiler's time shares.

Then the layer micro-benchmarks of :mod:`micro` run.  The spans are kept in
memory and written to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import micro
import streamreal
from gen import DivJob, passes
from jobs import NoTracer
from speed import SpeedClock

LAYERS = ("digits", "kernel", "sd_ops", "gray_ops", "cauchy", "cli")
TRACE_PASSES = {"div-sd": 1, "div-gray": 1, "expr-dag": 5, "cli-mix": 10}
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = str(Path(streamreal.__file__).resolve().parent)


def module_of(filename: str) -> str:
    if os.path.dirname(filename) == PACKAGE:
        stem = os.path.splitext(os.path.basename(filename))[0]
        if stem in LAYERS:
            return stem
    return "other"


class SpanTracer:
    """Records ``(job, name, start, end)`` spans in memory."""

    def __init__(self):
        self.job = 0
        self.spans: list[tuple[int, str, float, float]] = []

    def span(self, name: str):
        return _Span(self, name)

    def forced(self) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: SpanTracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        self.tracer.spans.append((self.tracer.job, self.name, self.start, time.perf_counter()))
        return False


class CensusTracer(NoTracer):
    """Keeps, per module, the largest live size seen at the end of forcing."""

    def __init__(self):
        self.live_kib = dict.fromkeys(("kernel", "sd_ops", "gray_ops"), 0.0)

    def forced(self) -> None:
        sizes: dict[str, int] = defaultdict(int)
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            sizes[module_of(stat.traceback[0].filename)] += stat.size
        for module in self.live_kib:
            self.live_kib[module] = max(self.live_kib[module], sizes[module] / 1024)


class GcClock:
    """``gc.callbacks`` hook summing the time of collections inside jobs."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self.in_job = False
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.in_job:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def wrap(self, runner):
        def run(job, tracer):
            self.in_job = True
            try:
                return runner(job, tracer)
            finally:
                self.in_job = False
        return run


def _run(tally, jobs, tracer, wrap=None) -> None:
    runner = tally.runner
    if wrap is not None:
        tally.runner = wrap(runner)
    try:
        for job in jobs:
            tally.run(job, tracer)
    finally:
        tally.runner = runner


def _profiled(profiler: cProfile.Profile, tracer: SpanTracer):
    def wrap(runner):
        def run(job, _tracer):
            tracer.job += 1
            start = time.perf_counter()
            profiler.enable()
            try:
                return runner(job, tracer)
            finally:
                profiler.disable()
                tracer.spans.append((tracer.job, "job", start, time.perf_counter()))
        return run
    return wrap


def _censused(runner):
    def run(job, tracer):
        tracemalloc.clear_traces()
        return runner(job, tracer)
    return run


def _split_profile(profiler: cProfile.Profile) -> tuple[dict[str, float], int, int]:
    """Self seconds per module, thunk calls (cells forced), force() calls."""
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    thunks = forces = 0
    for (filename, _, name), (_, calls, tottime, _, _) in pstats.Stats(profiler).stats.items():
        module = module_of(filename)
        self_s[module] += tottime
        if module != "other" and name == "thunk":
            thunks += calls
        if module == "kernel" and name == "force":
            forces += calls
    return self_s, thunks, forces


def _span_summary(spans, workload: str, seed: int) -> float:
    """Prints time per span name, writes the spans, returns traced wall."""
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for _, name, start, end in spans:
        totals[name] += end - start
        counts[name] += 1
    wall = totals.pop("job")
    print(f"traced wall {wall:.4f} s over {counts['job']} jobs; time inside entry-point spans:")
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<14} {counts[name]:>6} calls {total:>10.4f} s {100 * total / wall:6.1f}%")
    print(f"  {'(between)':<14} {'':>12} {wall - sum(totals.values()):>10.4f} s")
    OUT.mkdir(exist_ok=True)
    origin = spans[0][2] if spans else 0.0
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps([
        {"job": job, "name": name, "parent": None if name == "job" else "job",
         "start_s": start - origin, "end_s": end - origin}
        for job, name, start, end in spans]))
    print(f"spans written to {path}")
    return wall


def per_layer(workload: str, seed: int, tally) -> dict[str, tuple[float, str]]:
    job_sets = passes(workload, seed)
    first = next(job_sets)
    jobs = first + [job for _ in range(TRACE_PASSES[workload] - 1) for job in next(job_sets)]

    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    try:
        _run(tally, jobs, NoTracer(), gc_clock.wrap)
    finally:
        gc.callbacks.remove(gc_clock)
    reference = list(zip(jobs, tally.calibrated(), tally.passed))
    reference_calibrated = sum(t for _, t, _ in reference)

    profiler, spans = cProfile.Profile(), SpanTracer()
    _run(tally, jobs, spans, _profiled(profiler, spans))
    traced_wall = _span_summary(spans.spans, workload, seed)
    traced_calibrated = sum(tally.calibrated(len(jobs), 2 * len(jobs)))
    self_s, thunks, forces = _split_profile(profiler)
    coverage = sum(self_s.values()) / traced_wall
    print(f"module self times sum to {sum(self_s.values()):.4f} s, "
          f"{100 * coverage:.1f}% of the traced wall")

    # tracemalloc slows the speed reference too, so the census samples it
    # into a clock of its own.
    census, speed_clock = CensusTracer(), tally.clock
    tally.clock = SpeedClock()
    tracemalloc.start()
    try:
        _run(tally, first, census, _censused)
    finally:
        tracemalloc.stop()
        tally.clock = speed_clock

    growth = {}
    for code in ("sd", "gray"):
        fit = [(job.n, t) for job, t, ok in reference
               if ok and isinstance(job, DivJob) and job.code == code]
        growth[code] = (micro.growth_exponent(*zip(*fit)) if len(fit) >= 3
                        else micro.divide_sweep(code, tally.clock))

    metrics = {f"{m}.self_s": (self_s[m], "s") for m in LAYERS + ("other",)}
    metrics.update({
        "kernel.cells_forced": (thunks, "count"),
        "kernel.memo_hit_ratio": ((forces - thunks) / forces if forces else 0.0, "frac"),
        "kernel.gc_pause_s": (gc_clock.pause_s, "s"),
        "kernel.gc_collections": (gc_clock.collections, "count"),
        "kernel.live_kib": (census.live_kib["kernel"], "KiB"),
        "sd_ops.live_kib": (census.live_kib["sd_ops"], "KiB"),
        "gray_ops.live_kib": (census.live_kib["gray_ops"], "KiB"),
        "sd_ops.divide_growth_exp": (growth["sd"], "ratio"),
        "gray_ops.divide_growth_exp": (growth["gray"], "ratio"),
        "trace.overhead_frac": (traced_calibrated / reference_calibrated - 1, "frac"),
        "trace.self_coverage": (coverage, "frac"),
    })
    metrics.update(micro.measure(tally.clock))
    return metrics
