"""Layer micro-benchmarks on already-forced inputs.

Each timing builds a fresh operation over inputs whose cells were forced
beforehand, so it measures only the layer named in the metric (plus the
kernel cells that layer creates).  Every figure is the median of
``REPEATS`` timings, each in calibrated seconds (see :mod:`speed`).
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

from streamreal import cauchy, cli, gray_ops, sd_ops
from streamreal.digits import parse_rational
from streamreal.kernel import SdStream, take_gray_prefix, take_prefix, unfold_sd

DIGITS = 2000
REPEATS = 5
A = Fraction(123456789, 987654321)
B = Fraction(-271828, 314159)


def _median_seconds(clock, fn) -> float:
    times = []
    for _ in range(REPEATS):
        clock.tick(force=True)
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * clock.scale(start))
    return statistics.median(times)


def _forced_sd(a: Fraction, n: int = DIGITS + 2) -> SdStream:
    u = sd_ops.encode(a)
    take_prefix(u, n)
    return u


def _zero_step(state):
    return 0, state


def growth_exponent(ns: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


SWEEP = (48, 96, 192)


def divide_sweep(code: str, clock) -> float:
    """Growth exponent of one division (the README pair) over ``SWEEP``."""
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    x, y = Fraction(1001, 3001), Fraction(10001, 20001)
    times = [_median_seconds(clock, lambda: take(ops.divide(ops.encode(x), ops.encode(y)), n))
             for n in SWEEP]
    return growth_exponent(list(SWEEP), times)


def measure(clock) -> dict[str, tuple[float, str]]:
    n = DIGITS

    def ns_per(fn, units: int = n) -> float:
        return _median_seconds(clock, fn) / units * 1e9

    u, v = _forced_sd(A), _forced_sd(B)
    zeros = SdStream.constant(0)
    g = gray_ops.from_sd(u)
    take_gray_prefix(g, n + 2)
    g_half = gray_ops.from_sd(_forced_sd(A / 2))
    take_gray_prefix(g_half, n + 2)
    reals = [cauchy.from_stream(_forced_sd(a, 200)) for a in (A, B, A / 3)]

    def approx():
        for _ in range(100):
            real = cauchy.mul(cauchy.add(reals[0], reals[1]), reals[2])
            real.approx(real.modulus(64))

    def parse():
        for _ in range(1000):
            parse_rational("-12345/67891")

    def build():
        for _ in range(20):
            cli.build_parser()

    return {
        "kernel.force_ns_per_cell": (ns_per(lambda: take_prefix(unfold_sd(0, _zero_step), n)), "ns"),
        "kernel.reread_ns_per_cell": (ns_per(lambda: take_prefix(u, n)), "ns"),
        "sd_ops.average_ns_per_digit": (ns_per(lambda: take_prefix(sd_ops.average(u, v), n)), "ns"),
        "sd_ops.add_one_ns_per_digit": (ns_per(lambda: take_prefix(sd_ops.add_one(zeros), n)), "ns"),
        "sd_ops.encode_ns_per_digit": (ns_per(lambda: take_prefix(sd_ops.encode(A), n)), "ns"),
        "sd_ops.decode_ns_per_digit": (ns_per(lambda: sd_ops.decode(u, n)), "ns"),
        "gray_ops.from_sd_ns_per_digit": (ns_per(lambda: take_gray_prefix(gray_ops.from_sd(u), n)), "ns"),
        "gray_ops.to_sd_ns_per_digit": (ns_per(lambda: take_prefix(gray_ops.to_sd(g), n)), "ns"),
        "gray_ops.double_ns_per_digit": (ns_per(lambda: take_gray_prefix(gray_ops.double(g_half), n)), "ns"),
        "cauchy.approx_us": (_median_seconds(clock, approx) / 100 * 1e6, "us"),
        "digits.parse_ns": (ns_per(parse, 1000), "ns"),
        "cli.build_parser_us": (_median_seconds(clock, build) / 20 * 1e6, "us"),
    }
