"""Memory grows with what a reader keeps, not with how far it has read.

A division's memory grows linearly in the number of digits produced.
Producing n digits reads 3(n - j) digits of numerator layer j, quadratic
work in all.  The signed-digit division keeps each layer as a few small
ints and the divisor's chunks; the Gray division runs the same tower
between the two conversions, which hold one small state each.  Had a
division kept every digit it computed, the peak would grow about four-fold
when n doubles instead of two-fold.

Every generator drops each input cell once it has moved past it, so a
stream walked with no head held keeps only its read frontier: the peak of
a stream op stays flat however far it is read, and a division's stays
within a few words per digit.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from streamreal import gray_ops, sd_ops
from tests.support import tail_at

X, Y = Fraction(1001, 3001), Fraction(10001, 20001)
A = Fraction(1, 3)
OPS = {"sd": sd_ops, "gray": gray_ops}


def _walk_peak(build, n: int) -> int:
    """Peak traced bytes of reading ``build()`` to ``n`` symbols, the result
    handed straight to a walk that moves its own parameter, so nothing
    holds the head.  The walk keeps no list of the symbols: a Gray prefix
    list's pairs come from the interpreter's tuple free list as far as
    earlier walks filled it, which tracemalloc does not see, so its size
    would depend on the order of the runs."""
    tracemalloc.start()
    try:
        tail_at(build(), n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _division(code: str):
    ops = OPS[code]
    return lambda: ops.divide(ops.encode(X), ops.encode(Y))


@pytest.mark.parametrize("code, n", [("sd", 100), ("gray", 100)])
def test_division_peak_memory_is_linear(code, n):
    # the cyclic collector is off for the whole suite (conftest.py).  The
    # signed-digit division's tables are shared by every division in the
    # process and fill on first use; a run to n symbols first takes the
    # fill up to n out of both peaks, and any growth of the tables between
    # n and 2n still counts against the 2n peak.
    build = _division(code)
    _walk_peak(build, n)
    ratio = _walk_peak(build, 2 * n) / _walk_peak(build, n)
    assert ratio <= 2.5, f"peak grew {ratio:.2f}x from {n} to {2 * n} symbols"


STREAM_OPS = {
    "twice_minus": lambda ops: ops.twice_minus(ops.encode(A), ops.encode(Y)),
    "average": lambda ops: ops.average(ops.encode(A), ops.encode(Fraction(-1, 5))),
    "negate": lambda ops: ops.negate(ops.encode(A)),
    # both conversions; to_sd reads a forced code, so it runs its automaton
    # instead of handing back the view's source
    "convert": lambda ops: (gray_ops.to_sd(gray_ops.from_sd(sd_ops.encode(A)).force()) if ops is sd_ops
                            else gray_ops.from_sd(gray_ops.to_sd(gray_ops.encode(A).force()))),
}


@pytest.mark.parametrize("op", sorted(STREAM_OPS))
@pytest.mark.parametrize("code", sorted(OPS))
def test_stream_op_walked_with_no_head_held_has_a_flat_peak(code, op):
    build = lambda: STREAM_OPS[op](OPS[code])
    _walk_peak(build, 100)  # what a first run allocates once
    short, long = _walk_peak(build, 10_000), _walk_peak(build, 40_000)
    assert long <= 1.25 * short + 4096, f"peak {short} B at 10^4 symbols, {long} B at 4*10^4"


@pytest.mark.parametrize("code", sorted(OPS))
def test_division_walked_with_no_head_held_stays_under_a_per_digit_budget(code):
    # the tower keeps one row reference per layer and one code per chunk of
    # y/2, about 25 bytes a digit; keeping every digit of v it read took eight
    # times that
    build = _division(code)
    n = 1000
    _walk_peak(build, n)  # fills the tower's shared tables up to n
    peak = _walk_peak(build, n)
    assert peak <= 64 * n, f"peak {peak} B at {n} symbols"
