"""Memory of a division grows linearly in the number of digits produced.

Producing n digits reads 3(n - j) digits of numerator layer j, quadratic
work in all.  The signed-digit division keeps each layer as a few small
ints and the divisor's digits; the Gray division runs the same tower
between the two conversions, which hold one small state each.  Had a
division kept every digit it computed, the peak would grow about four-fold
when n doubles instead of two-fold.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from streamreal import gray_ops, sd_ops
from streamreal.kernel import take_gray_prefix, take_prefix

X, Y = Fraction(1001, 3001), Fraction(10001, 20001)


def _peak_bytes(code: str, n: int) -> int:
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    tracemalloc.start()
    try:
        take(ops.divide(ops.encode(X), ops.encode(Y)), n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("code, n", [("sd", 100), ("gray", 100)])
def test_division_peak_memory_is_linear(code, n):
    # the cyclic collector is off for the whole suite (conftest.py).  The
    # signed-digit division's tables are shared by every division in the
    # process and fill on first use; a run to n symbols first takes the
    # fill up to n out of both peaks, and any growth of the tables between
    # n and 2n still counts against the 2n peak.
    _peak_bytes(code, n)
    ratio = _peak_bytes(code, 2 * n) / _peak_bytes(code, n)
    assert ratio <= 2.5, f"peak grew {ratio:.2f}x from {n} to {2 * n} symbols"
