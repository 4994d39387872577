"""Memory of a division grows linearly in the number of digits produced.

Producing n digits reads 3(n - j) digits of numerator layer j, so the forced
cells add up to a quadratic count.  A layer's forced prefix is garbage once
the layer above has read past it; if the layers kept their prefixes alive,
the peak would grow about four-fold when n doubles instead of two-fold.
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


@pytest.mark.parametrize("code, n", [("sd", 100), ("gray", 60)])
def test_division_peak_memory_is_linear(code, n):
    # the cyclic collector is off for the whole suite (conftest.py)
    ratio = _peak_bytes(code, 2 * n) / _peak_bytes(code, n)
    assert ratio <= 2.5, f"peak grew {ratio:.2f}x from {n} to {2 * n} symbols"
