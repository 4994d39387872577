"""Concrete reals as Cauchy sequences of rationals with explicit moduli.

A real is an immutable named pair ``CReal(approx, modulus)`` of pure
functions: ``approx(n)`` giving the n-th rational approximant and
``modulus(p)`` giving an index M(p) with ``|a_n - a_m| <= 2**-p`` for all
``n, m >= M(p)``.  This layer is the ground-truth oracle for the stream
codings; the inverse is deliberately absent (it would need a positivity
witness, and exact rational division covers every oracle use).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import sd_ops
from .kernel import SdStream


class CReal(NamedTuple):
    approx: Callable[[int], Fraction]
    modulus: Callable[[int], int]


def from_rational(a: Fraction) -> CReal:
    """Constant Cauchy sequence with the constant modulus 0."""
    return CReal(approx=lambda n: a, modulus=lambda p: 0)


def from_stream(u: SdStream) -> CReal:
    """Stream-backed real: ``a_n = decode(u, n)``, ``M(p) = p``.

    The Cauchy invariant follows from the 2**-n decode bound.  The real
    keeps ``u`` alive on purpose: every approximation re-reads it from the
    first digit, which the memoized cells make cheap.
    """
    return CReal(approx=lambda n: sd_ops.decode(u, n), modulus=lambda p: p)


def add(x: CReal, y: CReal) -> CReal:
    return CReal(
        approx=lambda n: x.approx(n) + y.approx(n),
        modulus=lambda p: max(x.modulus(p + 1), y.modulus(p + 1)),
    )


def neg(x: CReal) -> CReal:
    return CReal(approx=lambda n: -x.approx(n), modulus=x.modulus)


def _bound_exponent(x: CReal) -> int:
    # Smallest B >= 0 with |x_n| <= 2**B for all n >= M(0); the sequence is
    # within 1 of a_{M(0)} from that index on.
    bound = abs(x.approx(x.modulus(0))) + 1
    return max(0, (math.ceil(bound) - 1).bit_length())


def mul(x: CReal, y: CReal) -> CReal:
    bx = _bound_exponent(x)
    by = _bound_exponent(y)
    return CReal(
        approx=lambda n: x.approx(n) * y.approx(n),
        modulus=lambda p: max(x.modulus(p + 1 + by), y.modulus(p + 1 + bx)),
    )


def leq_up_to(x: CReal, y: CReal, p: int) -> bool:
    """One-precision check of ``x <= y``: ``a_{M(p+1)} <= b_{N(p+1)} + 2**-p``.

    ``x <= y`` holds iff this passes for every positive p; a single call is
    the finitely testable approximation.
    """
    if p < 1:
        raise ValueError("precision must be >= 1")
    return x.approx(x.modulus(p + 1)) <= y.approx(y.modulus(p + 1)) + Fraction(1, 1 << p)
