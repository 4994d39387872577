"""Signed-digit stream arithmetic on reals in [-1, 1].

Every operation is a pure, productive stream transformer.  Semantic
preconditions (for example ``x <= 0`` for :func:`add_one`) are not runtime
checked -- they are undecidable on streams -- so the denotational guarantees
hold only when the caller satisfies them; the defining digit equations are
total regardless.  The CLI validates preconditions on exact rationals before
any stream is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .kernel import SdStream, stream_from_digits


def encode(a: Fraction) -> SdStream:
    """Canonical signed-digit stream of a rational ``a`` in [-1, 1].

    Emits +1 when the remainder is >= 1/4, -1 when it is <= -1/4 and the
    delay digit 0 otherwise, then recurses on ``2a - d``; the remainder stays
    in [-1, 1], so ``|decode(encode(a), n) - a| <= 2**-n`` for every n.
    """
    if not -1 <= a <= 1:
        raise ValueError("not-in-unit-interval")
    return stream_from_digits(_encode(a.numerator, a.denominator))


def _encode(num: int, den: int) -> Iterator[int]:
    while True:
        if 4 * num >= den:
            yield 1
            num = 2 * num - den
        elif 4 * num <= -den:
            yield -1
            num = 2 * num + den
        else:
            yield 0
            num = 2 * num


def decode(u: SdStream, n: int) -> Fraction:
    """Partial sum ``sum(d_k * 2**-k, k=1..n)``; within 2**-n of the value."""
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    acc = 0
    cell = u
    for _ in range(n):
        cell = cell.force()
        acc = 2 * acc + cell.head
        cell = cell.tail
    return Fraction(acc, 1 << n)


def one() -> SdStream:
    """The constant stream of +1, denoting 1."""
    return _ONE


def negate(u: SdStream) -> SdStream:
    """Digitwise negation; denotes ``-x``."""
    return stream_from_digits(_negate(u))


def _negate(u: SdStream) -> Iterator[int]:
    while True:
        u = u.force()
        yield -u.head
        u = u.tail


def half(u: SdStream) -> SdStream:
    """Prepend the delay digit; denotes ``x/2``."""
    return SdStream.cons(0, u)


def add_one(u: SdStream) -> SdStream:
    """Denotes ``x + 1`` for ``x <= 0``.

    Digit equations: ``add_one(+1::u) = one()``, ``add_one(0::u) =
    +1::add_one(u)``, ``add_one(-1::u) = +1::u``.  The first and the last
    splice: the result shares the constant stream or ``u``.
    """
    return stream_from_digits(_shift(u, 1))


def sub_one(u: SdStream) -> SdStream:
    """Denotes ``x - 1`` for ``x >= 0`` (mirror equations of add_one)."""
    return stream_from_digits(_shift(u, -1))


def _shift(u: SdStream, e: int) -> Iterator[int]:
    """Digits of ``x + e``; ``e = +1`` needs ``x <= 0``, ``e = -1`` needs ``x >= 0``."""
    while True:
        u = u.force()
        d = u.head
        if d == -e:
            return e, u.tail
        if d == e:
            return e, SdStream.constant(e)
        yield e
        u = u.tail


def double(u: SdStream) -> SdStream:
    """Denotes ``2x`` for ``|x| <= 1/2``.

    Dispatches on the first digit: ``double(+1::u) = add_one(u)``,
    ``double(0::u) = u``, ``double(-1::u) = sub_one(u)``.
    """

    def select() -> SdStream:
        c = u.force()
        d = c.head
        if d == 0:
            return c.tail
        if d == 1:
            return add_one(c.tail)
        return sub_one(c.tail)

    return SdStream.defer(select)


def average(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``(x + y)/2``; needs n+1 digits of each input for n digits.

    Carry automaton: after reading the leading digits the carry is their sum
    ``i in [-2, 2]``; each step reads one more digit from both inputs, forms
    ``k = 2i + a' + b' in [-6, 6]``, emits +1 / -1 / 0 as k >= 2 / k <= -2 /
    else, and keeps carry ``k - 4d``.  The pending value is always
    ``(i + x' + y')/4``, which stays in [-1, 1].
    """
    return stream_from_digits(_average(u, v))


def _average(u: SdStream, v: SdStream) -> Iterator[int]:
    u = u.force()
    v = v.force()
    carry = u.head + v.head
    u = u.tail
    v = v.tail
    while True:
        u = u.force()
        v = v.force()
        k = 2 * carry + u.head + v.head
        if k >= 2:
            d = 1
        elif k <= -2:
            d = -1
        else:
            d = 0
        carry = k - 4 * d
        u = u.tail
        v = v.tail
        yield d


def twice_minus(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``2x - y`` under ``1/4 <= y``, ``0 <= x <= y``.

    Built as ``double(double(average(u, half(negate(v)))))``; the average
    argument is ``(2x - y)/4``, which has magnitude <= 1/4, so both
    doublings stay in range.
    """
    return double(double(average(u, half(negate(v)))))


def twice_plus(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``2x + y`` under ``1/4 <= y``, ``-y <= x <= 0``."""
    return double(double(average(u, half(v))))


def divide(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``x/y`` under ``1/4 <= y`` and ``|x| <= y``.

    Each output digit inspects up to three digits of the current numerator:
    leading ``1``, ``01`` or ``001`` emit +1 and continue on ``2x - y``;
    ``000`` emits the delay digit and continues on ``2x``; the mirrored
    patterns emit -1 and continue on ``2x + y``.  Producing n digits reads
    at most ``3n`` digits of ``u`` and ``3n - 1`` digits of ``v``.

    Numerator layer j + 1 is ``double(double(average(x_j, -+y/2)))`` or
    ``double(x_j)`` of layer j, the streams :func:`twice_minus`,
    :func:`twice_plus` and :func:`double` build, but no layer is a stream:
    each is one small-int state of its digit automata.  Every output digit
    reads three digits of ``u`` and passes them up the tower as one 3-digit
    code, one memoized table lookup per layer, and takes its digit from the
    top layer's code.  Layer j reads ``y/2`` at a position fixed by j and
    the step until its automata splice onto a constant, and a digit of ``v``
    is forced when the first layer reads it, so both inputs are forced
    exactly as far as a tower of memoized streams would force them.
    """
    from .sd_tower import quotient_digits  # loaded by the first division, not the package

    return stream_from_digits(quotient_digits(u, v))


_ONE = SdStream.constant(1)
