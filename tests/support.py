"""Shared helpers for the test suite: fixed streams, random inputs, bounds,
a per-symbol walk of an operation's output, and the reference
implementations that the library is checked against: the signed-digit
generators of the average and the doublings, the stream-tower divisions
and the direct Gray-code equations."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from streamreal import gray_ops, sd_ops
from streamreal.kernel import (
    Cell,
    GrayG,
    GrayH,
    GrayNode,
    SdStream,
    stream_from_digits,
    with_force_count,
)


def sd(digits, pad=0):
    """Stream starting with ``digits`` and continuing with ``pad`` forever."""
    stream = SdStream.constant(pad)
    for d in reversed(digits):
        stream = SdStream.cons(d, stream)
    return stream


def random_sd(rng: random.Random, max_prefix: int) -> SdStream:
    """``sd(prefix, pad)`` with any digits for up to ``max_prefix`` places and
    any pad: mostly streams the encoder never writes."""
    prefix = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, max_prefix))]
    return sd(prefix, rng.choice((-1, 0, 1)))


def within(value: Fraction, target: Fraction, n: int) -> bool:
    """|value - target| <= 2**-n."""
    return abs(value - target) <= Fraction(1, 1 << n)


def unit_fraction(rng: random.Random, max_den: int = 1000) -> Fraction:
    """Random rational in [-1, 1]."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-den, den), den)


def division_pair(rng: random.Random, max_den: int = 1000) -> tuple[Fraction, Fraction]:
    """Random (x, y) with 1/4 <= y <= 1 and |x| <= y, exactly."""
    den = rng.randint(4, max_den)
    y = Fraction(rng.randint((den + 3) // 4, den), den)
    scale = rng.randint(1, max_den)
    x = y * Fraction(rng.randint(-scale, scale), scale)
    return x, y


def walk(op, inputs, n: int) -> list[tuple]:
    """(cell class, symbol, forced count of each input) after each of the
    first n output symbols of ``op(*inputs)``, every input read through its
    own force counter."""
    counted = [with_force_count(x) for x in inputs]
    cell = op(*[stream for stream, _ in counted])
    out = []
    for _ in range(n):
        cell = cell.force()
        out.append((type(cell), cell.head, *[counter.count for _, counter in counted]))
        cell = cell.tail
    return out


def lazy(cls: type, thunk) -> Cell:
    """Unforced cell of class ``cls`` that ``thunk() -> (head, tail)``
    evaluates when the cell is forced."""

    def pull():
        head, tail = thunk()
        raise StopIteration(cls.cons(head, tail))

    return cls(pull)


def tail_at(u: Cell, n: int) -> Cell:
    """The stream left after dropping the first ``n`` cells."""
    cell = u
    for _ in range(n):
        cell = cell.force().tail
    return cell


# The signed-digit average, shift and double as their own generators, and
# ``2x -+ y`` composed of them as five stream layers.  ``sd_ops`` runs them
# as the one-digit step functions that the division tower shares; these are
# the reference it is compared with, digit and forced count.

def reference_average(u: SdStream, v: SdStream) -> SdStream:
    """``(x + y)/2`` by the carry automaton written out as a generator."""
    return stream_from_digits(_reference_average(u, v))


def _reference_average(u: SdStream, v: SdStream) -> Iterator[int]:
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


def reference_add_one(u: SdStream) -> SdStream:
    """``x + 1`` for ``x <= 0`` by the shift equations."""
    return stream_from_digits(_reference_shift(u, 1))


def reference_sub_one(u: SdStream) -> SdStream:
    """``x - 1`` for ``x >= 0`` by the shift equations."""
    return stream_from_digits(_reference_shift(u, -1))


def _reference_shift(u: SdStream, e: int) -> Iterator[int]:
    while True:
        u = u.force()
        d = u.head
        if d == -e:
            return SdStream.cons(e, u.tail)
        if d == e:
            return SdStream.constant(e)
        yield e
        u = u.tail


def reference_double(u: SdStream) -> SdStream:
    """``2x`` for ``|x| <= 1/2``, dispatching on the first digit."""

    def thunk() -> tuple:
        c = u.force()
        d = c.head
        if d == 0:
            rest = c.tail
        elif d == 1:
            rest = reference_add_one(c.tail)
        else:
            rest = reference_sub_one(c.tail)
        rest = rest.force()
        return rest.head, rest.tail

    return lazy(SdStream, thunk)


def reference_twice_minus(u: SdStream, v: SdStream) -> SdStream:
    """``2x - y`` as ``double(double(average(u, half(negate(v)))))``."""
    return reference_double(reference_double(reference_average(u, sd_ops.half(sd_ops.negate(v)))))


def reference_twice_plus(u: SdStream, v: SdStream) -> SdStream:
    """``2x + y`` as ``double(double(average(u, half(v))))``."""
    return reference_double(reference_double(reference_average(u, sd_ops.half(v))))


def reference_divide(u: SdStream, v: SdStream) -> SdStream:
    """``sd_ops.divide`` with every numerator layer a memoized stream.

    Layer j + 1 is ``double(double(average(layer j, -+y/2)))`` or
    ``double(layer j)``; all layers are forced bottom-up, three digits per
    layer and output digit, which fixes how far ``u`` and ``v`` are read.
    """
    return stream_from_digits(_reference_divide(u, sd_ops.half(sd_ops.negate(v)), sd_ops.half(v)))


def _reference_divide(top: SdStream, neg_half_v: SdStream, pos_half_v: SdStream) -> Iterator[int]:
    layers: list[SdStream] = []
    while True:
        layers.append(top)
        for j, cell in enumerate(layers):
            layers[j] = tail_at(cell, 3)
        c1 = top.force()
        lead = c1.head
        if lead == 0:
            c2 = c1.tail.force()
            lead = c2.head
            if lead == 0:
                lead = c2.tail.force().head
        if lead == 1:
            yield 1
            top = reference_double(reference_double(reference_average(top, neg_half_v)))
        elif lead == -1:
            yield -1
            top = reference_double(reference_double(reference_average(top, pos_half_v)))
        else:
            yield 0
            top = reference_double(top)


def _gray_leading_sign(x: GrayG) -> tuple[int, GrayG | None]:
    """Classify the sign of ``x`` from up to three constructors.

    Returns ``(+1, None)`` / ``(-1, None)`` when a sign node appears among
    the first three constructors, else ``(0, code of 2x)`` for the all-delay
    prefix (there ``|x| <= 1/8``, so doubling is represented by stripping
    one delay).
    """
    c = x.force()
    if c.head is not None:
        return c.head, None
    h1 = c.tail.force()
    if h1.head is not None:
        return h1.head, None
    h2 = h1.tail.force()
    if h2.head is not None:
        return h2.head, None
    return 0, GrayG.cons(None, GrayH.cons(None, h2.tail))


def reference_gray_divide(x: GrayG, y: GrayG) -> GrayG:
    """``gray_ops.divide`` with every numerator layer a memoized Gray stream.

    The quotient digit d comes from the sign of the numerator ``x'`` within
    three constructors, and the next numerator is ``2x' - d*y``, built as
    ``double(double(from_sd(average(to_sd(x'), -d*y/2))))``, or ``2x'`` for
    d = 0.  Mode G emits +1 as a sign node over the negated numerator and -1
    over the numerator itself, and 0 as a delay into mode H; mode H mirrors
    the two signs.  All layers are forced bottom-up, three constructors per
    layer and output symbol.
    """
    neg_half_y = gray_ops.to_sd(gray_ops.half(gray_ops.negate(y)))
    return stream_from_digits(_reference_gray_divide(x, neg_half_y, gray_ops.to_sd(gray_ops.half(y))), GrayG)


def _reference_gray_divide(top: GrayG, sd_neg_half_y: SdStream, sd_pos_half_y: SdStream) -> Iterator:
    layers: list = []
    in_g = True
    while True:
        layers.append(top)
        for j, node in enumerate(layers):
            layers[j] = tail_at(node, 3)
        d, top_doubled = _gray_leading_sign(top)
        if d == 0:
            top = top_doubled
        else:
            # 2x' - d*y = 4 * average(x', -d*y/2), built on the SD side
            other = sd_neg_half_y if d == 1 else sd_pos_half_y
            top = gray_ops.from_sd(reference_average(gray_ops.to_sd(top), other))
            top = reference_gray_double(reference_gray_double(top))
            if d == (1 if in_g else -1):
                top = reference_gray_negate(top)
        in_g = d != 0
        yield d or None


# The direct Gray-code equations (Tsuiki, *Real number computation through
# Gray code embedding*, TCS 2002; Berger, Miyamoto, Schwichtenberg and
# Tsuiki, *Logic for Gray-code computation*, 2016).  ``gray_ops`` runs the
# signed-digit automata between the two conversions instead; these are the
# reference it is compared with, symbol, mode and forced count.

def reference_gray_negate(node: GrayNode) -> GrayNode:
    """Denotes ``-x`` in the mode of ``node``: flip the sign node's sign,
    recurse through delays."""

    def thunk() -> tuple:
        c = node.force()
        if c.head is not None:
            return -c.head, c.tail
        return None, reference_gray_negate(c.tail)

    return lazy(type(node), thunk)


def reference_gray_switch_mode(node: GrayNode, cls: type) -> GrayNode:
    """The ``to_h``/``to_g`` rewrite: a sign node keeps its sign and negates
    its continuation, a delay switches delay flavour."""

    def thunk() -> tuple:
        c = node.force()
        if c.head is not None:
            return c.head, reference_gray_negate(c.tail)
        return None, c.tail

    return lazy(cls, thunk)


def reference_gray_shift(node: GrayNode, direction: int) -> GrayNode:
    """For ``x <= 0``: code of ``x + 1`` (direction +1) or ``-(x + 1)`` (-1),
    in the mode of ``node``."""
    end = -1 if node.is_g else 1

    def thunk() -> tuple:
        c = node.force()
        s = c.head
        if s == 1:
            return direction, GrayG.constant(-1) if end == -1 else gray_ops.one()
        if s == -1:
            return direction, reference_gray_negate(c.tail)
        return direction, reference_gray_shift(reference_gray_switch_mode(c.tail, GrayG), end)

    return lazy(type(node), thunk)


def reference_gray_double(g: GrayG) -> GrayG:
    """Denotes ``2x`` for ``|x| <= 1/2``: a sign node hands its negated
    continuation to the shift, a delay node unwraps to mode G."""

    def thunk() -> tuple:
        c = g.force()
        s = c.head
        if s is None:
            rest = reference_gray_switch_mode(c.tail, GrayG)
        else:
            rest = reference_gray_shift(reference_gray_negate(c.tail), s)
        rest = rest.force()
        return rest.head, rest.tail

    return lazy(GrayG, thunk)
