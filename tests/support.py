"""Shared helpers for the test suite: fixed streams, random inputs, bounds,
and the stream-tower division that the flat tower is checked against."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from streamreal import sd_ops
from streamreal.kernel import SdStream, stream_from_digits, tail_at


def sd(digits, pad=0):
    """Stream starting with ``digits`` and continuing with ``pad`` forever."""
    stream = SdStream.constant(pad)
    for d in reversed(digits):
        stream = SdStream.cons(d, stream)
    return stream


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
            top = sd_ops.double(sd_ops.double(sd_ops.average(top, neg_half_v)))
        elif lead == -1:
            yield -1
            top = sd_ops.double(sd_ops.double(sd_ops.average(top, pos_half_v)))
        else:
            yield 0
            top = sd_ops.double(top)
