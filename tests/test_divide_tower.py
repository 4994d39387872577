"""The flat numerator tower of ``sd_ops.divide`` against the stream tower.

``tests.support.reference_divide`` keeps every numerator layer as a
memoized stream and forces the layers bottom-up.  After every output digit
the flat tower must have emitted the same digits and forced exactly as many
digits of each input.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamreal import sd_ops
from streamreal.kernel import with_force_count
from tests.support import division_pair, reference_divide

DIGITS = 150
F = Fraction


def _walk(divide, x: Fraction, y: Fraction, n: int) -> list[tuple[int, int, int]]:
    """(digit, u forced, v forced) after each of the first n output digits."""
    u, cu = with_force_count(sd_ops.encode(x))
    v, cv = with_force_count(sd_ops.encode(y))
    cell = divide(u, v)
    out = []
    for _ in range(n):
        cell = cell.force()
        out.append((cell.head, cu.count, cv.count))
        cell = cell.tail
    return out


def test_seeded_pairs_match_stream_tower():
    rng = random.Random(20261018)
    for _ in range(200):
        x, y = division_pair(rng)
        assert _walk(sd_ops.divide, x, y, DIGITS) == _walk(reference_divide, x, y, DIGITS), (x, y)


EDGE_PAIRS = [
    # x = +-y, x = 0, and the ends y = 1/4 and y = 1 of the divisor range
    *[(s * y, y) for y in (F(1, 4), F(1, 2), F(10001, 20001), F(1)) for s in (1, -1)],
    (F(0), F(1, 4)), (F(0), F(1)), (F(0), F(10001, 20001)),
    (F(1, 8), F(1, 4)), (F(-3, 16), F(1, 4)), (F(-1, 32), F(1, 4)),
    (F(1001, 3001), F(1)), (F(-1, 3), F(1)), (F(1, 64), F(1)),
    # Outside the precondition the digit equations still define the towers,
    # and these dyadic pairs drive layers into an add_one/sub_one splice onto
    # a constant: the lowest layers stop reading v at once (1, 0), after a
    # few digits (1, 63/64), or above a layer that keeps reading (1/2, 0).
    (F(1), F(0)), (F(1, 2), F(0)), (F(-1, 4), F(-1, 2)), (F(1), F(-1)),
    (F(3, 4), F(-3, 4)), (F(1), F(63, 64)), (F(-1), F(63, 64)),
    (F(7, 8), F(47, 64)), (F(5, 8), F(15, 64)),
]


@pytest.mark.parametrize("x, y", EDGE_PAIRS, ids=lambda a: str(a))
def test_edge_pairs_match_stream_tower(x, y):
    assert _walk(sd_ops.divide, x, y, DIGITS) == _walk(reference_divide, x, y, DIGITS)


def test_splice_stops_reading_v():
    # v is read to digit 8 and no further, in both towers
    walk = _walk(sd_ops.divide, F(1), F(63, 64), 40)
    assert [v for _, _, v in walk][-30:] == [8] * 30
    assert [u for _, u, _ in walk] == [3 * n for n in range(1, 41)]
