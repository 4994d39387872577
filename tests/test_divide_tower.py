"""Both divisions against the towers of memoized stream layers.

``tests.support.reference_divide`` and ``reference_gray_divide`` keep every
numerator layer as a memoized stream and force the layers bottom-up.  After
every output symbol the library's division must have emitted the same
symbol, in the same Gray mode, and forced exactly as many symbols of each
input.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from streamreal import gray_ops, sd_ops, sd_tower
from streamreal.kernel import _FORCE_LOCK, take_prefix, with_force_count
from tests.support import division_pair, random_sd, reference_divide, reference_gray_divide, walk

DIGITS = 150
NON_CANONICAL_DIGITS = 80
F = Fraction
TOWERS = {"sd": (sd_ops, reference_divide), "gray": (gray_ops, reference_gray_divide)}


@functools.cache
def _reference_walk(code: str, x: Fraction, y: Fraction) -> list[tuple]:
    ops, reference = TOWERS[code]
    return walk(reference, (ops.encode(x), ops.encode(y)), DIGITS)


def _agree(code: str, x: Fraction, y: Fraction) -> bool:
    ops, _ = TOWERS[code]
    return walk(ops.divide, (ops.encode(x), ops.encode(y)), DIGITS) == _reference_walk(code, x, y)


def _seeded_pairs_agree(code: str) -> None:
    rng = random.Random(20261018)
    for _ in range(200):
        x, y = division_pair(rng)
        assert _agree(code, x, y), (x, y)


def test_seeded_pairs_match_stream_tower():
    _seeded_pairs_agree("sd")


def test_gray_seeded_pairs_match_stream_tower():
    _seeded_pairs_agree("gray")


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
    assert _agree("sd", x, y)


@pytest.mark.parametrize("x, y", EDGE_PAIRS, ids=lambda a: str(a))
def test_gray_edge_pairs_match_stream_tower(x, y):
    assert _agree("gray", x, y)


@pytest.mark.parametrize("code", sorted(TOWERS))
def test_pairs_from_empty_tables_match_stream_tower(code, monkeypatch):
    # The tests above find the tower's tables warm.  Emptied before each
    # pair, they fill while the division runs, so missing entries turn up in
    # the middle of the layer loop and of the first layer's reads of y/2.
    # The reference walks are the ones those tests made.
    rng = random.Random(20261018)
    for x, y in [division_pair(rng) for _ in range(200)] + EDGE_PAIRS:
        monkeypatch.setattr(sd_tower, "_LAYERS", sd_tower._Layers())
        assert _agree(code, x, y), (x, y)


def test_non_canonical_gray_pairs_match_stream_tower():
    # Gray codes of SD streams that the encoder never writes; no
    # precondition is imposed.
    rng = random.Random(20261019)
    for _ in range(300):
        x = gray_ops.from_sd(random_sd(rng, 8))
        y = gray_ops.from_sd(random_sd(rng, 8))
        ours = walk(gray_ops.divide, (x, y), NON_CANONICAL_DIGITS)
        assert ours == walk(reference_gray_divide, (x, y), NON_CANONICAL_DIGITS)


def test_splice_stops_reading_v():
    # The whole v column, as the stream tower reads it: v is read to digit
    # 8, 3 or 7 and no further.  The splice of (1, 63/64) falls where a
    # chunk of y/2 ends; those of (1, 0) and (7/8, 47/64) fall inside one,
    # so a division that reads the chunk whole before the splice fails them.
    columns = {(F(1), F(63, 64)): [0, 5] + [8] * 38, (F(1), F(0)): [0] + [3] * 39,
               (F(7, 8), F(47, 64)): [0, 5] + [7] * 38}
    for (x, y), column in columns.items():
        walk_out = walk(sd_ops.divide, (sd_ops.encode(x), sd_ops.encode(y)), 40)
        assert [v for _, _, _, v in walk_out] == column, (x, y)
        assert [u for _, _, u, _ in walk_out] == [3 * n for n in range(1, 41)]


def test_splice_pairs_step_digit_by_digit_only_where_a_chunk_is_open(monkeypatch):
    # A layer that may splice steps digit by digit only while its chunk of
    # y/2 is not yet packed; a digit read that ends a chunk packs it, so the
    # layers above read it as one code.  (1, 63/64) and (7/8, 47/64) take
    # two such steps in all.  (1, 0) never packs chunk 1, whose first digit
    # each new layer reads before it splices: one step per output digit.
    steps = []
    advance = sd_tower._Layers.advance

    def counted(self, row, below, half_y, first):
        steps[-1] += isinstance(half_y, sd_tower._HalfY)
        return advance(self, row, below, half_y, first)

    monkeypatch.setattr(sd_tower._Layers, "advance", counted)
    for x, y in [(F(1), F(63, 64)), (F(1), F(0)), (F(7, 8), F(47, 64))]:
        steps.append(0)
        take_prefix(sd_ops.divide(sd_ops.encode(x), sd_ops.encode(y)), 40)
    assert steps == [2, 39, 2]


def test_every_filled_entry_is_three_layer_steps(monkeypatch):
    # Fill the rows from empty tables with the seeded pairs, then step every
    # filled entry again: three digits below and three of y/2 through the
    # layer automaton, interned.  Equal entries are kept once.
    layers = sd_tower._Layers()
    monkeypatch.setattr(sd_tower, "_LAYERS", layers)
    rng = random.Random(20261018)
    for _ in range(200):
        x, y = division_pair(rng)
        take_prefix(sd_ops.divide(sd_ops.encode(x), sd_ops.encode(y)), DIGITS)
    entries = {}
    rows = list(layers.ids.values())
    for row in rows:
        first = row[27]
        assert layers.ids[first] is row
        assert len(row) == 56 and row[28] == sd_tower._reads_y(first)
        assert row[29:] == [(row, c) for c in range(27)]
        for below in range(27):
            for h, entry in enumerate(row[below]):
                if entry is None:
                    continue
                state, code = first, 0
                for a, b in zip(sd_tower._digits3(below), sd_tower._digits3(h)):
                    state, d = sd_ops._layer_step(state, a, b)
                    code = 3 * code + (d or 0) + 1
                assert len(entry) == 2 and entry[0] is layers.intern(state) and entry[1] == code
                assert entry is layers.intern(state)[29 + code]
                entries[id(entry)] = entry
    assert len(layers.ids) == len(rows) and len(entries) > 100


def test_half_y_reads_v_as_far_as_mixed_reads_need():
    # Digit reads and whole-chunk reads interleaved, starting inside the
    # first chunk, whose digit 0 is known: code(c) forces v to exactly
    # 3c + 2 cells and a digit read p to p cells, never further.  Reading
    # the last digit of a chunk packs it, so its code forces nothing more.
    v, counter = with_force_count(sd_ops.encode(F(5, 7)))
    y2 = [0] + take_prefix(sd_ops.encode(F(5, 7)), 20)
    codes = [9 * y2[3 * c] + 3 * y2[3 * c + 1] + y2[3 * c + 2] + 13 for c in range(7)]
    half_y = sd_tower._HalfY(v)
    reads = [("code", 0, 2), ("digit", 3, 3), ("digit", 4, 4), ("code", 3, 11), ("digit", 12, 12),
             ("code", 4, 14), ("code", 1, 14), ("digit", 15, 15), ("digit", 16, 16), ("digit", 17, 17),
             ("code", 5, 17), ("code", 6, 20)]
    with _FORCE_LOCK:
        for read, i, forced in reads:
            assert (half_y.code(i) == codes[i]) if read == "code" else (half_y[i] == y2[i])
            assert counter.count == forced, (read, i)
    assert half_y.codes == codes
