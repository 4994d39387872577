from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamreal import gray_ops, sd_ops, sd_tower
from streamreal.kernel import SdStream, take_prefix, with_force_count
from tests.support import (
    division_pair,
    random_sd,
    reference_add_one,
    reference_average,
    reference_double,
    reference_sub_one,
    reference_twice_minus,
    reference_twice_plus,
    sd,
    unit_fraction,
    walk,
    within,
)
from tests.test_divide_tower import DIGITS, EDGE_PAIRS

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# --- encode / decode -------------------------------------------------------

def test_encode_traces():
    assert take_prefix(sd_ops.encode(Fraction(0)), 4) == [0, 0, 0, 0]
    assert take_prefix(sd_ops.encode(HALF), 4) == [1, 0, 0, 0]
    assert take_prefix(sd_ops.encode(Fraction(-3, 4)), 4) == [-1, -1, 0, 0]
    assert sd_ops.decode(sd_ops.encode(Fraction(-3, 4)), 4) == Fraction(-3, 4)


def test_encode_follows_its_quarter_rule_on_every_small_rational():
    # +1 when the remainder is >= 1/4, -1 when it is <= -1/4, else 0, then
    # on 2r - d: remainders on the boundaries and denominators of every
    # residue mod 4 included
    for den in range(1, 13):
        for num in range(-den, den + 1):
            r = Fraction(num, den)
            expected = []
            for _ in range(12):
                expected.append(1 if r >= QUARTER else -1 if r <= -QUARTER else 0)
                r = 2 * r - expected[-1]
            assert take_prefix(sd_ops.encode(Fraction(num, den)), 12) == expected, (num, den)


def test_encode_range_check():
    with pytest.raises(ValueError, match="not-in-unit-interval"):
        sd_ops.encode(Fraction(3, 2))
    with pytest.raises(ValueError, match="not-in-unit-interval"):
        sd_ops.encode(Fraction(-9, 8))
    take_prefix(sd_ops.encode(Fraction(1)), 1)
    take_prefix(sd_ops.encode(Fraction(-1)), 1)


def test_encode_decode_soundness_random():
    rng = random.Random(101)
    for _ in range(100):
        a = unit_fraction(rng)
        u = sd_ops.encode(a)
        for n in (1, 7, 40, 200):
            assert within(sd_ops.decode(u, n), a, n)


def test_decode_partial_sums():
    assert sd_ops.decode(sd([]), 4) == 0
    assert sd_ops.decode(sd([1]), 3) == HALF
    assert sd_ops.decode(sd([1, -1, 1]), 3) == Fraction(3, 8)


# --- digitwise operations --------------------------------------------------

def test_negate_digitwise_and_involution():
    u = sd([1, 0, -1, 1])
    assert take_prefix(sd_ops.negate(u), 4) == [-1, 0, 1, -1]
    assert take_prefix(sd_ops.negate(sd_ops.negate(u)), 8) == take_prefix(u, 8)


def test_negate_oracle():
    rng = random.Random(5)
    for _ in range(30):
        a = unit_fraction(rng)
        assert within(sd_ops.decode(sd_ops.negate(sd_ops.encode(a)), 80), -a, 80)


def test_half_prepends_delay_digit():
    u = sd([1, 0, -1])
    assert take_prefix(sd_ops.half(u), 4) == [0, 1, 0, -1]
    for n in (0, 3, 9):
        assert sd_ops.decode(sd_ops.half(u), n + 1) == sd_ops.decode(u, n) / 2
    assert within(sd_ops.decode(sd_ops.half(sd_ops.encode(Fraction(1))), 50), HALF, 50)


def test_one():
    assert take_prefix(SdStream.constant(1), 3) == [1, 1, 1]
    for n in (1, 5, 20):
        assert sd_ops.decode(SdStream.constant(1), n) == 1 - Fraction(1, 1 << n)
    assert within(sd_ops.decode(sd_ops.negate(SdStream.constant(1)), 60), Fraction(-1), 60)


def test_add_one_equations():
    assert take_prefix(sd_ops.add_one(sd([-1])), 4) == [1, 0, 0, 0]
    assert take_prefix(sd_ops.add_one(sd([0, -1])), 4) == [1, 1, 0, 0]
    assert take_prefix(sd_ops.add_one(sd([1, 0, 1])), 4) == [1, 1, 1, 1]


def test_add_one_oracle():
    rng = random.Random(13)
    for _ in range(40):
        a = abs(unit_fraction(rng)) * -1
        u = sd_ops.add_one(sd_ops.encode(a))
        assert within(sd_ops.decode(u, 90), a + 1, 90)


def test_sub_one_equations():
    assert take_prefix(sd_ops.sub_one(sd([1])), 4) == [-1, 0, 0, 0]
    assert take_prefix(sd_ops.sub_one(sd([0, 1])), 4) == [-1, -1, 0, 0]
    assert take_prefix(sd_ops.sub_one(sd([-1, 1])), 4) == [-1, -1, -1, -1]


def test_sub_one_is_conjugated_add_one():
    # sub_one(u) == negate(add_one(negate(u))) digit for digit
    rng = random.Random(17)
    for _ in range(25):
        digits = [rng.choice((-1, 0, 1)) for _ in range(60)]
        u = sd(digits, pad=rng.choice((-1, 0, 1)))
        lhs = take_prefix(sd_ops.sub_one(u), 50)
        rhs = take_prefix(sd_ops.negate(sd_ops.add_one(sd_ops.negate(u))), 50)
        assert lhs == rhs


def test_double_cases():
    u = sd([1, -1, 0])
    assert take_prefix(sd_ops.double(sd_ops.half(u)), 6) == take_prefix(u, 6)
    assert within(sd_ops.decode(sd_ops.double(sd_ops.encode(QUARTER)), 70), HALF, 70)
    assert within(sd_ops.decode(sd_ops.double(sd_ops.encode(-HALF)), 70), Fraction(-1), 70)


# --- average ---------------------------------------------------------------

def test_average_examples():
    mid = sd_ops.average(SdStream.constant(1), sd_ops.negate(SdStream.constant(1)))
    for n in (1, 10, 60):
        assert within(sd_ops.decode(mid, n), Fraction(0), n)
    avg = sd_ops.average(sd_ops.encode(HALF), sd_ops.encode(QUARTER))
    assert within(sd_ops.decode(avg, 50), Fraction(3, 8), 50)


def test_average_idempotent_and_commutative():
    rng = random.Random(23)
    for _ in range(30):
        a, b = unit_fraction(rng), unit_fraction(rng)
        ua, ub = sd_ops.encode(a), sd_ops.encode(b)
        assert within(sd_ops.decode(sd_ops.average(ua, ua), 80), a, 80)
        lhs = take_prefix(sd_ops.average(ua, ub), 60)
        rhs = take_prefix(sd_ops.average(ub, ua), 60)
        assert lhs == rhs


def test_average_look_ahead():
    rng = random.Random(29)
    for _ in range(20):
        u, cu = with_force_count(sd_ops.encode(unit_fraction(rng)))
        v, cv = with_force_count(sd_ops.encode(unit_fraction(rng)))
        out = sd_ops.average(u, v)
        cell = out
        for n in range(1, 41):
            cell = cell.force()
            cell = cell.tail
            assert cu.count <= n + 1
            assert cv.count <= n + 1


# --- 2x -+ y ----------------------------------------------------------------

def test_twice_minus_examples():
    out = sd_ops.twice_minus(sd_ops.encode(HALF), sd_ops.encode(HALF))
    assert within(sd_ops.decode(out, 80), HALF, 80)
    out = sd_ops.twice_minus(sd_ops.encode(QUARTER), sd_ops.encode(QUARTER))
    assert within(sd_ops.decode(out, 80), QUARTER, 80)


def test_twice_plus_examples():
    out = sd_ops.twice_plus(sd_ops.encode(-HALF), sd_ops.encode(HALF))
    assert within(sd_ops.decode(out, 80), -HALF, 80)
    out = sd_ops.twice_plus(sd_ops.encode(Fraction(0)), sd_ops.encode(QUARTER))
    assert within(sd_ops.decode(out, 80), QUARTER, 80)


def test_twice_plus_mirrors_twice_minus():
    rng = random.Random(31)
    for _ in range(25):
        x, y = division_pair(rng)
        x = abs(x)
        out = sd_ops.twice_plus(sd_ops.negate(sd_ops.encode(x)), sd_ops.encode(y))
        assert within(sd_ops.decode(out, 80), -(2 * x - y), 80)


def test_premise_preservation_algebra():
    rng = random.Random(37)
    for _ in range(200):
        x, y = division_pair(rng)
        if x >= 0:
            assert abs(2 * x - y) <= y
        if x <= 0:
            assert abs(2 * x + y) <= y


def test_aux_look_ahead():
    rng = random.Random(41)
    for _ in range(15):
        x, y = division_pair(rng)
        u, cu = with_force_count(sd_ops.encode(abs(x)))
        v, cv = with_force_count(sd_ops.encode(y))
        cell = sd_ops.twice_minus(u, v)
        for n in range(1, 31):
            cell = cell.force()
            cell = cell.tail
            assert cu.count <= n + 3
            assert cv.count <= n + 2


# --- the automata against their generator references -----------------------

UNARY = [(sd_ops.add_one, reference_add_one), (sd_ops.sub_one, reference_sub_one),
         (sd_ops.double, reference_double)]
BINARY = [(sd_ops.average, reference_average), (sd_ops.twice_minus, reference_twice_minus),
          (sd_ops.twice_plus, reference_twice_plus)]


def _match_references(u: SdStream, v: SdStream, n: int) -> None:
    # cell class, digit and each input's forced count after every digit
    for op, reference in UNARY:
        assert walk(op, (u,), n) == walk(reference, (u,), n), op.__name__
    for op, reference in BINARY:
        assert walk(op, (u, v), n) == walk(reference, (u, v), n), op.__name__


def test_automata_match_generator_references_on_random_streams():
    rng = random.Random(20261019)
    for _ in range(400):
        _match_references(random_sd(rng, 40), random_sd(rng, 40), 60)


def test_automata_match_generator_references_on_division_pairs():
    rng = random.Random(20261020)
    for _ in range(200):
        x, y = division_pair(rng)
        _match_references(sd_ops.encode(x), sd_ops.encode(y), 120)


def test_carry_table_is_the_average_step():
    # every carry the automaton reaches and every digit pair: the entry at
    # k + 6 holds the next carry as 2*carry + 6 and the digit
    triples = [(c, a, b) for c in range(-2, 3) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    assert len(triples) == 45 and len(sd_ops._CARRY_STEPS) == 13
    for c, a, b in triples:
        carry, d = sd_ops._average_step(c, a, b)
        assert sd_ops._CARRY_STEPS[2 * c + a + b + 6] == (2 * carry + 6, d), (c, a, b)


def _layer_closure() -> set[tuple]:
    """Every layer state that 3-digit steps reach from ``_LAYER_STARTS``
    over any code below and any code of y/2, as the tower steps them."""
    seen = set(sd_ops._LAYER_STARTS)
    todo = list(seen)
    while todo:
        first = todo.pop()
        for below in range(27):
            for h in range(27):
                state = first
                for a, b in zip(sd_tower._digits3(below), sd_tower._digits3(h)):
                    state, _ = sd_ops._layer_step(state, a, b)
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return seen


def test_the_tower_interns_only_states_of_the_bounded_layer_closure(monkeypatch):
    # Rows are keyed on raw layer states, so the table is bounded for any
    # input only because the closure is finite: a spliced state keeps the
    # stages below its constant, 162 states in all.  The seeded and edge
    # pairs of the tower tests, out-of-precondition splices among them,
    # intern rows only from it.
    closure = _layer_closure()
    assert len(closure) <= 162
    layers = sd_tower._Layers()
    monkeypatch.setattr(sd_tower, "_LAYERS", layers)
    rng = random.Random(20261018)
    for x, y in [division_pair(rng) for _ in range(200)] + EDGE_PAIRS:
        take_prefix(sd_ops.divide(sd_ops.encode(x), sd_ops.encode(y)), DIGITS)
    assert len(layers.ids) > len(sd_ops._LAYER_STARTS) and set(layers.ids) <= closure


@pytest.mark.parametrize("kind", [0, 1, -1])
def test_the_tower_starts_each_kind_from_the_shared_start_state(kind):
    assert sd_tower._LAYERS.start[kind][27] == sd_ops._LAYER_STARTS[kind]


def _in_gray(op):
    """``op`` over signed-digit streams, run on Gray codes between the
    conversions."""
    return lambda x, y: gray_ops.from_sd(op(gray_ops.to_sd(x), gray_ops.to_sd(y)))


CARRY_LOOPS = {
    "sd": (sd_ops, [(sd_ops.average, reference_average), (sd_ops.twice_minus, reference_twice_minus),
                    (sd_ops.twice_plus, reference_twice_plus)]),
    "gray": (gray_ops, [(gray_ops.average, _in_gray(reference_average)),
                        (gray_ops.twice_minus, _in_gray(reference_twice_minus)),
                        (gray_ops.twice_plus, _in_gray(reference_twice_plus))]),
}


@pytest.mark.parametrize("code", sorted(CARRY_LOOPS))
def test_carry_loops_match_references_on_seeded_pairs(code):
    # Inside the precondition of each op, so that twice_minus and twice_plus
    # reach the loop that steps only the carry: symbol, cell class and the
    # forced count of each input after every output symbol.
    ops, pairs = CARRY_LOOPS[code]
    rng = random.Random(20261021)
    for _ in range(200):
        x, y = division_pair(rng)
        for (op, reference), a in zip(pairs, (x, abs(x), -abs(x))):
            inputs = (ops.encode(a), ops.encode(y))
            assert walk(op, inputs, 100) == walk(reference, inputs, 100), (op.__name__, a, y)


def test_shift_splices_onto_its_input_or_the_constant():
    u = sd([1, 0, -1])
    for e, op in ((1, sd_ops.add_one), (-1, sd_ops.sub_one)):
        assert op(SdStream.cons(-e, u)).force().tail is u
        assert op(SdStream.cons(e, u)).force().tail is SdStream.constant(e)
    # double's first digit: 0 splices onto the input itself, +-1 runs the shift
    assert sd_ops.double(SdStream.cons(0, u)).force().tail is u.force().tail
    for e in (1, -1):
        assert sd_ops.double(SdStream.cons(e, SdStream.cons(-e, u))).force().tail is u
        twice_e = sd_ops.double(SdStream.cons(e, SdStream.cons(e, u)))
        assert twice_e.force().tail is SdStream.constant(e)


# --- division ---------------------------------------------------------------

def test_divide_simple():
    q = sd_ops.divide(sd_ops.encode(QUARTER), sd_ops.encode(HALF))
    assert within(sd_ops.decode(q, 8), HALF, 8)
    assert within(sd_ops.decode(q, 120), HALF, 120)


def test_divide_benchmark_pair_19_digits():
    x, y = Fraction(1001, 3001), Fraction(10001, 20001)
    u, cu = with_force_count(sd_ops.encode(x))
    v, cv = with_force_count(sd_ops.encode(y))
    q = sd_ops.divide(u, v)
    digits = take_prefix(q, 19)
    assert len(digits) == 19
    assert within(sd_ops.decode(q, 19), x / y, 19)
    assert cu.count <= 57
    assert cv.count <= 56


def test_divide_self_is_one():
    rng = random.Random(43)
    for _ in range(15):
        den = rng.randint(4, 300)
        y = Fraction(rng.randint((den + 3) // 4, den), den)
        q = sd_ops.divide(sd_ops.encode(y), sd_ops.encode(y))
        assert within(sd_ops.decode(q, 90), Fraction(1), 90)


def test_divide_oracle_random():
    rng = random.Random(47)
    for _ in range(40):
        x, y = division_pair(rng)
        q = sd_ops.divide(sd_ops.encode(x), sd_ops.encode(y))
        assert within(sd_ops.decode(q, 100), x / y, 100)


def test_divide_look_ahead():
    rng = random.Random(53)
    for _ in range(15):
        x, y = division_pair(rng)
        u, cu = with_force_count(sd_ops.encode(x))
        v, cv = with_force_count(sd_ops.encode(y))
        cell = sd_ops.divide(u, v)
        for n in range(1, 41):
            cell = cell.force()
            cell = cell.tail
            assert cu.count <= 3 * n
            assert cv.count <= 3 * n - 1


def test_representation_soundness_depth_200():
    rng = random.Random(59)
    for _ in range(5):
        a, b = unit_fraction(rng), unit_fraction(rng)
        ua, ub = sd_ops.encode(a), sd_ops.encode(b)
        assert within(sd_ops.decode(sd_ops.negate(ua), 200), -a, 200)
        assert within(sd_ops.decode(sd_ops.average(ua, ub), 200), (a + b) / 2, 200)
        x, y = division_pair(rng)
        q = sd_ops.divide(sd_ops.encode(x), sd_ops.encode(y))
        assert within(sd_ops.decode(q, 200), x / y, 200)
