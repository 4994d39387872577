from __future__ import annotations

import itertools
import random
from fractions import Fraction

from streamreal import gray_ops, sd_ops
from streamreal.kernel import GrayG, GrayH, stream_from_digits, take_gray_prefix, take_prefix, with_force_count
from tests.support import (
    division_pair,
    random_sd,
    reference_gray_double,
    reference_gray_negate,
    reference_gray_shift,
    reference_gray_switch_mode,
    sd,
    unit_fraction,
    walk,
    within,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
SYMBOLS = 60


def gray(a) -> GrayG:
    return gray_ops.encode(Fraction(a))


# --- decode ------------------------------------------------------------------

def test_decode_all_delay_is_zero():
    assert gray_ops.decode(gray(0), 3) == 0
    assert take_gray_prefix(gray(0), 3) == [("g", None), ("h", None), ("h", None)]


def test_decode_single_constructor_midpoint():
    # one positive sign constructor confines the value to [0, 1]
    assert gray_ops.decode(gray_ops.one(), 1) == HALF


def test_decode_roundtrip_oracle():
    rng = random.Random(61)
    for _ in range(40):
        a = unit_fraction(rng)
        g = gray_ops.from_sd(sd_ops.encode(a))
        for n in (1, 9, 50):
            assert within(gray_ops.decode(g, n), a, n)


# --- negate -------------------------------------------------------------------

def test_negate_flips_leading_sign_only():
    g = gray(Fraction(1, 4))
    assert take_gray_prefix(g, 4) == [("g", 1), ("g", 1), ("g", None), ("h", None)]
    assert take_gray_prefix(gray_ops.negate(g), 4) == [("g", -1), ("g", 1), ("g", None), ("h", None)]


def test_negate_involution_structural():
    rng = random.Random(67)
    for _ in range(25):
        g = gray(unit_fraction(rng))
        twice = gray_ops.negate(gray_ops.negate(g))
        assert take_gray_prefix(twice, 50) == take_gray_prefix(g, 50)


def test_negate_oracle():
    rng = random.Random(71)
    for _ in range(30):
        a = unit_fraction(rng)
        assert within(gray_ops.decode(gray_ops.negate(gray(a)), 80), -a, 80)


# --- mode conversions -----------------------------------------------------------

def test_to_h_to_g_single_constructor_rewrite():
    g = gray_ops.one()  # sign node
    h = gray_ops.to_h(g)
    assert take_gray_prefix(h, 1) == [("h", 1)]
    back = gray_ops.to_g(gray_ops.to_h(g))
    assert take_gray_prefix(back, 40) == take_gray_prefix(g, 40)

    delay = gray(0)  # leading delay node
    forced = delay.force()
    assert gray_ops.to_h(delay).force().tail is forced.tail  # U(v) -> D(v), v shared
    h_delay = GrayH.cons(None, forced.tail)
    assert take_gray_prefix(gray_ops.to_g(h_delay), 3) == take_gray_prefix(delay, 3)


def test_to_h_roundtrip_decode_equality():
    rng = random.Random(73)
    for _ in range(30):
        g = gray(unit_fraction(rng))
        assert gray_ops.decode(gray_ops.to_g(gray_ops.to_h(g)), 50) == gray_ops.decode(g, 50)
        h = gray_ops.to_h(g)
        assert gray_ops.decode(gray_ops.to_h(gray_ops.to_g(h)), 50) == gray_ops.decode(h, 50)


def test_to_h_preserves_value():
    rng = random.Random(79)
    for _ in range(30):
        a = unit_fraction(rng)
        assert within(gray_ops.decode(gray_ops.to_h(gray(a)), 60), a, 60)


# --- shift (x -> x+1 / -(x+1) on x <= 0) ---------------------------------------

def test_shift_sign_cases_structure():
    # leading +1 sign forces x = 0: result is the constant code of +-1
    g = GrayG.cons(1, gray_ops.one())
    up = gray_ops.shift(g, 1)
    assert take_gray_prefix(up, 1) == [("g", 1)]
    assert within(gray_ops.decode(up.force().tail, 30), Fraction(-1), 30)
    down = gray_ops.shift(g, -1)
    assert take_gray_prefix(down, 1) == [("g", -1)]
    assert within(gray_ops.decode(down, 30), Fraction(-1), 30)

    delayed = gray(0)
    assert take_gray_prefix(gray_ops.shift(delayed, 1), 1) == [("g", 1)]
    assert take_gray_prefix(gray_ops.shift(delayed, -1), 1) == [("g", -1)]


def test_shift_oracle():
    rng = random.Random(83)
    for _ in range(30):
        a = -abs(unit_fraction(rng))
        g = gray(a)
        assert within(gray_ops.decode(gray_ops.shift(g, 1), 80), a + 1, 80)
        assert within(gray_ops.decode(gray_ops.shift(g, -1), 80), -(a + 1), 80)


def test_shift_h_oracle():
    zero = GrayH.cons(1, gray(-1))  # leading +1 sign in mode H: x = 0
    assert within(gray_ops.decode(gray_ops.shift(zero, 1), 40), Fraction(1), 40)
    assert within(gray_ops.decode(gray_ops.shift(zero, -1), 40), Fraction(-1), 40)
    rng = random.Random(89)
    for _ in range(30):
        a = -abs(unit_fraction(rng))
        h = gray_ops.to_h(gray(a))
        assert take_gray_prefix(gray_ops.shift(h, 1), 1)[0][0] == "h"
        assert within(gray_ops.decode(gray_ops.shift(h, 1), 80), a + 1, 80)
        assert within(gray_ops.decode(gray_ops.shift(h, -1), 80), -(a + 1), 80)


def test_add_one_sub_one_oracle():
    rng = random.Random(97)
    for _ in range(30):
        a = -abs(unit_fraction(rng))
        assert within(gray_ops.decode(gray_ops.add_one(gray(a)), 80), a + 1, 80)
        b = abs(unit_fraction(rng))
        assert within(gray_ops.decode(gray_ops.sub_one(gray(b)), 80), b - 1, 80)


# --- double / half ---------------------------------------------------------------

def test_double_delay_case_unwraps():
    g = gray(0)
    v = g.force().tail
    doubled = gray_ops.double(g)
    assert take_gray_prefix(doubled, 20) == take_gray_prefix(gray_ops.to_g(v), 20)


def test_double_oracle():
    assert within(gray_ops.decode(gray_ops.double(gray(QUARTER)), 70), HALF, 70)
    assert gray_ops.decode(gray_ops.double(gray(0)), 40) == 0
    rng = random.Random(101)
    for _ in range(30):
        a = unit_fraction(rng) / 2
        assert within(gray_ops.decode(gray_ops.double(gray(a)), 80), 2 * a, 80)


def test_half_oracle():
    rng = random.Random(103)
    assert gray_ops.decode(gray_ops.half(gray(0)), 40) == 0
    for _ in range(30):
        a = unit_fraction(rng)
        g = gray(a)
        assert within(gray_ops.decode(gray_ops.half(g), 80), a / 2, 80)
        assert within(gray_ops.decode(gray_ops.half(gray_ops.half(g)), 80), a / 4, 80)


# --- average / aux ----------------------------------------------------------------

def test_average_examples():
    assert within(gray_ops.decode(gray_ops.average(gray(1), gray(-1)), 60), Fraction(0), 60)
    out = gray_ops.average(gray(HALF), gray(QUARTER))
    assert within(gray_ops.decode(out, 60), Fraction(3, 8), 60)
    rng = random.Random(107)
    for _ in range(20):
        a = unit_fraction(rng)
        assert within(gray_ops.decode(gray_ops.average(gray(a), gray(a)), 60), a, 60)


def test_twice_minus_twice_plus():
    assert within(gray_ops.decode(gray_ops.twice_minus(gray(HALF), gray(HALF)), 70), HALF, 70)
    assert within(gray_ops.decode(gray_ops.twice_plus(gray(-HALF), gray(HALF)), 70), -HALF, 70)
    rng = random.Random(109)
    for _ in range(20):
        x, y = division_pair(rng)
        if x >= 0:
            out = gray_ops.twice_minus(gray(x), gray(y))
            assert within(gray_ops.decode(out, 70), 2 * x - y, 70)
        if x <= 0:
            out = gray_ops.twice_plus(gray(x), gray(y))
            assert within(gray_ops.decode(out, 70), 2 * x + y, 70)


# --- division ----------------------------------------------------------------------

def test_divide_simple_and_deep():
    q = gray_ops.divide(gray(QUARTER), gray(HALF))
    assert within(gray_ops.decode(q, 8), HALF, 8)
    assert within(gray_ops.decode(q, 200), HALF, 200)


def test_divide_benchmark_pair_19_constructors():
    x, y = Fraction(1001, 3001), Fraction(10001, 20001)
    q = gray_ops.divide(gray(x), gray(y))
    assert within(gray_ops.decode(q, 19), x / y, 19)


def test_divide_oracle_random():
    rng = random.Random(127)
    for _ in range(25):
        x, y = division_pair(rng)
        q = gray_ops.divide(gray(x), gray(y))
        assert within(gray_ops.decode(q, 100), x / y, 100)


def test_divide_agrees_with_sd_division():
    rng = random.Random(131)
    for _ in range(15):
        x, y = division_pair(rng)
        u, v = sd_ops.encode(x), sd_ops.encode(y)
        via_gray = gray_ops.to_sd(gray_ops.divide(gray_ops.from_sd(u), gray_ops.from_sd(v)))
        lhs = sd_ops.decode(via_gray, 60)
        rhs = sd_ops.decode(sd_ops.divide(u, v), 60)
        assert abs(lhs - rhs) <= 2 * Fraction(1, 1 << 60)


# --- conversions ---------------------------------------------------------------------

def test_from_sd_zero_code():
    assert take_gray_prefix(gray_ops.from_sd(sd([])), 4) == [
        ("g", None), ("h", None), ("h", None), ("h", None)]


def test_from_sd_one_decodes_to_one():
    assert within(gray_ops.decode(gray_ops.from_sd(sd_ops.one()), 60), Fraction(1), 60)


def test_conversion_roundtrip_bound():
    rng = random.Random(137)
    for _ in range(30):
        a = unit_fraction(rng)
        u = sd_ops.encode(a)
        round_tripped = gray_ops.to_sd(gray_ops.from_sd(u))
        for n in (5, 40):
            gap = abs(sd_ops.decode(round_tripped, n) - sd_ops.decode(u, n))
            assert gap <= Fraction(2, 1 << n)


def test_conversions_are_mutually_inverse_exactly():
    rng = random.Random(149)
    for _ in range(300):
        u = random_sd(rng, 10)
        assert take_prefix(gray_ops.to_sd(gray_ops.from_sd(u)), SYMBOLS) == take_prefix(u, SYMBOLS)
        # a mode-G code from any symbols: signs, delays, then one repeated
        symbols = [rng.choice((-1, None, 1)) for _ in range(rng.randint(0, 10))]
        g = stream_from_digits(itertools.chain(symbols, itertools.repeat(rng.choice((-1, None, 1)))), GrayG)
        back = gray_ops.from_sd(gray_ops.to_sd(g))
        assert take_gray_prefix(back, SYMBOLS) == take_gray_prefix(g, SYMBOLS)


# gray_ops op -> the same op built from the direct Gray equations
REFERENCE_OPS_G = {
    "negate": (gray_ops.negate, reference_gray_negate),
    "shift+1": (lambda x: gray_ops.shift(x, 1), lambda x: reference_gray_shift(x, 1)),
    "shift-1": (lambda x: gray_ops.shift(x, -1), lambda x: reference_gray_shift(x, -1)),
    "add_one": (gray_ops.add_one, lambda x: reference_gray_shift(x, 1)),
    "sub_one": (gray_ops.sub_one, lambda x: reference_gray_shift(reference_gray_negate(x), -1)),
    "half": (gray_ops.half, lambda x: GrayG.cons(None, reference_gray_switch_mode(x, GrayH))),
    "double": (gray_ops.double, reference_gray_double),
    "to_h": (gray_ops.to_h, lambda x: reference_gray_switch_mode(x, GrayH)),
}
REFERENCE_OPS_H = {name: REFERENCE_OPS_G[name] for name in ("negate", "shift+1", "shift-1")}
REFERENCE_OPS_H["to_g"] = (gray_ops.to_g, lambda x: reference_gray_switch_mode(x, GrayG))


def test_gray_ops_are_sd_ops_conjugated_by_the_conversions_exactly():
    # to_sd(op(from_sd(u))) is op(u) symbol for symbol, on streams the
    # encoder never writes and outside the op's precondition too; the Gray
    # division relies on it for every layer.  Each Gray op also matches the
    # direct Gray equations node class, symbol and input forced count, after
    # every symbol, on mode-G and mode-H codes.
    rng = random.Random(151)
    for _ in range(300):
        u, v = random_sd(rng, 10), random_sd(rng, 10)
        g, h = gray_ops.from_sd(u), gray_ops.from_sd(v)
        pairs = [(sd_ops.average(u, v), gray_ops.average(g, h)), (u, gray_ops.to_h(g))]
        pairs += [(getattr(sd_ops, name)(u), getattr(gray_ops, name)(g))
                  for name in ("negate", "half", "double")]
        for sd_out, gray_out in pairs:
            assert take_prefix(gray_ops.to_sd(gray_out), SYMBOLS) == take_prefix(sd_out, SYMBOLS)
        mode_h = reference_gray_switch_mode(gray_ops.from_sd(v), GrayH)
        for x, ops in ((g, REFERENCE_OPS_G), (mode_h, REFERENCE_OPS_H)):
            for name, (op, reference) in ops.items():
                assert walk(op, (x,), SYMBOLS) == walk(reference, (x,), SYMBOLS), name


def test_to_sd_of_an_unforced_built_code_is_its_source():
    rng = random.Random(157)
    for _ in range(50):
        u = random_sd(rng, 10)
        g = gray_ops.from_sd(u)
        assert type(g) is GrayG
        assert gray_ops.to_sd(g) is u
        h = gray_ops.negate(gray_ops.to_h(g))
        assert type(h) is GrayH
        assert gray_ops.to_sd(h) is gray_ops.to_sd(h)


def test_to_sd_of_a_forced_code_runs_the_automaton():
    # the same symbols through the automaton, from either mode
    rng = random.Random(163)
    for _ in range(100):
        u = random_sd(rng, 10)
        for x, expected in ((gray_ops.from_sd(u), u),
                            (gray_ops.negate(gray_ops.to_h(gray_ops.from_sd(u))), sd_ops.negate(u))):
            x.force()
            back = gray_ops.to_sd(x)
            assert back is not u
            assert take_prefix(back, SYMBOLS) == take_prefix(expected, SYMBOLS)


def test_a_counted_code_is_not_a_view():
    counted, counter = with_force_count(gray_ops.encode(Fraction(5, 8)))
    take_prefix(gray_ops.to_sd(counted), 7)
    assert counter.count == 7


def test_deep_gray_average_chain():
    # one automaton layer per level, as in the signed-digit chain
    x = gray(Fraction(1, 3))
    for _ in range(200):
        x = gray_ops.average(x, gray(Fraction(-1, 5)))
    assert len(take_gray_prefix(x, 3)) == 3


def test_cross_coding_commutation():
    rng = random.Random(139)
    bound = lambda n: Fraction(2, 1 << n)
    for _ in range(15):
        a, b = unit_fraction(rng), unit_fraction(rng)
        ua, ub = sd_ops.encode(a), sd_ops.encode(b)
        ga, gb = gray_ops.from_sd(ua), gray_ops.from_sd(ub)
        n = 60
        pairs = [
            (sd_ops.negate(ua), gray_ops.negate(ga)),
            (sd_ops.average(ua, ub), gray_ops.average(ga, gb)),
        ]
        if abs(a) <= HALF:
            pairs.append((sd_ops.double(ua), gray_ops.double(ga)))
        for sd_out, gray_out in pairs:
            gap = abs(sd_ops.decode(sd_out, n) - sd_ops.decode(gray_ops.to_sd(gray_out), n))
            assert gap <= bound(n)


def test_adjacent_dyadics_differ_in_one_sign():
    seven = take_gray_prefix(gray(Fraction(7, 16)), 4)
    nine = take_gray_prefix(gray(Fraction(9, 16)), 4)
    assert seven == [("g", 1), ("g", None), ("h", 1), ("g", -1)]
    assert nine == [("g", 1), ("g", None), ("h", -1), ("g", -1)]
    diffs = [i for i, (s, n) in enumerate(zip(seven, nine)) if s != n]
    assert len(diffs) == 1
    i = diffs[0]
    assert seven[i][0] == nine[i][0] and seven[i][1] == -nine[i][1]
