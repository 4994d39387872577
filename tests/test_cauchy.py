from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamreal import cauchy, sd_ops
from streamreal.kernel import SdStream
from tests.support import cauchy_absolute, cauchy_sub, unit_fraction, within


def test_creal_is_an_immutable_pair_of_its_two_functions():
    def f(n):
        return Fraction(n, n + 1)

    def g(p):
        return p + 1

    real = cauchy.CReal(approx=f, modulus=g)
    assert real == cauchy.CReal(f, g)
    assert hash(real) == hash(cauchy.CReal(f, g))
    assert real.approx is f and real.modulus is g
    for field in ("approx", "modulus"):
        with pytest.raises(AttributeError):
            setattr(real, field, None)
    assert real.approx is f and real.modulus is g


def test_from_rational_constant():
    x = cauchy.from_rational(Fraction(1, 2))
    assert all(x.approx(n) == Fraction(1, 2) for n in (0, 3, 17))
    assert x.modulus(5) == 0
    zero = cauchy.from_rational(Fraction(0))
    assert zero.approx(9) == 0


def test_from_stream_approximants():
    ones = cauchy.from_stream(SdStream.constant(1))
    for n in (1, 4, 12):
        assert ones.approx(n) == 1 - Fraction(1, 1 << n)
    third = cauchy.from_stream(sd_ops.encode(Fraction(1, 3)))
    for n in (2, 20, 60):
        assert within(third.approx(n), Fraction(1, 3), n)
    zero = cauchy.from_stream(sd_ops.encode(Fraction(0)))
    assert zero.approx(25) == 0


def test_add_of_constants_is_exact_everywhere():
    s = cauchy.add(cauchy.from_rational(Fraction(1, 3)), cauchy.from_rational(Fraction(1, 6)))
    for n in (0, 5, 30):
        assert s.approx(n) == Fraction(1, 2)
    assert s.modulus(8) == 0


def test_abs_and_neg_pointwise():
    x = cauchy.from_stream(sd_ops.encode(Fraction(-2, 3)))
    for n in (1, 6, 20):
        assert cauchy_absolute(x).approx(n) == abs(x.approx(n))
        assert cauchy.neg(x).approx(n) == -x.approx(n)
    assert cauchy.neg(x).modulus(7) == x.modulus(7)


def test_mul_of_stream_backed_halves():
    x = cauchy.from_stream(sd_ops.encode(Fraction(1, 2)))
    y = cauchy.from_stream(sd_ops.encode(Fraction(1, 2)))
    prod = cauchy.mul(x, y)
    for p in (1, 5, 20):
        n = prod.modulus(p)
        assert abs(prod.approx(n) - Fraction(1, 4)) <= Fraction(1, 1 << p)


def _sample_reals(rng):
    a, b = unit_fraction(rng), unit_fraction(rng)
    x = cauchy.from_stream(sd_ops.encode(a))
    y = cauchy.from_rational(b)
    return [x, y, cauchy.add(x, y), cauchy_sub(x, y), cauchy.mul(x, y), cauchy_absolute(x)]


def test_cauchy_invariant_sampled():
    rng = random.Random(149)
    for real in _sample_reals(rng):
        for _ in range(20):
            p = rng.randint(1, 16)
            base = real.modulus(p)
            n = base + rng.randint(0, 20)
            m = base + rng.randint(0, 20)
            assert abs(real.approx(n) - real.approx(m)) <= Fraction(1, 1 << p)


def test_leq_up_to_examples():
    zero = cauchy.from_rational(Fraction(0))
    half = cauchy.from_rational(Fraction(1, 2))
    for p in (1, 4, 10):
        assert cauchy.leq_up_to(zero, half, p)
    assert not cauchy.leq_up_to(half, zero, 4)
    x = cauchy.from_stream(sd_ops.encode(Fraction(3, 7)))
    for p in (1, 6, 12):
        assert cauchy.leq_up_to(x, x, p)
    with pytest.raises(ValueError):
        cauchy.leq_up_to(zero, half, 0)


def test_leq_up_to_agrees_with_rational_order_beyond_gap():
    rng = random.Random(151)
    checked = 0
    while checked < 60:
        a, b = unit_fraction(rng), unit_fraction(rng)
        p = rng.randint(2, 12)
        if abs(a - b) <= Fraction(2, 1 << p):
            continue
        checked += 1
        x = cauchy.from_stream(sd_ops.encode(a))
        y = cauchy.from_stream(sd_ops.encode(b))
        assert cauchy.leq_up_to(x, y, p) == (a <= b)
