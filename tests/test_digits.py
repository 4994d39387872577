from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamreal.digits import format_rational, parse_rational

fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
nonzero_fractions = fractions.filter(lambda f: f != 0)


@given(fractions, fractions)
def test_exact_add_sub(a, b):
    assert (a + b) - b == a


@given(fractions, nonzero_fractions)
def test_exact_mul_div(a, b):
    assert (a * b) / b == a


def test_parse_rational_forms():
    assert parse_rational("1001/3001") == Fraction(1001, 3001)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("−3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7, 1)
    assert parse_rational(" 2/4 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "abc", "1/", "/2", "1/0", "1/-2", "1.5", "1/2/3",
                                 "1/²", "1/٣", "1_0/30", "1 /2", "1 / 2",
                                 pytest.param("1" * 5000 + "/3", id="5000-digit-numerator"),
                                 pytest.param("1/" + "3" * 5000, id="5000-digit-denominator")])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("text", ["1/0", "-3/0"])
def test_parse_rational_zero_denominator_message(text):
    with pytest.raises(ValueError, match="^zero-denominator$"):
        parse_rational(text)


@given(fractions)
def test_format_parse_roundtrip(a):
    assert parse_rational(format_rational(a)) == a
