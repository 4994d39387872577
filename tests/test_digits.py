from __future__ import annotations

import decimal
import sys
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


def _str_without_limit(n: int) -> str:
    """``str(n)`` with the interpreter's int-to-str digit limit lifted for
    the call and restored after it; before Python 3.10.7 there is none."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return str(n)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return str(n)
    finally:
        set_limit(limit)


@pytest.mark.parametrize("a", [
    pytest.param(Fraction(10**600, 3), id="10**600"),
    pytest.param(Fraction(-(10**600) - 1, 7), id="-(10**600+1)"),
    pytest.param(Fraction(-1, 10**1200 + 1), id="10**1200+1"),
    pytest.param(Fraction(10**4299 + 1, 2), id="4300-digits"),
    pytest.param(Fraction(-3, 10**4299 + 1), id="-3-over-4300-digits"),
    pytest.param(Fraction(7, 10**4300), id="4301-digits"),
    pytest.param(Fraction(-(10**4300), 10**4300 + 1), id="-10**4300"),
])
def test_format_rational_writes_every_digit_past_the_int_to_str_limit(a):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    expected = f"{_str_without_limit(a.numerator)}/{_str_without_limit(a.denominator)}"
    assert format_rational(a) == expected
    with decimal.localcontext() as context:
        context.prec = 3  # an int converts exactly under any precision
        assert format_rational(a) == expected
    assert get_limit() == limit
