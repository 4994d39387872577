"""Exact rational plumbing for the command line.

In the package only :mod:`streamreal.cli` imports this module: it parses
the operands and ``--digits`` counts and writes the ``--stats`` values;
outside it, perfbench's ``micro.py`` times :func:`parse_rational`.

Rationals are stdlib :class:`fractions.Fraction` values, which already keep
the canonical form we rely on (positive denominator, reduced by gcd,
arbitrary-precision integers), and their parts are written in decimal by
stdlib :class:`decimal.Decimal`, which :mod:`fractions` already loads.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``P/Q`` or a bare integer ``P`` into a fraction.

    Both parts are ASCII decimal literals and the denominator must be
    positive; the optional sign (``+``, ASCII ``-`` or unicode minus)
    belongs to the numerator.
    """
    s = text.strip().replace("−", "-")
    num_text, slash, den_text = s.partition("/")
    num_digits = num_text[1:] if num_text[:1] in ("+", "-") else num_text
    try:
        if not _is_decimal(num_digits) or slash and not _is_decimal(den_text):
            raise ValueError
        numerator = int(num_text)  # also raises past int's digit limit
        denominator = int(den_text) if slash else 1
    except ValueError:
        raise ValueError(f"cannot parse rational: {text!r}") from None
    if denominator == 0:
        raise ValueError("zero-denominator")
    return Fraction(numerator, denominator)


def _is_decimal(text: str) -> bool:
    """Non-empty ASCII digits; ``int`` and ``str.isdigit`` also take other
    scripts' digits, superscripts and underscores."""
    return text.isascii() and text.isdigit()


def format_rational(a: Fraction) -> str:
    """Render as ``P/Q`` (denominator always shown, ASCII minus), at any
    size: :class:`decimal.Decimal` converts an int exactly and writes it
    with no digit limit, so the interpreter's limit on converting an int
    to ``str`` (``sys.get_int_max_str_digits()``) is neither met nor
    changed."""
    return f"{Decimal(a.numerator)}/{Decimal(a.denominator)}"
