"""Exact rational plumbing shared by the other modules.

Rationals are stdlib :class:`fractions.Fraction` values, which already keep
the canonical form we rely on (positive denominator, reduced by gcd,
arbitrary-precision integers).
"""

from __future__ import annotations

from fractions import Fraction

# Accept the unicode minus sign on input; we always print the ASCII one.
_MINUS_SIGNS = "−-"


def make_fraction(numerator: int, denominator: int) -> Fraction:
    """Canonical reduced fraction with positive denominator.

    Raises ``ValueError("zero-denominator")`` when ``denominator`` is 0.
    """
    if denominator == 0:
        raise ValueError("zero-denominator")
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse ``P/Q`` or a bare integer ``P`` into a fraction.

    The denominator must be a positive decimal literal; the optional sign
    (ASCII ``-`` or unicode minus) belongs to the numerator.
    """
    s = text.strip()
    for sign in _MINUS_SIGNS:
        s = s.replace(sign, "-")
    num_text, slash, den_text = s.partition("/")
    try:
        numerator = int(num_text)
    except ValueError:
        raise ValueError(f"cannot parse rational: {text!r}") from None
    if not slash:
        return Fraction(numerator)
    if not den_text.isdigit():
        raise ValueError(f"cannot parse rational: {text!r}")
    return make_fraction(numerator, int(den_text))


def format_rational(a: Fraction) -> str:
    """Render as ``P/Q`` (denominator always shown, ASCII minus)."""
    return f"{a.numerator}/{a.denominator}"
