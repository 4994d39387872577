"""Gray-code (binary reflected) stream arithmetic on reals in [-1, 1].

The operation set mirrors :mod:`streamreal.sd_ops`; conversions between the
two codings are denotation-preserving automata, mutually inverse symbol for
symbol, and the average and the division are routed through the
signed-digit ones.  Sign-node semantics: a mode-G node ``(s, g)`` denotes
``-s*(x_g - 1)/2`` (the reflected branch), a mode-H node ``(s, g)``
denotes ``s*(x_g + 1)/2``, and both delay constructors halve.  The mode of
a node is its class; :func:`negate` and :func:`shift` work in either mode
and keep it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import sd_ops
from .kernel import GrayG, GrayH, GrayNode, SdStream, gray_from_signs, stream_from_digits

_MINUS_ONE = GrayG.constant(-1)
_ONE = GrayG.sign_node(1, _MINUS_ONE)


def one() -> GrayG:
    """The Gray code of the constant 1."""
    return _ONE


def encode(a: Fraction) -> GrayG:
    """Canonical Gray code of a rational in [-1, 1] (via the digit encoder)."""
    return from_sd(sd_ops.encode(a))


def decode(node: GrayNode, n: int) -> Fraction:
    """Midpoint after n constructors; within 2**-n of the denoted value.

    Walking n constructors composes n affine maps of slope +-1/2, confining
    the value to an interval of width 2**(1-n); the midpoint is returned
    exactly.
    """
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    a, b = 1, 0
    cur = node
    for _ in range(n):
        cur = cur.force()
        s = cur.head
        if s is None:
            b = 2 * b
        elif cur.is_g:
            b = a * s + 2 * b
            a = -a * s
        else:
            b = a * s + 2 * b
            a = a * s
        cur = cur.tail
    return Fraction(b, 1 << n)


def negate(node: GrayNode) -> GrayNode:
    """Denotes ``-x`` in the mode of ``node``: flip the sign node's sign,
    recurse through delays.

    The continuation under a sign node is untouched -- both branch maps are
    reflections of each other around 0, so only the choice of branch flips.
    """

    def thunk() -> tuple:
        c = node.force()
        if c.head is not None:
            return -c.head, c.tail
        return None, negate(c.tail)

    return type(node)(thunk)


def _switch_mode(node: GrayNode, cls: type) -> GrayNode:
    def thunk() -> tuple:
        c = node.force()
        if c.head is not None:
            return c.head, negate(c.tail)
        return None, c.tail

    return cls(thunk)


def to_h(g: GrayG) -> GrayH:
    """Rewrite a mode-G code as a mode-H code of the same value.

    Single-constructor rewrite, no corecursion: a sign node keeps its sign
    and negates its continuation, a delay node switches delay flavour.
    """
    return _switch_mode(g, GrayH)


def to_g(h: GrayH) -> GrayG:
    """Inverse rewrite of :func:`to_h` (the same equations)."""
    return _switch_mode(h, GrayG)


def shift(node: GrayNode, direction: int) -> GrayNode:
    """For ``x <= 0``: code of ``x + 1`` (direction +1) or ``-(x + 1)`` (-1),
    in the mode of ``node``.

    Equations: a leading +1 sign forces ``x = 0`` and yields ``direction``
    over the constant code that makes a sign node of this mode denote
    ``direction`` (-1 in mode G, +1 in mode H); a leading -1 sign yields
    ``(direction, negate(rest))``; a delay node re-enters through the shift
    of the mode-G rewrite of its continuation, with direction -1 in mode G
    and +1 in mode H.
    """
    end = -1 if node.is_g else 1

    def thunk() -> tuple:
        c = node.force()
        s = c.head
        if s == 1:
            return direction, _MINUS_ONE if end == -1 else _ONE
        if s == -1:
            return direction, negate(c.tail)
        return direction, shift(to_g(c.tail), end)

    return type(node)(thunk)


def add_one(g: GrayG) -> GrayG:
    """Denotes ``x + 1`` for ``x <= 0``."""
    return shift(g, 1)


def sub_one(g: GrayG) -> GrayG:
    """Denotes ``x - 1`` for ``x >= 0``."""
    return shift(negate(g), -1)


def half(g: GrayG) -> GrayG:
    """Denotes ``x/2``: one delay constructor over the mode-H rewrite."""
    return GrayG.cons(None, to_h(g))


def double(g: GrayG) -> GrayG:
    """Denotes ``2x`` for ``|x| <= 1/2``.

    A sign node hands its negated continuation to :func:`shift` (the range
    bound puts that continuation below 0); a delay node unwraps to mode G.
    """

    def select() -> GrayG:
        c = g.force()
        s = c.head
        if s is None:
            return to_g(c.tail)
        return shift(negate(c.tail), s)

    return GrayG.defer(select)


def average(a: GrayG, b: GrayG) -> GrayG:
    """Denotes ``(x + y)/2``, routed through the signed-digit automaton."""
    return from_sd(sd_ops.average(to_sd(a), to_sd(b)))


def twice_minus(a: GrayG, b: GrayG) -> GrayG:
    """Denotes ``2x - y`` under ``1/4 <= y``, ``0 <= x <= y``."""
    return double(double(average(a, half(negate(b)))))


def twice_plus(a: GrayG, b: GrayG) -> GrayG:
    """Denotes ``2x + y`` under ``1/4 <= y``, ``-y <= x <= 0``."""
    return double(double(average(a, half(b))))


def divide(x: GrayG, y: GrayG) -> GrayG:
    """Denotes ``x/y`` under ``1/4 <= y`` and ``|x| <= y``.

    This is the signed-digit division read through the conversions:
    ``from_sd(sd_ops.divide(to_sd(x), to_sd(y)))``.  The identity is exact,
    symbol for symbol and mode for mode, not only in value: :func:`from_sd`
    and :func:`to_sd` are mutually inverse automata, and each Gray layer
    operation of the division (:func:`negate`, :func:`half`,
    :func:`double`, :func:`average`) is its signed-digit counterpart
    conjugated by them.  So the Gray tower of numerator layers is the
    signed-digit tower conjugated by the conversions, and running the flat
    signed-digit tower between one conversion per input symbol read and one
    per output symbol emits the same constructors and reads ``x`` and ``y``
    exactly as far.
    """
    return from_sd(sd_ops.divide(to_sd(x), to_sd(y)))


def from_sd(u: SdStream) -> GrayG:
    """Denotation-preserving conversion from a signed-digit stream.

    Two-mode automaton with a pending-negation flag standing in for the
    digitwise negation of the remaining stream: in mode G an effective +1
    branches and flips the flag, -1 branches plainly, 0 delays into mode H;
    in mode H the roles of +1 and -1 swap and delays stay in mode H.
    """
    return gray_from_signs(_from_sd(u))


def _from_sd(u: SdStream) -> Iterator:
    flag = 1
    in_g = True
    while True:
        u = u.force()
        d = u.head
        if d == 0:
            yield None
            in_g = False
        else:
            fd = flag * d
            if fd == (1 if in_g else -1):
                flag = -flag
            in_g = True
            yield fd
        u = u.tail


def to_sd(node: GrayNode) -> SdStream:
    """Inverse automaton of :func:`from_sd` (works from either mode)."""
    return stream_from_digits(_to_sd(node))


def _to_sd(node: GrayNode) -> Iterator[int]:
    flag = 1
    while True:
        node = node.force()
        s = node.head
        if s is None:
            yield 0
        else:
            fs = flag * s
            flag = -fs if node.is_g else fs
            yield fs
        node = node.tail
