"""Gray-code (binary reflected) stream arithmetic on reals in [-1, 1].

Sign-node semantics: a mode-G node ``(s, g)`` denotes ``-s*(x_g - 1)/2``
(the reflected branch), a mode-H node ``(s, g)`` denotes
``s*(x_g + 1)/2``, and both delay constructors halve.  The mode of a node
is its class.

The Gray coding is a view of the signed-digit coding.  :func:`from_sd` and
:func:`to_sd` are denotation-preserving automata, mutually inverse symbol
for symbol, and every Gray operation is its :mod:`streamreal.sd_ops`
counterpart between them, ``from_sd(sd_ops.op(to_sd(x), ...))``.  The
conjugation is exact: it emits the constructors, modes included, and reads
the inputs exactly as far as the direct Gray equations (Tsuiki 2002;
Berger, Miyamoto, Schwichtenberg and Tsuiki 2016) do.  :func:`negate` and
:func:`shift` work in either mode and keep it.  :func:`to_sd` of a code
that an operation built and nobody has forced yet is the signed-digit
stream the code was built from, so a chain of Gray operations runs as the
chain of signed-digit ones with one conversion at each end.  Only the
conversions, :func:`decode` and the :func:`to_h`/:func:`to_g` rewrite
read Gray nodes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import sd_ops
from .kernel import GrayG, GrayH, GrayNode, SdStream, stream_from_digits

_ONE = GrayG.cons(1, GrayG.constant(-1))


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
    """Denotes ``-x`` in the mode of ``node``: the signed-digit negation
    between the conversions, ``from_sd(sd_ops.negate(to_sd(x)))`` with the
    from-SD automaton started in that mode."""
    return _from_sd_in(type(node), sd_ops.negate(to_sd(node)))


def _switch_mode(node: GrayNode, cls: type) -> GrayNode:
    def pull():
        c = node.force()
        raise StopIteration(cls.cons(c.head, c.tail if c.head is None else negate(c.tail)))

    return cls(pull)


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
    in the mode of ``node``: the signed-digit ``add_one``, negated for
    direction -1, between the conversions."""
    u = sd_ops.add_one(to_sd(node))
    return _from_sd_in(type(node), u if direction == 1 else sd_ops.negate(u))


def add_one(g: GrayG) -> GrayG:
    """Denotes ``x + 1`` for ``x <= 0``: ``from_sd(sd_ops.add_one(to_sd(x)))``."""
    return from_sd(sd_ops.add_one(to_sd(g)))


def sub_one(g: GrayG) -> GrayG:
    """Denotes ``x - 1`` for ``x >= 0``: ``from_sd(sd_ops.sub_one(to_sd(x)))``."""
    return from_sd(sd_ops.sub_one(to_sd(g)))


def half(g: GrayG) -> GrayG:
    """Denotes ``x/2``: ``from_sd(sd_ops.half(to_sd(x)))``, one delay
    constructor over the mode-H code of ``x``."""
    return from_sd(sd_ops.half(to_sd(g)))


def double(g: GrayG) -> GrayG:
    """Denotes ``2x`` for ``|x| <= 1/2``: ``from_sd(sd_ops.double(to_sd(x)))``."""
    return from_sd(sd_ops.double(to_sd(g)))


def average(a: GrayG, b: GrayG) -> GrayG:
    """Denotes ``(x + y)/2``: ``from_sd(sd_ops.average(to_sd(x), to_sd(y)))``."""
    return from_sd(sd_ops.average(to_sd(a), to_sd(b)))


def twice_minus(a: GrayG, b: GrayG) -> GrayG:
    """Denotes ``2x - y`` under ``1/4 <= y``, ``0 <= x <= y``:
    ``from_sd(sd_ops.twice_minus(to_sd(x), to_sd(y)))``."""
    return from_sd(sd_ops.twice_minus(to_sd(a), to_sd(b)))


def twice_plus(a: GrayG, b: GrayG) -> GrayG:
    """Denotes ``2x + y`` under ``1/4 <= y``, ``-y <= x <= 0``:
    ``from_sd(sd_ops.twice_plus(to_sd(x), to_sd(y)))``."""
    return from_sd(sd_ops.twice_plus(to_sd(a), to_sd(b)))


def divide(x: GrayG, y: GrayG) -> GrayG:
    """Denotes ``x/y`` under ``1/4 <= y`` and ``|x| <= y``:
    ``from_sd(sd_ops.divide(to_sd(x), to_sd(y)))``, which emits the same
    constructors and reads ``x`` and ``y`` as far as a tower of Gray
    numerator layers would."""
    return from_sd(sd_ops.divide(to_sd(x), to_sd(y)))


def from_sd(u: SdStream) -> GrayG:
    """Denotation-preserving conversion from a signed-digit stream.

    Two-mode automaton with a pending-negation flag standing in for the
    digitwise negation of the remaining stream: in mode G an effective +1
    branches and flips the flag, -1 branches plainly, 0 delays into mode H;
    in mode H the roles of +1 and -1 swap and delays stay in mode H.
    :func:`to_sd` of the result, read before its head is forced, is ``u``.
    """
    return _from_sd_in(GrayG, u)


class _Source:
    """Pull of a code's head cell that keeps the signed-digit stream ``u``
    it reads, for :func:`to_sd` to hand back.  Forced, it starts the
    from-SD automaton in the mode ``cls`` and carries its first cell, so
    the tail cells pull from the automaton, not from here."""

    __slots__ = ("u", "cls")

    def __init__(self, u: SdStream, cls: type) -> None:
        self.u = u
        self.cls = cls

    def __call__(self):
        raise StopIteration(stream_from_digits(_from_sd(self.u, self.cls is GrayG), self.cls))


def _from_sd_in(cls: type, u: SdStream) -> GrayNode:
    """The from-SD automaton started in the mode of ``cls``, flag 1."""
    return cls(_Source(u, cls))


def _from_sd(u: SdStream, in_g: bool) -> Iterator:
    flag = 1
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
    """Inverse automaton of :func:`from_sd` (works from either mode).

    A code that :func:`from_sd` or a Gray op built, read before its head is
    forced, gives back the signed-digit stream it was built from.
    """
    pull = node._pull
    if type(pull) is _Source:
        return pull.u
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
