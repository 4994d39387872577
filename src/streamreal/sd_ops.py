"""Signed-digit stream arithmetic on reals in [-1, 1].

Every operation is a pure, productive stream transformer.  Semantic
preconditions (for example ``x <= 0`` for :func:`add_one`) are not runtime
checked -- they are undecidable on streams -- so the denotational guarantees
hold only when the caller satisfies them; the defining digit equations are
total regardless.  The CLI validates preconditions on exact rationals before
any stream is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterator

from .kernel import SdStream, stream_from_digits, take_prefix


def encode(a: Fraction) -> SdStream:
    """Canonical signed-digit stream of a rational ``a`` in [-1, 1].

    Emits +1 when the remainder is >= 1/4, -1 when it is <= -1/4 and the
    delay digit 0 otherwise, then recurses on ``2a - d``; the remainder stays
    in [-1, 1], so ``|decode(encode(a), n) - a| <= 2**-n`` for every n.
    The head keeps ``a`` until it is forced, so
    :func:`streamreal.kernel.with_force_count` counts a fresh encode by
    running the same encoder on ``a`` again with the counter.
    """
    if not -1 <= a <= 1:
        raise ValueError("not-in-unit-interval")
    return stream_from_digits(_Encoder(a.numerator, a.denominator))


class _Encoder:
    """Pull of a fresh encode's head cell: an iterator keeping ``num/den``.
    Its first ``next`` starts the one encoder, :func:`_encode`, with no
    counter and carries its first cell, so the tail cells pull from the
    generator, not from here.
    It builds that stream itself rather than through :meth:`recount`, whose
    frame would cost a ``double∘half`` chain a level of depth."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        self.num = num
        self.den = den

    def __next__(self):
        raise StopIteration(stream_from_digits(_encode(self.num, self.den, None)))

    def recount(self, counter) -> SdStream:
        """A fresh encode of the same rational that ticks ``counter`` once
        per digit it emits: how :func:`streamreal.kernel.with_force_count`
        counts an unforced encode."""
        return stream_from_digits(_encode(self.num, self.den, counter))


def _encode(num: int, den: int, counter) -> Iterator[int]:
    """Digits of ``num/den``, with one tick of ``counter.count`` per digit
    unless ``counter`` is ``None``."""
    low = -den // 4  # 4 * num <= -den iff num <= low
    high = -low  # 4 * num >= den iff num >= high
    while True:
        if counter is not None:
            counter.count += 1
        if num >= high:
            yield 1
            num = 2 * num - den
        elif num <= low:
            yield -1
            num = 2 * num + den
        else:
            yield 0
            num = 2 * num


def decode(u: SdStream, n: int) -> Fraction:
    """Partial sum ``sum(d_k * 2**-k, k=1..n)``; within 2**-n of the value."""
    acc = 0
    for d in take_prefix(u, n):
        acc = 2 * acc + d
    return Fraction(acc, 1 << n)


def negate(u: SdStream) -> SdStream:
    """Digitwise negation; denotes ``-x``."""
    return stream_from_digits(_negate(u))


def _negate(u: SdStream) -> Iterator[int]:
    while True:
        u = u._force()
        yield -u.head
        u = u.tail


def half(u: SdStream) -> SdStream:
    """Prepend the delay digit; denotes ``x/2``."""
    return SdStream.cons(0, u)


def add_one(u: SdStream) -> SdStream:
    """Denotes ``x + 1`` for ``x <= 0``.

    Digit equations: ``add_one(+1::u) = 1``, the constant stream of +1,
    ``add_one(0::u) = +1::add_one(u)``, ``add_one(-1::u) = +1::u``.  The
    first and the last splice: the result shares the constant stream or
    ``u``.
    """
    return stream_from_digits(_double(u, ("add", 1)))


def sub_one(u: SdStream) -> SdStream:
    """Denotes ``x - 1`` for ``x >= 0`` (mirror equations of add_one)."""
    return stream_from_digits(_double(u, ("add", -1)))


def double(u: SdStream) -> SdStream:
    """Denotes ``2x`` for ``|x| <= 1/2``.

    Dispatches on the first digit: ``double(+1::u) = add_one(u)``,
    ``double(0::u) = u``, ``double(-1::u) = sub_one(u)``.  The second
    splices onto ``u`` before forcing it.
    """
    return stream_from_digits(_double(u, "dispatch"))


def _double(u: SdStream, state: Any) -> Iterator[int]:
    """Digits of a double (from state ``"dispatch"``) or of ``x + e`` (from
    ``("add", e)``) by :func:`_double_step`, splicing onto the input or the
    constant when the automaton does."""
    while True:
        u = u._force()
        state, d = _double_step(state, u.head)
        u = u.tail
        if type(state) is not tuple:  # "copy": the rest is the input
            return u if d is None else SdStream.cons(d, u)
        if state[0] == "const":
            return SdStream.constant(d)
        if d is not None:
            yield d


def average(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``(x + y)/2``; needs n+1 digits of each input for n digits.

    Carry automaton: after reading the leading digits the carry is their sum
    ``i in [-2, 2]``; each step reads one more digit from both inputs, forms
    ``k = 2i + a' + b' in [-6, 6]``, emits +1 / -1 / 0 as k >= 2 / k <= -2 /
    else, and keeps carry ``k - 4d``.  The pending value is always
    ``(i + x' + y')/4``, which stays in [-1, 1].  This is
    :func:`_average_step`.  It runs as the average phase of :func:`_layer`,
    a layer of kind -1 whose doubles copy: after the first digit pair each
    digit is one lookup in ``_CARRY_STEPS``, the 13-entry table of the step
    indexed by ``k``.
    """
    return stream_from_digits(_layer(u, v, (-1, None, "copy", "copy")))


def twice_minus(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``2x - y`` under ``1/4 <= y``, ``0 <= x <= y``.

    The stream ``double(double(average(u, half(negate(v)))))``: the average
    argument is ``(2x - y)/4``, which has magnitude <= 1/4, so both
    doublings stay in range.  It runs as :func:`_layer` from the start
    state of the numerator layer of kind +1, whose automaton
    :func:`_layer_step` the division's tower tabulates.
    """
    return stream_from_digits(_layer(u, half(v), _LAYER_STARTS[1]))


def twice_plus(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``2x + y`` under ``1/4 <= y``, ``-y <= x <= 0``: the stream
    ``double(double(average(u, half(v))))``, run as the layer of kind -1."""
    return stream_from_digits(_layer(u, half(v), _LAYER_STARTS[-1]))


def _layer(u: SdStream, w: SdStream, state: tuple) -> Iterator[int]:
    """Digits of the numerator layer from ``state`` over ``u`` and its y/2
    ``w`` by :func:`_layer_step`, read and spliced onto a constant as the
    stream ``double(double(average(u, -+w)))`` does.  Once the average has
    its carry and both doubles copy, the layer is its average, and each
    digit pair steps the carry by one lookup in ``_CARRY_STEPS``."""
    while state[1] is None or not state[2] == state[3] == "copy":
        u = u._force()
        w = w._force()
        state, x = _layer_step(state, u.head, w.head)
        u = u.tail
        w = w.tail
        if x is None:
            if not _is_const(state[2]):
                continue
            # The inner double turned constant on the digit the outer one
            # dispatched on; its next digit reaches the outer double without
            # reading any input and makes that constant too.
            state, x = _layer_step(state, 0, 0)
        if _is_const(state[3]):
            return SdStream.constant(x)
        yield x
    base = 2 * state[1] + 6
    sign = -state[0]
    while True:
        u = u._force()
        w = w._force()
        base, x = _CARRY_STEPS[base + u.head + sign * w.head]
        u = u.tail
        w = w.tail
        yield x


# The one-digit step functions of the automata above and of the numerator
# layer built from them, with the layer's start states and y/2 reads: the
# only copy, which the generators above run and the division's tower
# (:mod:`streamreal.sd_tower`) tabulates over opaque states.

def _average_step(carry: int | None, a: int, b: int) -> tuple[int, int | None]:
    """One digit pair through the carry automaton of :func:`average`."""
    if carry is None:
        return a + b, None
    k = 2 * carry + a + b
    d = 1 if k >= 2 else -1 if k <= -2 else 0
    return k - 4 * d, d


# The carry automaton of _average_step as a table, built from it on every
# carry in [-2, 2] and digit pair: entry k + 6, for k = 2*carry + a + b in
# [-6, 6], holds the next carry as the base 2*carry + 6 of the next index,
# and the digit emitted.
_CARRY_STEPS = tuple(
    (2 * carry + 6, d)
    for _, (carry, d) in sorted({2 * c + a + b: _average_step(c, a, b)
                                 for c in range(-2, 3) for a in (-1, 0, 1) for b in (-1, 0, 1)}.items()))


def _double_step(state: Any, d: int) -> tuple[Any, int | None]:
    """One input digit through the double automaton of :func:`_double`.

    States: ``"dispatch"`` before the first digit, ``"copy"`` after
    ``double(0::u) = u`` or a splice onto the input, ``("add", e)`` while
    shifting by ``e`` and ``("const", e)`` once spliced onto the constant
    stream of ``e``, which reads no more input.
    """
    if type(state) is tuple:  # ("add", e): a constant is not stepped
        e = state[1]
        if d == -e:
            return "copy", e
        if d == e:
            return ("const", e), e
        return state, e
    if state == "dispatch":
        return ("copy" if d == 0 else ("add", d)), None
    return state, d


def _is_const(state: Any) -> bool:
    return type(state) is tuple and state[0] == "const"


def _layer_step(state: tuple, a: int, h: int) -> tuple[tuple, int | None]:
    """One step of a numerator layer ``(kind, s0, s1, s2)``: it reads digit
    ``a`` of the layer below and digit ``h`` of y/2 unless its automata have
    spliced onto a constant.  Returns the next state and the digit the layer
    emits, if any.

    ``kind`` is +1 for ``2x - y``, -1 for ``2x + y`` and 0 for ``2x``.  For
    ``kind != 0`` the stages are the average's carry (``None`` before the
    first pair) and the inner and outer double; for ``kind == 0`` they are
    two one-digit holds and the double, so that every layer emits digit i
    after reading digit i + 3 below.  A layer of each kind starts from
    ``_LAYER_STARTS[kind]``.
    """
    kind, s0, s1, s2 = state
    x: int | None
    if _is_const(s2):
        return state, s2[1]
    if kind and _is_const(s1):
        x = s1[1]
    elif kind:
        s0, x = _average_step(s0, a, -kind * h)
        if x is not None:
            s1, x = _double_step(s1, x)
    else:  # each hold keeps its digit and releases the last one
        s0, x = a, s0
        if x is not None:
            s1, x = x, s1
    if x is not None:
        s2, x = _double_step(s2, x)
    return (kind, s0, s1, s2), x


# indexed by kind: 0, 1, -1
_LAYER_STARTS = ((0, None, None, "dispatch"), (1, None, "dispatch", "dispatch"),
                 (-1, None, "dispatch", "dispatch"))


def _reads_y(state: tuple) -> int:
    """How the layer ``state`` reads y/2: 0 not at all (kind 0, or spliced
    onto a constant), 1 digit by digit while an ``("add", e)`` double may
    still splice, 2 every digit (both doubles copy, so the layer is a plain
    average from then on)."""
    kind, _, s1, s2 = state
    return 0 if not kind or _is_const(s1) or _is_const(s2) else 2 if s1 == s2 == "copy" else 1


def divide(u: SdStream, v: SdStream) -> SdStream:
    """Denotes ``x/y`` under ``1/4 <= y`` and ``|x| <= y``.

    Each output digit inspects up to three digits of the current numerator:
    leading ``1``, ``01`` or ``001`` emit +1 and continue on ``2x - y``;
    ``000`` emits the delay digit and continues on ``2x``; the mirrored
    patterns emit -1 and continue on ``2x + y``.  Producing n digits reads
    at most ``3n`` digits of ``u`` and ``3n - 1`` digits of ``v``.

    Numerator layer j + 1 is ``double(double(average(x_j, -+y/2)))`` or
    ``double(x_j)`` of layer j, the streams :func:`twice_minus`,
    :func:`twice_plus` and :func:`double` build, but no layer is a stream:
    each is one interned state of :func:`_layer_step`, the automaton that
    runs :func:`twice_minus` and :func:`twice_plus`, held as the row of its
    memoized transitions.  The tower keeps the states opaque: their start
    states and y/2 reads are defined here, by the step.
    Every output digit reads three digits of ``u`` and passes them up the
    tower as one 3-digit code, one lookup in each layer's row, and takes its
    digit from the top layer's code.  Layer j reads ``y/2`` at a position
    fixed by j and the step until its automata splice onto a constant, and
    a digit of ``v`` is forced when the first layer reads it, so both inputs
    are forced exactly as far as a tower of memoized streams would force
    them.
    """
    from .sd_tower import quotient_digits  # loaded by the first division, not the package

    return stream_from_digits(quotient_digits(u, v))
