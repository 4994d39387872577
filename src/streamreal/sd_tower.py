"""The numerator tower of the signed-digit division as a flat state vector.

:func:`streamreal.sd_ops.divide` runs :func:`quotient_digits` and imports
this module on its first call.  Numerator layer j + 1 of the division is
``double(double(average(x_j, -+y/2)))`` or ``double(x_j)`` of layer j; here
each layer is one interned small-int state of the layer automaton
:func:`streamreal.sd_ops._layer_step`, the one that runs
``sd_ops.twice_minus`` and ``twice_plus``, whose transitions are memoized
in one table that fills on first use.

The layer loop keeps its values pre-scaled, so that one layer step is one
addition and one lookup: a layer is held as its row key ``729 * state``,
the code it passes up as ``27 * code``, and ``step3[row + 27 * code + h]``
holds the next row key and the scaled code the layer emits over the code
``h`` of y/2.  A new layer is the same lookup from the start row of its
kind, the row of its unprimed state.  How a state reads y/2 is
:func:`_reads_y`: a first layer whose two doubles both copy reads every
digit of y/2, so it reads its chunk whole; one that can still splice onto a
constant reads y/2 digit by digit and forces v only as far as it reads.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .kernel import SdStream
from .sd_ops import _is_const, _layer_step


def _digits3(code: int) -> tuple[int, int, int]:
    """The digits ``d0 d1 d2`` packed as the code ``9*d0 + 3*d1 + d2 + 13``."""
    return code // 9 - 1, code // 3 % 3 - 1, code % 3 - 1


_NO_DIGITS = 13  # the code of 0 0 0, passed where a layer reads no y/2


def _reads_y(state: tuple) -> int:
    """How the layer state ``state`` reads y/2: 0 not at all (kind 0, or
    spliced onto a constant), 1 digit by digit while an ``("add", e)``
    double may still splice, 2 every digit (both doubles copy, so the layer
    is a plain average from then on)."""
    kind, _, s1, s2 = state
    return 0 if not kind or _is_const(s1) or _is_const(s2) else 2 if s1 == s2 == "copy" else 1


class _Layers:
    """Interned numerator layer states and their memoized transitions.

    A layer state is a state ``(kind, s0, s1, s2)`` of
    :func:`streamreal.sd_ops._layer_step`, whose ``kind`` is the quotient
    digit that made the layer.  A new layer reads three digits before it
    emits one and from then on emits digit i of its own after reading digit
    i + 3 of the layer below, as the stream tower does, so every layer moves
    by whole 3-digit codes.  A state whose automata have spliced onto a
    constant reads nothing more and forgets the stages below the constant.

    One table, ``step3``, holds every transition and fills on first use.  It
    is indexed and filled pre-scaled: state ``sid`` owns the row of 729
    entries from its row key ``729 * sid``, one for each code below and code
    of y/2, and each entry holds the next row key and 27 times the code
    emitted.  ``start[kind]`` is the row key of the unprimed state of each
    kind, so a new layer is one lookup from its kind's start row; it emits
    no digit while it primes, and the code in a start row's entries is never
    read.  Divisions step only while a cell is being forced, under the
    kernel's force lock, so the table needs no lock of its own.
    """

    def __init__(self) -> None:
        self.states: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.reads_y: list[int] = []  # per state: _reads_y(state)
        # (729 * state + 27 * code below + code of y/2) -> (729 * state, 27 * code emitted)
        self.step3: list[tuple[int, int] | None] = []
        self.steps: dict[tuple[int, int], tuple[int, int]] = {}  # one copy of each entry
        # the row keys of the unprimed states, indexed by kind: 0, 1, -1
        self.start = [729 * self.intern((0, None, None, "dispatch")),
                      729 * self.intern((1, None, "dispatch", "dispatch")),
                      729 * self.intern((-1, None, "dispatch", "dispatch"))]

    def intern(self, state: tuple) -> int:
        kind, _, s1, s2 = state
        if _is_const(s2):
            state = (0, None, None, s2)
        elif kind and _is_const(s1):
            state = (kind, None, s1, s2)
        sid = self.ids.get(state)
        if sid is None:
            # Each row is written from index sid on, states last and the id
            # after all of them, so an interrupt in between publishes no id
            # without its rows and leaves no row misaligned.
            sid = len(self.states)
            self.reads_y[sid:] = [_reads_y(state)]
            self.step3[729 * sid:] = [None] * 729
            self.states.append(state)
            self.ids[state] = sid
        return sid

    def advance(self, row: int, below: int, half_y: Sequence[int],
                first: int) -> tuple[int, int]:
        """Three digits from row key ``row`` over the scaled code ``below``,
        reading ``half_y`` from ``first`` only as far as the layer does; the
        next row key and the scaled code emitted, with 0 for a digit not
        emitted while the layer primes."""
        state = self.states[row // 729]
        code = 0
        for i, a in enumerate(_digits3(below // 27)):
            state, x = _layer_step(state, a, half_y[first + i] if _reads_y(state) else 0)
            code = 3 * code + (x or 0) + 1
        return 729 * self.intern(state), 27 * code

    def fill(self, key: int) -> tuple[int, int]:
        """The three-digit step ``step3[key]``, stepped and stored."""
        sid, codes = divmod(key, 729)
        below, h = divmod(codes, 27)
        step = self.advance(729 * sid, 27 * below, _digits3(h), 0)
        step = self.step3[key] = self.steps.setdefault(step, step)
        return step


_LAYERS = _Layers()


class _HalfY:
    """Digits of ``y/2 = 0 :: y``, each forced from ``v`` when first read,
    by :func:`quotient_digits` inside a force, so under the force lock.

    ``codes[c]`` packs digits ``3c .. 3c + 2`` once all three are known.
    """

    __slots__ = ("cell", "digits", "codes")

    def __init__(self, v: SdStream):
        self.cell = v
        self.digits = [0]
        self.codes: list[int] = []

    def __getitem__(self, p: int) -> int:
        """Digit ``p``; the digits are read in order, so ``p`` is at most
        one past the last digit read."""
        digits = self.digits
        if p == len(digits):
            cell = self.cell._force()
            digits.append(cell.head)
            self.cell = cell.tail
            if p % 3 == 2:
                self.codes.append(9 * digits[-3] + 3 * digits[-2] + cell.head + 13)
        return digits[p]

    def code(self, c: int) -> int:
        """``codes[c]``, reading its digits first if need be."""
        while len(self.codes) <= c:
            self[len(self.digits)]
        return self.codes[c]


def quotient_digits(u: SdStream, v: SdStream) -> Iterator[int]:
    """The digits of ``sd_ops.divide(u, v)``."""
    layers = _LAYERS
    reads_y = layers.reads_y
    step3 = layers.step3
    fill = layers.fill
    start = layers.start
    half_y = _HalfY(v)
    codes = half_y.codes
    # rows[j] is the row key of numerator layer j >= 1; layer 0 is u itself
    rows = [0]
    below_top = kind = k = 0
    while True:
        u = u._force()
        d0 = u.head
        u = u.tail._force()
        d1 = u.head
        u = u.tail._force()
        code = 243 * d0 + 81 * d1 + 27 * u.head + 351  # 27 * (9*d0 + 3*d1 + d2 + 13)
        u = u.tail
        if k:
            # layer k, of the kind the last digit chose, primes on the code
            # its layer below had at the last step
            key = start[kind] + below_top + (half_y.code(0) if kind else _NO_DIGITS)
            rows.append((step3[key] or fill(key))[0])
        # At step k layer j reads the code of layer j - 1 and chunk k - j + 1
        # of y/2.  The lowest layers may need a chunk not read yet: a layer
        # that may splice steps digit by digit and forces v only as far as
        # it reads, one that reads every digit reads the chunk whole, and
        # one that reads none takes its step with any code.
        j = 1
        while j <= k and k - j + 1 >= len(codes):
            row = rows[j]
            reads = reads_y[row // 729]
            if reads == 1:
                rows[j], code = layers.advance(row, code, half_y, 3 * (k - j + 1))
            else:
                key = row + code + (half_y.code(k - j + 1) if reads else _NO_DIGITS)
                rows[j], code = step3[key] or fill(key)
            j += 1
        for j, h in enumerate(codes[k - j + 1:0:-1], j):
            rows[j], code = step3[key := rows[j] + code + h] or fill(key)
        below_top = code
        top = _digits3(code // 27)
        kind = top[0] or top[1] or top[2]
        k += 1
        yield kind
