"""The numerator tower of the signed-digit division as interned transition rows.

:func:`streamreal.sd_ops.divide` runs :func:`quotient_digits` and imports
this module on its first call.  Numerator layer j + 1 of the division is
``double(double(average(x_j, -+y/2)))`` or ``double(x_j)`` of layer j; here
each layer is one interned state of the layer automaton
:func:`streamreal.sd_ops._layer_step`, the one that runs
``sd_ops.twice_minus`` and ``twice_plus``, whose transitions are memoized
in nested rows that fill on first use.  The states are opaque here:
``sd_ops`` owns their format, their start states and how each reads y/2,
and a row is keyed on a state exactly as the step returns it.

The layer loop holds each layer as the row of its state, so that one layer
step is three subscripts of small ints: ``row[code][h]`` is the next row and
the code the layer emits, where ``code`` is the 3-digit code the layer below
passes up and ``h`` the code of the chunk of y/2 that the layer reads, both
plain codes in 0..26, not scaled.  A row holds its state after its 27
lists, then how that state reads y/2, ``sd_ops._reads_y``, and then the 27
entries that lead into it, one for each code emitted.  A new layer takes the
same step from the start row of its kind, the row of its unprimed state.
y/2 is read from the memoized cells of ``half(v)``.  A first layer whose
two doubles both copy reads every digit of y/2, so it reads its chunk
whole; one that can still splice onto a constant reads y/2 digit by digit
and forces v only as far as it reads.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .kernel import SdStream
from .sd_ops import _LAYER_STARTS, _layer_step, _reads_y, half


def _digits3(code: int) -> tuple[int, int, int]:
    """The digits ``d0 d1 d2`` packed as the code ``9*d0 + 3*d1 + d2 + 13``."""
    return code // 9 - 1, code // 3 % 3 - 1, code % 3 - 1


_NO_DIGITS = 13  # the code of 0 0 0, passed where a layer reads no y/2
# the quotient digit that a top layer's code chooses: its first nonzero digit
_KIND = [d0 or d1 or d2 for d0, d1, d2 in map(_digits3, range(27))]


class _Layers:
    """Interned numerator layer states and their memoized transitions.

    A layer state is a state of :func:`streamreal.sd_ops._layer_step`,
    interned as the step returns it, and a layer of each kind, the quotient
    digit that made it, starts from ``sd_ops._LAYER_STARTS``.  A state that
    has spliced onto a constant keeps the stages below it, which step no
    more; the states that 3-digit steps reach from the starts number at most
    162, so the rows stay bounded for any input.
    A new layer reads three digits before it emits one and from then on
    emits digit i of its own after reading digit i + 3 of the layer below,
    as the stream tower does, so every layer moves by whole 3-digit codes.

    Each interned state owns one row, a plain list: entries 0 to 26 are
    lists of 27 entries, indexed by the code from below and then by the code
    of y/2, entry 27 is the state, entry 28 its ``sd_ops._reads_y``, and entry
    29 + c is ``(row, c)``, the entry of every step into this row that
    emits the code c.  An entry is ``(next row, code emitted)``, one of the
    next row's own, or None until its first use fills it.  ``start[kind]``
    is the row of the unprimed state of each kind, so a new layer is one
    step from its kind's start row; it emits no digit while it primes, and
    the code in a start row's entries is never read.  Divisions step only
    while a cell is being forced, under the kernel's force lock, so the rows
    need no lock of their own.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple, list] = {}
        self.start = [self.intern(state) for state in _LAYER_STARTS]

    def intern(self, state: tuple) -> list:
        row = self.ids.get(state)
        if row is None:
            row = [[None] * 27 for _ in range(27)]
            row += state, _reads_y(state)
            row += [(row, c) for c in range(27)]
            self.ids[state] = row
        return row

    def advance(self, row: list, below: int, half_y: Sequence[int],
                first: int) -> tuple[list, int]:
        """Three digits from ``row`` over the code ``below``, reading
        ``half_y`` from ``first`` only as far as the layer does; the next
        row and the code emitted, with 0 for a digit not emitted while the
        layer primes."""
        state = row[27]
        code = 0
        for i, a in enumerate(_digits3(below)):
            state, x = _layer_step(state, a, half_y[first + i] if _reads_y(state) else 0)
            code = 3 * code + (x or 0) + 1
        return self.intern(state)[29 + code]

    def fill(self, row: list, below: int, h: int) -> tuple[list, int]:
        """The three-digit step ``row[below][h]``, stepped and stored."""
        row[below][h] = step = self.advance(row, below, _digits3(h), 0)
        return step


_LAYERS = _Layers()


class _HalfY:
    """Digits of ``y/2``, read from the memoized cells of ``half(v)``, by
    :func:`quotient_digits` inside a force, so under the force lock.

    ``codes[c]`` packs digits ``3c .. 3c + 2`` once all three are read, and
    ``cell`` is the cell of digit ``3 * len(codes)``.
    """

    __slots__ = ("cell", "codes")

    def __init__(self, v: SdStream):
        self.cell = half(v)
        self.codes: list[int] = []

    def __getitem__(self, p: int) -> int:
        """Digit ``p``, which lies in the chunk after the last one packed;
        reading the chunk's last digit packs it."""
        cell = self.cell._force()
        for _ in range(p % 3):
            cell = cell.tail._force()
        if p % 3 == 2:
            self.code(len(self.codes))
        return cell.head

    def code(self, c: int) -> int:
        """``codes[c]``, reading whole each chunk up to ``c`` not yet packed."""
        codes = self.codes
        while len(codes) <= c:
            a = self.cell._force()
            b = a.tail._force()
            d = b.tail._force()
            self.cell = d.tail
            codes.append(9 * a.head + 3 * b.head + d.head + 13)
        return codes[c]


def quotient_digits(u: SdStream, v: SdStream) -> Iterator[int]:
    """The digits of ``sd_ops.divide(u, v)``."""
    layers = _LAYERS
    fill = layers.fill
    start = layers.start
    kinds = _KIND
    half_y = _HalfY(v)
    del v  # half_y reads on from here; v would keep every digit read
    codes = half_y.codes
    # rows[j] is the row of numerator layer j >= 1; layer 0 is u itself
    rows = [None]
    k = 0
    while True:
        u = u._force()
        d0 = u.head
        u = u.tail._force()
        d1 = u.head
        u = u.tail._force()
        code = 9 * d0 + 3 * d1 + u.head + 13
        u = u.tail
        # At step k layer j reads the code of layer j - 1 and chunk k - j + 1
        # of y/2.  The lowest layers may need a chunk not read yet: a layer
        # that may splice steps digit by digit and forces v only as far as
        # it reads, one that reads every digit reads the chunk whole, and
        # one that reads none takes its step with any code.
        j = 1
        while j <= k and k - j + 1 >= len(codes):
            row = rows[j]
            reads = row[28]
            if reads == 1:
                rows[j], code = layers.advance(row, code, half_y, 3 * (k - j + 1))
            else:
                h = half_y.code(k - j + 1) if reads else _NO_DIGITS
                rows[j], code = row[code][h] or fill(row, code, h)
            j += 1
        for j, h in enumerate(codes[k - j + 1:0:-1], j):
            rows[j], code = rows[j][code][h] or fill(rows[j], code, h)
        kind = kinds[code]
        k += 1
        yield kind
        # layer k, of the kind just emitted, primes on the code of the top
        # layer at this step, at the start of the next pull
        row = start[kind]
        h = half_y.code(0) if kind else _NO_DIGITS
        rows.append((row[code][h] or fill(row, code, h))[0])
