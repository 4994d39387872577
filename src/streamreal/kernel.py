"""Lazy, memoized codata cells for digit streams and Gray codes.

Streams are chains of cells with lazy tails, not index functions: every
algorithm in this library is a head/tail pattern matcher, and caching each
cell is what keeps the instrumented look-ahead linear instead of recomputing
prefixes.  A cell is forced at most once; forcing is serialized by a global
re-entrant lock so concurrent readers can share any forced prefix.

Both codings are chains of one cell class, :class:`Cell`, a pair
``(head, tail)`` once forced:

* :class:`SdStream` -- an infinite stream of signed digits denoting
  ``x = sum(d_k * 2**-k) in [-1, 1]``; ``head`` is the digit.
* :class:`GrayG` / :class:`GrayH` -- mutually corecursive Gray-code nodes,
  the mode being the class.  ``head`` is the sign +1/-1 of a sign node,
  whose ``tail`` is mode G, or ``None`` for a delay node, whose ``tail`` is
  mode H.  A ``GrayG`` sign node ``(s, g)`` denotes ``-s*(x_g - 1)/2``, a
  ``GrayH`` sign node denotes ``s*(x_g + 1)/2``, and both delays denote
  ``x_h/2``.

Every automaton over these cells is a Python generator that takes its input
cells as arguments and yields one output symbol per step.  One driver,
:meth:`Cell.force`, runs them all: an unforced cell holds the generator's
``__next__`` as its *pull* (:func:`stream_from_digits`), and forcing the
cell resumes it once, sets ``head`` to the symbol and makes ``tail`` a new
cell with the same pull, of the class the mode asks for: ``SdStream`` for
a digit, ``GrayG`` after a sign and ``GrayH`` after a delay.  A generator
ends its stream in one way only, by returning a cell, which its
``StopIteration`` carries: the cell being forced forces that cell and takes
its head and tail, and the stream goes on as the returned one, which may be
an input the generator has not read.  A generator drops each input cell
once it has moved past it, so the forced prefix of an input is garbage as
soon as every reader has moved on: memory grows with the live frontier, not
the history.
The only generators over Gray cells are the two conversions and the force
counter: every Gray operation runs a signed-digit automaton between the
conversions (:mod:`streamreal.gray_ops`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator, NamedTuple

_FORCE_LOCK = threading.RLock()


class Splice(NamedTuple):
    """Marks a corecursion step result that splices an existing stream."""

    stream: Any


class Cell:
    """One memoized cell of a lazy stream.

    ``head``/``tail`` are plain attributes that :meth:`force` sets; an
    unforced cell has neither (all helpers in this package force before
    reading) and holds a *pull* instead: a callable, normally a generator's
    ``__next__``, that returns the cell's symbol or raises
    ``StopIteration(cell)`` to say the stream goes on as ``cell``.
    """

    __slots__ = ("head", "tail", "_pull")
    head: Any
    tail: Any
    # The class of a forced cell's tail, indexed by ``head is None``.
    _tail_classes: tuple

    def __init__(self, pull: Callable[[], Any]):
        self._pull = pull

    @classmethod
    def cons(cls, head: Any, tail: "Cell") -> "Cell":
        """Already forced cell ``(head, tail)``."""
        cell = cls.__new__(cls)
        cell.head = head
        cell.tail = tail
        cell._pull = None
        return cell

    @classmethod
    def constant(cls, head: Any) -> "Cell":
        """Cyclic one-cell stream repeating ``head`` forever (interned)."""
        cell = _CONSTANTS.get((cls, head))
        if cell is None:
            cell = cls.cons(head, None)
            cell.tail = cell
            _CONSTANTS[cls, head] = cell
        return cell

    def force(self) -> "Cell":
        """Evaluate the cell once: the only code that resumes a pull.

        A symbol becomes ``head``, and ``tail`` a new cell of the class its
        mode asks for, pulling from the same source.  A carried cell is
        forced here and lends its ``head`` and ``tail``; a pull that has
        already raised carries none, and its stream cannot go on.
        """
        if self._pull is not None:
            with _FORCE_LOCK:
                pull = self._pull
                if pull is not None:
                    try:
                        head = pull()
                    except StopIteration as stop:
                        cell = stop.value
                        if cell is None:
                            raise RuntimeError("stream failed earlier: its generator raised and cannot resume")
                    else:
                        self.head = head
                        self.tail = self._tail_classes[head is None](pull)
                        self._pull = None
                        return self
                    cell = cell.force()
                    self.head = cell.head
                    self.tail = cell.tail
                    self._pull = None
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug display only
        if self._pull is not None:
            return f"{type(self).__name__}(<unforced>)"
        return f"{type(self).__name__}({self.head}, ...)"


_CONSTANTS: dict = {}


class SdStream(Cell):
    """One cell of a lazy stream of signed digits."""

    __slots__ = ()


SdStream._tail_classes = (SdStream, SdStream)


class GrayNode(Cell):
    """Gray-code node: sign node ``(s, rest_g)`` or delay ``(None, rest_h)``."""

    __slots__ = ()
    is_g: bool


class GrayG(GrayNode):
    """Mode G: sign node ``(s, g)`` denotes ``-s*(x_g - 1)/2``, delay ``U``."""

    __slots__ = ()
    is_g = True


class GrayH(GrayNode):
    """Mode H: sign node ``(s, g)`` denotes ``s*(x_g + 1)/2``, delay ``D``."""

    __slots__ = ()
    is_g = False


GrayNode._tail_classes = (GrayG, GrayH)


def stream_from_digits(symbols: Iterator[Any], cls: type = SdStream) -> Cell:
    """Stream of class ``cls`` pulling one symbol per forced cell from
    ``symbols``.

    The iterator is advanced only when a new cell is forced, so generators
    passed here stay as lazy as the corecursion they implement.  When a
    generator returns a cell, the cell being forced takes its head and tail
    and the stream continues as the returned one.  For Gray codes ``None``
    marks a delay, the rest of a sign node is mode G and the rest of a
    delay mode H; a returned node should be of the mode the chain is in at
    that point.
    """
    return cls(symbols.__next__)


def _unfold(state: Any, step: Callable[[Any], tuple[int, Any]]) -> Iterator[int]:
    while True:
        digit, state = step(state)
        if type(state) is Splice:
            return SdStream.cons(digit, state.stream)
        yield digit


def unfold_sd(seed: Any, step: Callable[[Any], tuple[int, Any]]) -> SdStream:
    """Corecursion operator for signed-digit streams.

    ``step`` maps a state to ``(digit, next)`` where ``next`` is either
    ``Splice(stream)`` -- splicing an existing stream in place of further
    corecursion -- or the next state.  A splice ends the generator with the
    cell ``digit :: stream``, which :meth:`Cell.force` takes over.
    ``step`` must be total on states reachable from ``seed``.
    """
    return stream_from_digits(_unfold(seed, step))


def take_prefix(u: SdStream, n: int) -> list[int]:
    """First ``n`` digits of ``u``; forces exactly ``n`` cells."""
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    out = []
    cell = u
    for _ in range(n):
        cell = cell.force()
        out.append(cell.head)
        cell = cell.tail
    return out


def take_gray_prefix(node: GrayNode, n: int) -> list[tuple[str, Any]]:
    """First ``n`` constructors as ``(mode, sign)`` pairs, forcing exactly n.

    ``mode`` is ``"g"`` or ``"h"``; ``sign`` is +1/-1 or ``None`` for the
    delay constructors.
    """
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    out = []
    cur = node
    for _ in range(n):
        cur = cur.force()
        out.append(("g" if cur.is_g else "h", cur.head))
        cur = cur.tail
    return out


class ForceCount:
    """Shared monotone tally of cells forced through a counting wrapper."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def _counted(counter: ForceCount, cell: Cell) -> Iterator[Any]:
    while True:
        cell = cell.force()
        counter.count += 1
        yield cell.head
        cell = cell.tail


def with_force_count(u: Cell) -> tuple[Cell, ForceCount]:
    """Wrap ``u`` so the returned counter tracks constructors forced on it.

    Works on both codings.  The wrapper behaves identically to ``u``; its
    own cells are memoized, so re-reading a forced prefix does not inflate
    the tally.
    """
    counter = ForceCount()
    return stream_from_digits(_counted(counter, u), type(u)), counter


with_force_count_gray = with_force_count
