"""Lazy, memoized codata cells for digit streams and Gray codes.

Streams are chains of cells with lazy tails, not index functions: every
algorithm in this library is a head/tail pattern matcher, and caching each
cell is what keeps the instrumented look-ahead linear instead of recomputing
prefixes.  A cell is forced at most once; forcing is serialized by a global
re-entrant lock so concurrent readers can share any forced prefix.  The
lock is taken once per read, not once per cell: :meth:`Cell.force`,
:func:`take_prefix`, :func:`take_gray_prefix` and the ``decode`` functions
hold it for their whole walk, and every generator of this package runs
inside such a read and forces its inputs without taking it again.

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
cells as arguments and yields one output symbol per step.  Two drivers,
one per coding, run them all through :meth:`Cell.force`: its unlocked body
:meth:`Cell._force` for signed digits and :meth:`GrayNode._force` for Gray
nodes.  An unforced cell holds the generator itself as its *pull*, an
iterator (:func:`stream_from_digits`), and forcing the cell resumes it
once with ``next(pull)``, sets ``head`` to the symbol and makes ``tail`` a
new cell with the same pull, of the class the mode asks for: the cell's
own class for a digit, ``GrayG`` after a sign and ``GrayH`` after a delay.
The drivers are separate code on purpose: CPython keys each attribute
cache of a code object on the receiver's type, so one driver shared by
both codings misses wherever they interleave.  Every cell is made by
calling its class with no arguments and storing its pull, or its head and
tail: :class:`Cell` and its subclasses have no ``__init__``, which keeps
that call the cheapest way to make a cell.  A generator ends its
stream in one way only, by returning a cell, which its ``StopIteration``
carries: the cell being forced forces that cell and takes its head and
tail, and the stream goes on as the returned one, which may be an input
the generator has not read.  A generator drops each input cell once it
has moved past it, so the forced prefix of an input is garbage as
soon as every reader has moved on: memory grows with the live frontier, not
the history.  Any other exception that leaves a force, an interrupt
included, fails the cell for good: forcing it again raises
``RuntimeError``, so no reader sees a stream that skipped a symbol.
The only generators that read Gray cells are the to-SD conversion and the
force counter, and the counter only on a code that is not an unforced
view: every Gray operation runs a signed-digit automaton between the
conversions (:mod:`streamreal.gray_ops`).  :func:`with_force_count` wraps
no stream that can re-run its own recipe: an unforced head whose pull has
a ``recount`` method, a fresh ``sd_ops.encode`` or an unforced Gray view,
is counted by re-running the recipe with the counter.  An encode runs the
same generator either way, with no counter when its head is forced.
"""

from __future__ import annotations

from _thread import RLock
from collections.abc import Callable, Iterator

_FORCE_LOCK = RLock()


class Cell:
    """One memoized cell of a lazy stream.

    ``head``/``tail`` are plain attributes that :meth:`force` sets; an
    unforced cell has neither (all helpers in this package force before
    reading) and holds a *pull* instead: an iterator, normally a generator,
    whose ``next`` returns the cell's symbol or raises
    ``StopIteration(cell)`` to say the stream goes on as ``cell``.

    The tail of a forced cell is of the cell's own class, so a subclass of
    :class:`SdStream` gets tails of that subclass, except on a Gray node,
    whose tail is ``GrayH`` after a delay and ``GrayG`` after a sign; a
    cell that splices onto a carried cell takes that cell's tail.

    The class has no ``__init__``, nor may a subclass have one: every cell
    is made by calling its class with no arguments, and a cell that pulls
    is made by :func:`stream_from_digits`, an already forced one by
    :meth:`cons`.
    """

    __slots__ = ("head", "tail", "_pull")
    head: object
    tail: object

    @classmethod
    def cons(cls, head: object, tail: "Cell") -> "Cell":
        """Already forced cell ``(head, tail)``."""
        cell = cls()
        cell.head = head
        cell.tail = tail
        cell._pull = None
        return cell

    @classmethod
    def constant(cls, head: object) -> "Cell":
        """Cyclic one-cell stream repeating ``head`` forever (interned)."""
        cell = _CONSTANTS.get((cls, head))
        if cell is None:
            cell = cls.cons(head, None)
            cell.tail = cell
            _CONSTANTS[cls, head] = cell
        return cell

    def force(self) -> "Cell":
        """Evaluate the cell once, under the force lock: the public entry.

        A forced cell is returned at once.  An unforced one is forced by
        :meth:`_force` while this thread holds the lock, which is
        re-entrant, so a pull written outside this package may call
        ``force`` on its inputs.
        """
        if self._pull is not None:
            with _FORCE_LOCK:
                self._force()
        return self

    def _force(self) -> "Cell":
        """The body of :meth:`force`, without the lock: call it only while
        holding ``_FORCE_LOCK``.  Every pull runs inside a force, so the
        generators of this package read their inputs through it, and each
        read entry point takes the lock once for its whole walk.

        It and :meth:`GrayNode._force`, the same driver with Gray tails,
        are the only code that resumes a pull, by ``next(pull)``.  A symbol
        becomes ``head``, and ``tail`` a new cell of the class of ``self``,
        pulling from the same iterator; the tail is made by calling the
        class with no arguments and one store.  A carried cell is forced
        here and lends its ``head`` and ``tail``; a pull that has already
        raised carries none, and its stream cannot go on.

        Any other exception that leaves here, an interrupt included,
        replaces the pull with one that fails: a symbol that ``next(pull)``
        returned but the cell did not keep is lost, so the stream must not
        go on to the next one.
        """
        pull = self._pull
        if pull is not None:
            try:
                try:
                    head = next(pull)
                except StopIteration as stop:
                    cell = _carried(stop)._force()
                    head = cell.head
                    tail = cell.tail
                else:
                    tail = type(self)()
                    tail._pull = pull
                self.head = head
                self.tail = tail
                self._pull = None
            except BaseException:
                self._pull = _FAILED_PULL
                raise
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug display only
        if self._pull is not None:
            return f"{type(self).__name__}(<unforced>)"
        return f"{type(self).__name__}({self.head}, ...)"


_CONSTANTS: dict = {}
# The pull of a cell whose stream failed: an exhausted iterator, which
# raises StopIteration carrying no cell.
_FAILED_PULL = iter(())


def _carried(stop: StopIteration) -> Cell:
    """The cell a pull's ``StopIteration`` carries, for a driver to splice
    onto; it returns before the driver forces the cell, so a splice costs
    no frame beyond the driver's."""
    cell = stop.value
    if cell is None:
        raise RuntimeError("stream failed earlier: its generator raised and cannot resume")
    return cell


class SdStream(Cell):
    """One cell of a lazy stream of signed digits."""

    __slots__ = ()


class GrayNode(Cell):
    """Gray-code node: sign node ``(s, rest_g)`` or delay ``(None, rest_h)``."""

    __slots__ = ()
    is_g: bool

    def _force(self) -> "GrayNode":
        """:meth:`Cell._force` for Gray nodes, with the same contract: the
        tail is ``GrayH`` after a delay and ``GrayG`` after a sign."""
        pull = self._pull
        if pull is not None:
            try:
                try:
                    head = next(pull)
                except StopIteration as stop:
                    cell = _carried(stop)._force()
                    head = cell.head
                    tail = cell.tail
                else:
                    tail = (GrayH if head is None else GrayG)()
                    tail._pull = pull
                self.head = head
                self.tail = tail
                self._pull = None
            except BaseException:
                self._pull = _FAILED_PULL
                raise
        return self


class GrayG(GrayNode):
    """Mode G: sign node ``(s, g)`` denotes ``-s*(x_g - 1)/2``, delay ``U``."""

    __slots__ = ()
    is_g = True


class GrayH(GrayNode):
    """Mode H: sign node ``(s, g)`` denotes ``s*(x_g + 1)/2``, delay ``D``."""

    __slots__ = ()
    is_g = False


def stream_from_digits(symbols: Iterator[object], cls: type = SdStream) -> Cell:
    """Stream of class ``cls`` pulling one symbol per forced cell from
    ``symbols``: the one constructor of a cell that pulls.

    The iterator is advanced only when a new cell is forced, so generators
    passed here stay as lazy as the corecursion they implement.  When a
    generator returns a cell, the cell being forced takes its head and tail
    and the stream continues as the returned one.  For Gray codes ``None``
    marks a delay, the rest of a sign node is mode G and the rest of a
    delay mode H; a returned node should be of the mode the chain is in at
    that point.
    """
    cell = cls()
    cell._pull = symbols
    return cell


def _unfold(state: object, step: Callable[[object], tuple[int, object]]) -> Iterator[int]:
    while True:
        digit, state = step(state)
        yield digit


def unfold_sd(seed: object, step: Callable[[object], tuple[int, object]]) -> SdStream:
    """Corecursion operator for signed-digit streams.

    ``step`` maps a state to ``(digit, next_state)`` and must be total on
    states reachable from ``seed``.
    """
    return stream_from_digits(_unfold(seed, step))


def take_prefix(u: SdStream, n: int) -> list[int]:
    """First ``n`` digits of ``u``; forces exactly ``n`` cells.  The walk
    moves ``u`` itself, so the cells read are garbage once no caller holds
    the head."""
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    out = []
    with _FORCE_LOCK:
        for _ in range(n):
            u = u._force()
            out.append(u.head)
            u = u.tail
    return out


def take_gray_prefix(node: GrayNode, n: int) -> list[tuple[str, object]]:
    """First ``n`` constructors as ``(mode, sign)`` pairs, forcing exactly n.

    ``mode`` is ``"g"`` or ``"h"``; ``sign`` is +1/-1 or ``None`` for the
    delay constructors.  Like :func:`take_prefix`, the walk moves ``node``
    itself.
    """
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    out = []
    with _FORCE_LOCK:
        for _ in range(n):
            node = node._force()
            out.append(("g" if node.is_g else "h", node.head))
            node = node.tail
    return out


class _ForceCount:
    """Shared monotone tally of cells forced through a counting wrapper."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def _counted(counter: _ForceCount, cell: Cell) -> Iterator[object]:
    while True:
        cell = cell._force()
        counter.count += 1
        yield cell.head
        cell = cell.tail


def with_force_count(u: Cell) -> tuple[Cell, _ForceCount]:
    """A stream of the symbols of ``u`` and a counter of the constructors
    forced on it.

    Works on both codings.  The counted stream behaves identically to
    ``u``; its cells are memoized, so re-reading a forced prefix does not
    inflate the tally.  A stream that can re-run its own recipe is counted
    by re-running it, and ``u`` stays unforced: an unforced head whose pull
    has a ``recount`` method, a fresh ``sd_ops.encode`` or an unforced Gray
    view, returns ``recount(counter)``.  The encoder, the generator that
    an uncounted encode runs, then ticks once per digit it emits, and a
    view comes back as the same view over its counted signed-digit source,
    which it reads one digit per constructor and hands to ``to_sd``.  Any
    other stream -- forced or partly read, an operation's result,
    :func:`unfold_sd` -- is wrapped cell by cell.
    """
    counter = _ForceCount()
    return _count_on(u, counter), counter


def _count_on(u: Cell, counter: _ForceCount) -> Cell:
    """``u`` read through ``counter``, as :func:`with_force_count` makes it;
    a view's ``recount`` counts its source here."""
    recount = getattr(u._pull, "recount", None)
    if recount is not None:
        return recount(counter)
    return stream_from_digits(_counted(counter, u), type(u))


# Kept for perfbench/jobs.py, its last caller; ROADMAP item 1 retires it.
with_force_count_gray = with_force_count
