from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from streamreal import gray_ops, sd_ops, sd_tower
from streamreal.kernel import (
    Cell,
    GrayG,
    GrayH,
    GrayNode,
    SdStream,
    stream_from_digits,
    take_gray_prefix,
    take_prefix,
    unfold_sd,
    with_force_count,
)
from tests.support import (
    division_pair,
    reference_with_force_count,
    sd,
    tail_at,
    unit_fraction,
    walk,
    within,
)


def test_unfold_constant():
    u = unfold_sd(None, lambda s: (1, s))
    assert take_prefix(u, 5) == [1, 1, 1, 1, 1]


def test_generator_ends_by_returning_the_cell_it_splices_onto():
    rest, counter = with_force_count(sd([-1, 0, 1]))

    def digits():
        yield 1
        yield 0
        return rest

    u = stream_from_digits(digits())
    assert take_prefix(u, 2) == [1, 0]
    assert counter.count == 0
    assert take_prefix(u, 3) == [1, 0, -1]
    assert counter.count == 1
    assert tail_at(u, 3) is rest.tail
    assert take_prefix(u, 6) == [1, 0, -1, 0, 1, 0]


def test_gray_generator_ends_by_returning_the_node_it_splices_onto():
    rest, counter = with_force_count(gray_ops.encode(Fraction(-3, 8)))

    def signs():
        yield None
        yield 1
        return rest

    g = stream_from_digits(signs(), GrayG)
    assert counter.count == 0
    assert take_gray_prefix(g, 4) == [("g", None), ("h", 1)] + take_gray_prefix(rest, 2)
    assert counter.count == 2
    assert tail_at(g, 3) is tail_at(rest, 1)


def test_a_tail_is_of_its_cell_class_or_of_the_gray_mode_its_symbol_asks_for():
    def classes(u: Cell, n: int) -> list[type]:
        return [type(tail_at(u, i)) for i in range(n)]

    class Digits(SdStream):
        __slots__ = ()

    # a hand pull: tails of the cell's own class, a subclass's included
    for cls in (SdStream, Digits):
        assert classes(stream_from_digits(iter([1, 0, -1, 1]), cls), 4) == [cls] * 4
    # a Gray pull in either mode: GrayH after a delay, GrayG after a sign
    for mode in (GrayG, GrayH):
        node = stream_from_digits(iter([None, 1, None, -1, 1]), mode)
        assert classes(node, 6) == [mode, GrayH, GrayG, GrayH, GrayG, GrayG]

    # a splice: the cell keeps its class and takes the carried cell's tail
    def digits():
        yield 1
        return stream_from_digits(iter([0, 1]), Digits)

    assert classes(stream_from_digits(digits()), 4) == [SdStream, SdStream, Digits, Digits]

    def signs():
        yield 1
        return stream_from_digits(iter([None, 1]), GrayG)

    assert classes(stream_from_digits(signs(), GrayH), 4) == [GrayH, GrayG, GrayH, GrayG]


def test_unfold_average_seed_decodes_midpoint():
    # the carry automaton behind average is an unfold; check one midpoint
    avg = sd_ops.average(sd_ops.encode(Fraction(1, 2)), sd_ops.encode(Fraction(-1, 4)))
    assert within(sd_ops.decode(avg, 40), Fraction(1, 8), 40)


def test_take_prefix_cases():
    assert take_prefix(sd([]), 3) == [0, 0, 0]
    assert take_prefix(sd_ops.encode(Fraction(1, 2)), 3) == [1, 0, 0]
    assert take_prefix(sd([1, -1]), 0) == []
    with pytest.raises(ValueError):
        take_prefix(sd([]), -1)


def test_take_prefix_forces_exactly_n():
    wrapped, counter = with_force_count(sd([1, 0, -1, 1]))
    take_prefix(wrapped, 3)
    assert counter.count == 3


def test_prefix_extension_consistency():
    rng = random.Random(7)
    for _ in range(20):
        u = sd_ops.encode(unit_fraction(rng))
        n = rng.randint(0, 30)
        k = rng.randint(0, 30)
        assert take_prefix(u, n) + take_prefix(tail_at(u, n), k) == take_prefix(u, n + k)


def test_memoization_single_evaluation():
    evaluations = []

    def step(state):
        evaluations.append(state)
        return 0, state + 1

    u = unfold_sd(0, step)
    take_prefix(u, 10)
    take_prefix(u, 10)
    assert len(evaluations) == 10
    # identical digits on the second pass
    assert take_prefix(u, 10) == [0] * 10


def test_concurrent_forcing_evaluates_each_cell_once():
    import sys
    import threading

    n = 2000
    expected = [1 - i % 3 for i in range(n)]

    def step(state):
        evaluations.append(state)
        return state % 3 - 1, state + 1

    def read(i):
        start.wait(timeout=60)
        results[i] = take_prefix(u, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # a few rounds, since an unlocked kernel can pass one by luck
        for _ in range(5):
            evaluations = []
            # read through generator layers, which two unlocked threads
            # would resume at once
            u = sd_ops.negate(sd_ops.negate(sd_ops.negate(unfold_sd(0, step))))
            start = threading.Barrier(4)
            results = [None] * 4
            workers = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert results == [expected] * 4
            assert evaluations == list(range(n))
            assert take_prefix(u, n) == expected
    finally:
        sys.setswitchinterval(interval)


def _seeded_symbols(i: int, symbols: tuple, resumes: list):
    """Random symbols of seed ``i``; ``resumes[i]`` counts the generator's
    resumptions."""
    rng = random.Random(i)
    while True:
        resumes[i] += 1
        yield rng.choice(symbols)


CHAIN_READERS = {
    "sd": (SdStream, (1, 0, -1), sd_ops, take_prefix),
    "gray": (GrayG, (1, -1, None), gray_ops, take_gray_prefix),
}


@pytest.mark.parametrize("code", sorted(CHAIN_READERS))
def test_threads_reading_a_shared_average_chain_agree_and_resume_each_input_once_per_cell(code):
    import sys
    import threading

    cls, symbols, ops, take = CHAIN_READERS[code]
    depth, n = 8, 300

    def chain(resumes):
        inputs = [stream_from_digits(_seeded_symbols(i, symbols, resumes), cls) for i in range(depth + 1)]
        x = inputs[0]
        for y in inputs[1:]:
            x = ops.average(x, y)
        return inputs, x

    ref_resumes = [0] * (depth + 1)
    _, ref = chain(ref_resumes)
    expected = take(ref, n)
    expected_value = ops.decode(ref, n)

    resumes = [0] * (depth + 1)
    inputs, x = chain(resumes)
    start = threading.Barrier(4)
    results = [None] * 4

    def read(i):
        start.wait(timeout=60)
        results[i] = take(x, n) if i % 2 == 0 else ops.decode(x, n)

    workers = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert not any(w.is_alive() for w in workers)
    assert results == [expected, expected_value] * 2
    assert resumes == ref_resumes
    # each resumption made one cell, in order: the memoized prefix of every
    # input is its generator's sequence with no symbol skipped or repeated,
    # and reading it back resumes nothing
    for i, (u, r) in enumerate(zip(inputs, resumes)):
        replay = random.Random(i)
        read_back = [sign for _, sign in take(u, r)] if code == "gray" else take(u, r)
        assert read_back == [replay.choice(symbols) for _ in range(r)]
    assert resumes == ref_resumes


def test_counter_is_zero_before_forcing_and_monotone():
    wrapped, counter = with_force_count(sd_ops.encode(Fraction(1, 3)))
    assert counter.count == 0
    take_prefix(wrapped, 5)
    assert counter.count == 5
    take_prefix(wrapped, 5)
    assert counter.count == 5
    take_prefix(wrapped, 8)
    assert counter.count == 8


def test_counter_tracks_division_inputs():
    u, cu = with_force_count(sd_ops.encode(Fraction(1001, 3001)))
    v, cv = with_force_count(sd_ops.encode(Fraction(10001, 20001)))
    n = 12
    take_prefix(sd_ops.divide(u, v), n)
    assert cu.count <= 3 * n
    assert cv.count <= 3 * n - 1


def test_cons_and_constant():
    u = SdStream.cons(1, SdStream.constant(-1))
    assert take_prefix(u, 4) == [1, -1, -1, -1]


def test_gray_prefix_confines_value():
    # n constructors pin the value to an interval of width 2**(1-n)
    rng = random.Random(11)
    for _ in range(25):
        a = unit_fraction(rng)
        g = gray_ops.encode(a)
        for n in (1, 5, 13):
            mid = gray_ops.decode(g, n)
            assert abs(mid - a) <= Fraction(1, 1 << n)


def test_gray_counter():
    g, counter = with_force_count(gray_ops.encode(Fraction(5, 8)))
    assert counter.count == 0
    take_gray_prefix(g, 6)
    assert counter.count == 6
    take_gray_prefix(g, 6)
    assert counter.count == 6


# --- counted fresh encodes ---------------------------------------------------

OPS = {"sd": (sd_ops, take_prefix), "gray": (gray_ops, take_gray_prefix)}
# op name -> seeded inputs within the op's preconditions
COUNTED_OPS = {
    "negate": lambda rng: [unit_fraction(rng)],
    "half": lambda rng: [unit_fraction(rng)],
    "double": lambda rng: [unit_fraction(rng) / 2],
    "add_one": lambda rng: [-abs(unit_fraction(rng))],
    "sub_one": lambda rng: [abs(unit_fraction(rng))],
    "average": lambda rng: [unit_fraction(rng), unit_fraction(rng)],
    "twice_minus": lambda rng: (lambda x, y: [abs(x), y])(*division_pair(rng)),
    "twice_plus": lambda rng: (lambda x, y: [-abs(x), y])(*division_pair(rng)),
    "divide": lambda rng: list(division_pair(rng)),
}


@pytest.mark.parametrize("code", sorted(OPS))
@pytest.mark.parametrize("name", list(COUNTED_OPS))
def test_counted_fresh_encodes_read_as_the_wrapper_over_their_cells(code, name):
    # with_force_count re-runs a fresh encode with the counter; every output
    # cell class, symbol and per-step count is the one that the wrapper
    # over the encode's own cells gives
    ops, _ = OPS[code]
    op = getattr(ops, name)
    rng = random.Random(f"{code} {name}")
    for _ in range(25):
        values = COUNTED_OPS[name](rng)
        assert (walk(op, [ops.encode(a) for a in values], 40)
                == walk(op, [ops.encode(a) for a in values], 40, reference_with_force_count))


@pytest.mark.parametrize("code", sorted(OPS))
def test_a_counted_fresh_encode_leaves_the_encode_unforced(code):
    ops, take = OPS[code]
    rng = random.Random(211)
    for _ in range(50):
        a = unit_fraction(rng)
        x = ops.encode(a)
        expected = take(ops.encode(a), 30)
        counted, counter = with_force_count(x)
        assert type(counted) is type(x)
        assert take(counted, 30) == expected and counter.count == 30
        # neither the encode nor, in Gray, the signed digits it views were read
        assert x._pull is not None
        if code == "gray":
            assert gray_ops.to_sd(x)._pull is not None
        assert take(x, 30) == expected and counter.count == 30


def _forced_cells(u: Cell, n: int) -> bool:
    """The first ``n`` cells of ``u`` are forced; reads no unforced cell."""
    for _ in range(n):
        if u._pull is not None:
            return False
        u = u.tail
    return True


@pytest.mark.parametrize("code", sorted(OPS))
def test_a_forced_or_partly_read_encode_is_counted_through_the_wrapper(code):
    # no recipe to re-run: the counted stream reads the cells of the stream
    # it was given, and a Gray view of such a stream reads them through its
    # source
    ops, take = OPS[code]
    rng = random.Random(223)
    for _ in range(50):
        a = unit_fraction(rng)
        expected = take(tail_at(ops.encode(a), 3), 20)
        forced = ops.encode(a).force()
        partly_read = tail_at(ops.encode(a), 3)
        assert _forced_cells(forced, 1) and partly_read._pull is not None
        for x, skip in ((forced, 3), (partly_read, 0)):
            counted, counter = with_force_count(x)
            assert take(tail_at(counted, skip), 20) == expected and counter.count == skip + 20
            assert _forced_cells(x, skip + 20)
        if code == "gray":
            source = sd_ops.encode(a).force()
            view = gray_ops.from_sd(source)
            counted, counter = with_force_count(view)
            assert take(counted, 20) == take(ops.encode(a), 20)
            assert counter.count == 20 and view._pull is not None and _forced_cells(source, 20)


@pytest.mark.parametrize("code, depth", [("sd", 800), ("gray", 800)])
def test_forcing_a_failed_stream_again_reports_the_earlier_failure(code, depth):
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    x = ops.encode(Fraction(1, 3))
    for _ in range(depth):
        x = ops.average(x, ops.encode(Fraction(-1, 5)))
    with pytest.raises(RecursionError):
        take(x, 3)
    with pytest.raises(RuntimeError, match="stream failed earlier"):
        take(x, 3)


@pytest.mark.parametrize("code", ["sd", "gray"])
def test_deep_double_half_chain_yields(code):
    # double hands its input back to splice, which _force forces in its own
    # frame, so a level costs half a generator layer
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    x = ops.encode(Fraction(1, 3))
    for _ in range(800):
        x = ops.double(ops.half(x))
    assert len(take(x, 3)) == 3


@pytest.mark.parametrize("code", ["sd", "gray"])
def test_deep_twice_minus_chain_yields(code):
    # one generator layer per level, as in an average chain
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    y = ops.encode(Fraction(3, 4))
    x = y
    for _ in range(200):
        x = ops.twice_minus(x, y)
    assert len(take(x, 3)) == 3
    assert abs(ops.decode(x, 20) - Fraction(3, 4)) <= Fraction(1, 1 << 20)


@pytest.mark.parametrize("code", ["sd", "gray"])
@pytest.mark.parametrize("op", ["average", "negate"])
def test_deep_generator_chain_yields(code, op):
    # _force resumes each generator itself: a level costs _force's frame and
    # the generator's
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    x = ops.encode(Fraction(1, 3))
    for _ in range(300):
        x = ops.average(x, ops.encode(Fraction(-1, 5))) if op == "average" else ops.negate(x)
    assert len(take(x, 3)) == 3


DEPTH_PROBE = """
import sys
from fractions import Fraction
from streamreal import gray_ops, sd_ops
from streamreal.kernel import take_gray_prefix, take_prefix

print(sys.getrecursionlimit())
for ops, take in ((sd_ops, take_prefix), (gray_ops, take_gray_prefix)):
    for op, depth in (("negate", 485), ("average", 485), ("twice_minus", 485), ("double_half", 985)):
        x = y = ops.encode(Fraction(3, 4))
        for _ in range(depth):
            if op == "negate":
                x = ops.negate(x)
            elif op == "average":
                x = ops.average(x, ops.encode(Fraction(-1, 5)))
            elif op == "twice_minus":
                x = ops.twice_minus(x, y)
            else:
                x = ops.double(ops.half(x))
        try:
            print(len(take(x, 5)))
        except RecursionError:
            print(op, "overflowed")
"""


def test_deep_chains_yield_at_the_default_recursion_limit_in_a_fresh_interpreter():
    # The chains built and read at the top level of a fresh interpreter, as
    # README's depth table is measured, a little below its limits (493 and
    # 994 in SD, 491 and 990 in Gray): a forced cell builds its tail by
    # calling its class, which has no __init__, and resumes its pull by
    # next(pull), so no level costs more than its generator and its force.
    env = {**os.environ, "PYTHONPATH": str(Path(sd_ops.__file__).resolve().parents[1])}
    probe = subprocess.run([sys.executable, "-c", DEPTH_PROBE], env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    assert probe.stdout.split("\n") == ["1000"] + ["5"] * 8 + [""]


def test_a_pull_that_raised_fails_for_good():
    # a hand-written pull is not called again once it has raised
    calls = []

    class Pull:
        def __next__(self):
            calls.append(len(calls))
            if len(calls) == 1:
                raise ValueError("first call")
            return 1

    u = stream_from_digits(Pull())
    with pytest.raises(ValueError):
        take_prefix(u, 1)
    with pytest.raises(RuntimeError, match="stream failed earlier"):
        take_prefix(u, 1)
    assert calls == [0]


# --- interrupts ---------------------------------------------------------------

class _Interrupt(BaseException):
    """Stands in for ``KeyboardInterrupt``: raised where no code expects it."""


def _interrupted(codes, k: int, read):
    """Run ``read()`` with an :class:`_Interrupt` raised at the ``k``-th line
    event of the frames running any code in ``codes``; the code it was
    raised in, or None if it was not.  Python turns tracing off when a
    trace function raises, so it is raised once."""
    seen = 0
    raised_in = None

    def line(frame, event, arg):
        nonlocal seen, raised_in
        if event == "line":
            seen += 1
            if seen == k:
                raised_in = frame.f_code
                raise _Interrupt
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code in codes else None)
    try:
        read()
    except _Interrupt:
        return raised_in
    finally:
        sys.settrace(previous)
    return None


def _reread(take, x, n: int, expected: list) -> bool:
    """Read ``x`` again: the expected symbols, or False if the stream failed
    for good; never a wrong symbol."""
    try:
        again = take(x, n)
    except RuntimeError as exc:
        assert "stream failed earlier" in str(exc)
        return False
    assert again == expected
    return True


F = Fraction
# (build, take, the drivers the read runs)
INTERRUPTED_READS = {
    # generator layers, a splice and, in Gray, the view's pull, started in
    # mode H by to_h
    "sd": (lambda: sd_ops.negate(sd_ops.average(sd_ops.double(sd_ops.half(sd_ops.encode(F(1, 3)))),
                                                sd_ops.negate(sd_ops.encode(F(-2, 7))))), take_prefix,
           (Cell._force,)),
    "gray": (lambda: gray_ops.to_h(gray_ops.average(gray_ops.encode(F(1, 3)), gray_ops.encode(F(-2, 7)))),
             take_gray_prefix, (Cell._force, GrayNode._force)),
    # the division over two counted fresh encodes, as div --stats runs it
    "sd counted division": (lambda: sd_ops.divide(*[with_force_count(sd_ops.encode(a))[0]
                                                    for a in (F(1001, 3001), F(10001, 20001))]), take_prefix,
                            (Cell._force,)),
}


@pytest.mark.parametrize("read", sorted(INTERRUPTED_READS))
def test_an_interrupt_at_any_line_of_a_force_never_yields_a_wrong_symbol(read):
    # The drivers a read runs are traced in one sweep: in the Gray read
    # every signed-digit force runs inside a Gray node's force, which an
    # interrupt there fails, so only the Gray driver's own lines outside
    # its try leave a stream that reads again.
    build, take, drivers = INTERRUPTED_READS[read]
    codes = {driver.__code__ for driver in drivers}
    n = 20
    expected = take(build(), n)
    k = right = 0
    tried = dict.fromkeys(codes, 0)
    while True:
        k += 1
        x = build()
        code = _interrupted(codes, k, lambda: take(x, n))
        if code is None:
            break
        tried[code] += 1
        right += _reread(take, x, n, expected)
    # every line event of every force of the read was tried, in each driver
    # it runs, n forced cells at least
    assert k > 500 and 0 < right < k
    assert min(tried.values()) > 5 * n, tried


DIVISIONS = [(F(1001, 3001), F(10001, 20001)), (F(-1, 3), F(1)), (F(1), F(63, 64))]


def _quotient(x: Fraction, y: Fraction) -> SdStream:
    return sd_ops.divide(sd_ops.encode(x), sd_ops.encode(y))


# The code that fills the tower's tables or reads v for a division, a floor
# under the line events that the division named runs in it from empty tables
# while it reads the number of digits named, and that division's index in
# DIVISIONS: 414, 793 and 122 line events in intern, advance and fill, 183
# in _HalfY.code and 38 in _HalfY.__getitem__, on Python 3.11.  The first
# division reads y/2 only in whole chunks, and (1, 63/64) digit by digit too.
INTERRUPTED_TOWER_CODE = {
    "intern": (sd_tower._Layers.intern, 100, 0, 12),
    "advance": (sd_tower._Layers.advance, 100, 0, 12),
    "fill": (sd_tower._Layers.fill, 100, 0, 12),
    "_HalfY.code": (sd_tower._HalfY.code, 150, 0, 16),
    "_HalfY.__getitem__": (sd_tower._HalfY.__getitem__, 30, 2, 12),
}


@pytest.mark.parametrize("method", list(INTERRUPTED_TOWER_CODE))
def test_an_interrupt_at_any_line_of_intern_leaves_the_tower_tables_whole(monkeypatch, method):
    # the tables are shared by every later division in the process
    function, floor, i, n = INTERRUPTED_TOWER_CODE[method]
    expected = [take_prefix(_quotient(x, y), n) for x, y in DIVISIONS]
    k = 0
    while True:
        k += 1
        monkeypatch.setattr(sd_tower, "_LAYERS", sd_tower._Layers())
        q = _quotient(*DIVISIONS[i])
        if not _interrupted({function.__code__}, k, lambda: take_prefix(q, n)):
            break
        _reread(take_prefix, q, n, expected[i])
        assert [take_prefix(_quotient(x, y), n) for x, y in DIVISIONS] == expected, k
    assert k > floor


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_timer_interrupts_during_reads_never_yield_a_wrong_symbol(monkeypatch):
    # Real signals, raised by the handler wherever the interpreter handles
    # them, in this (the main) thread, for about a second.
    def fresh_quotient():
        monkeypatch.setattr(sd_tower, "_LAYERS", sd_tower._Layers())
        return _quotient(*DIVISIONS[0])

    reads = [
        (lambda: sd_ops.negate(sd_ops.negate(sd_ops.negate(sd_ops.encode(F(1, 3))))), take_prefix, 400),
        (INTERRUPTED_READS["gray"][0], take_gray_prefix, 150),
        (fresh_quotient, take_prefix, 30),
    ]
    expected = [take(build(), n) for build, take, n in reads]
    rng = random.Random(20261022)

    def interrupt(signum, frame):
        raise _Interrupt

    interrupted = 0
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            i = rng.randrange(len(reads))
            build, take, n = reads[i]
            x = build()
            try:
                signal.setitimer(signal.ITIMER_REAL, rng.uniform(1e-5, 2e-3))
                take(x, n)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except _Interrupt:
                interrupted += 1
            _reread(take, x, n, expected[i])
            if i == 2:  # the tables the interrupted division filled
                assert take_prefix(_quotient(*DIVISIONS[0]), n) == expected[i]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert interrupted >= 10
