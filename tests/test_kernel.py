from __future__ import annotations

import random
from fractions import Fraction

import pytest

from streamreal import gray_ops, sd_ops
from streamreal.kernel import (
    GrayG,
    SdStream,
    Splice,
    stream_from_digits,
    take_gray_prefix,
    take_prefix,
    unfold_sd,
    with_force_count,
    with_force_count_gray,
)
from tests.support import sd, tail_at, unit_fraction, within


def test_unfold_constant():
    u = unfold_sd(None, lambda s: (1, s))
    assert take_prefix(u, 5) == [1, 1, 1, 1, 1]


def test_unfold_immediate_splice_shares_tail():
    w = sd([0, -1])
    u = unfold_sd(None, lambda s: (1, Splice(w)))
    assert take_prefix(u, 4) == [1, 0, -1, 0]
    assert u.force().tail is w


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
    import threading

    evaluations = []

    def step(state):
        evaluations.append(state)
        return 0, state + 1

    u = unfold_sd(0, step)
    workers = [threading.Thread(target=take_prefix, args=(u, 300)) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len(evaluations) == 300
    assert take_prefix(u, 300) == [0] * 300


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
    g, counter = with_force_count_gray(gray_ops.encode(Fraction(5, 8)))
    assert counter.count == 0
    take_gray_prefix(g, 6)
    assert counter.count == 6
    take_gray_prefix(g, 6)
    assert counter.count == 6


@pytest.mark.parametrize("code, depth", [("sd", 400), ("gray", 400)])
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
    # double hands its input back to splice, which force forces in its own
    # frame, so a level costs a third of a generator layer
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
    # force resumes each generator itself: a level costs force's frame and
    # the generator's
    ops, take = (sd_ops, take_prefix) if code == "sd" else (gray_ops, take_gray_prefix)
    x = ops.encode(Fraction(1, 3))
    for _ in range(300):
        x = ops.average(x, ops.encode(Fraction(-1, 5))) if op == "average" else ops.negate(x)
    assert len(take(x, 3)) == 3
