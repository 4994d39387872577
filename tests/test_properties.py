"""Property test: random nested expressions over every operation, both codings.

An expression is a tree of operations over rational leaves in [-1, 1].  Its
exact value is computed in ``Fraction`` alongside, and each node draws its
operation among those whose precondition holds exactly on its arguments'
values (``half`` and ``average`` always do).  The streams
built from a tree must decode to within ``2**-n`` of the exact value, and
every ``average`` in it must read at most ``k + 1`` symbols of each input
for the ``k`` symbols read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from streamreal import gray_ops, sd_ops
from streamreal.kernel import take_gray_prefix, take_prefix, with_force_count
from tests.support import within

DIGITS = 40
MAX_DEPTH = 12
MAX_NODES = 40
MAX_DIVISIONS = 2  # each nested division triples the input digits read
QUARTER = Fraction(1, 4)

ARITY = {"negate": 1, "half": 1, "double": 1, "add_one": 1, "sub_one": 1, "convert": 1,
         "average": 2, "twice_minus": 2, "twice_plus": 2, "divide": 2}


@dataclass(frozen=True)
class Expr:
    op: str
    args: tuple
    value: Fraction


def _exact(op: str, x: Fraction, y: Fraction | None = None) -> Fraction | None:
    """Exact value of ``op`` on ``x`` (and ``y``), or None when its precondition fails."""
    if op == "negate":
        return -x
    if op == "half":
        return x / 2
    if op == "convert":
        return x
    if op == "double":
        return 2 * x if abs(x) <= Fraction(1, 2) else None
    if op == "add_one":
        return x + 1 if x <= 0 else None
    if op == "sub_one":
        return x - 1 if x >= 0 else None
    if op == "average":
        return (x + y) / 2
    if op == "twice_minus":
        return 2 * x - y if QUARTER <= y and 0 <= x <= y else None
    if op == "twice_plus":
        return 2 * x + y if QUARTER <= y and -y <= x <= 0 else None
    return x / y if QUARTER <= y and abs(x) <= y else None  # divide


@st.composite
def expressions(draw):
    depth_limit = draw(st.integers(1, MAX_DEPTH))
    budget = {"nodes": MAX_NODES, "divisions": MAX_DIVISIONS}

    def grow(depth: int) -> Expr:
        budget["nodes"] -= 1
        if depth == depth_limit or budget["nodes"] <= 0 or draw(st.integers(0, 4)) == 0:
            return Expr("leaf", (), draw(st.fractions(-1, 1, max_denominator=1000)))
        arity = draw(st.sampled_from([1, 1, 2]))
        args = tuple(grow(depth + 1) for _ in range(arity))
        values = [arg.value for arg in args]
        valid = [op for op in sorted(ARITY) if ARITY[op] == arity
                 and (op != "divide" or budget["divisions"] > 0)
                 and _exact(op, *values) is not None]
        op = draw(st.sampled_from(valid))
        budget["divisions"] -= op == "divide"
        return Expr(op, args, _exact(op, *values))

    return grow(0)


CONVERT = {"sd": lambda u: gray_ops.to_sd(gray_ops.from_sd(u)),
           "gray": lambda g: gray_ops.from_sd(gray_ops.to_sd(g))}


def _build(expr: Expr, code: str, averages: list):
    ops = sd_ops if code == "sd" else gray_ops
    if expr.op == "leaf":
        return ops.encode(expr.value)
    args = [_build(arg, code, averages) for arg in expr.args]
    if expr.op == "convert":
        return CONVERT[code](args[0])
    if expr.op == "average":
        (a, count_a), (b, count_b) = with_force_count(args[0]), with_force_count(args[1])
        out, count_out = with_force_count(ops.average(a, b))
        averages.append((count_a, count_b, count_out))
        return out
    return getattr(ops, expr.op)(*args)


@settings(max_examples=100, deadline=None)
@given(expressions(), st.sampled_from(["sd", "gray"]))
def test_nested_expressions_match_oracle_and_average_look_ahead(expr, code):
    averages: list = []
    root = _build(expr, code, averages)
    take = take_prefix if code == "sd" else take_gray_prefix
    take(root, DIGITS)
    decoded = (sd_ops if code == "sd" else gray_ops).decode(root, DIGITS)
    assert within(decoded, expr.value, DIGITS)
    for count_a, count_b, count_out in averages:
        assert max(count_a.count, count_b.count) <= count_out.count + 1
