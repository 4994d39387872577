"""Seeded input generators for the benchmark workloads.

Every job is generated from ``(workload, seed, pass index)`` alone, so the
same seed gives the same inputs on any commit.  Each generated operation has
its precondition checked exactly with :class:`fractions.Fraction` before it
is emitted; a violation raises :class:`PreconditionError` instead of
handing the program an input outside its contract.

A run is a sequence of *passes*.  Every pass of a workload has the same
composition (the same digit counts, command kinds and share of deep or
misuse jobs); only the rationals and the order change.  Any whole number of
passes therefore has the same mix, which keeps percentiles comparable
between runs that complete different numbers of passes.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)
MAX_DEN = 10_000


class PreconditionError(ValueError):
    """A generated input violates the precondition of its operation."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise PreconditionError(what)


def check_unit(a: Fraction) -> None:
    _require(-1 <= a <= 1, f"-1 <= a <= 1 (a = {a})")


def check_division(x: Fraction, y: Fraction) -> None:
    _require(QUARTER <= y <= 1, f"1/4 <= y <= 1 (y = {y})")
    _require(abs(x) <= y, f"|x| <= y (x = {x}, y = {y})")


# name -> (arity, exact value, precondition); preconditions take the exact
# argument values and assume each is already in [-1, 1].
DAG_OPS = {
    "negate": (1, lambda a: -a, lambda a: True),
    "half": (1, lambda a: a / 2, lambda a: True),
    "double": (1, lambda a: 2 * a, lambda a: abs(a) <= HALF),
    "add_one": (1, lambda a: a + 1, lambda a: a <= 0),
    "sub_one": (1, lambda a: a - 1, lambda a: a >= 0),
    "average": (2, lambda a, b: (a + b) / 2, lambda a, b: True),
    "twice_minus": (2, lambda a, b: 2 * a - b, lambda a, b: QUARTER <= b <= 1 and 0 <= a <= b),
    "twice_plus": (2, lambda a, b: 2 * a + b, lambda a, b: QUARTER <= b <= 1 and -b <= a <= 0),
    "convert": (1, lambda a: a, lambda a: True),
}

# The CLI's op names for the same operations.
CLI_OPS = {cli: DAG_OPS[name] for cli, name in (
    ("neg", "negate"), ("half", "half"), ("double", "double"), ("add1", "add_one"),
    ("sub1", "sub_one"), ("avg", "average"), ("convert", "convert"))}


def check_op(table: dict, name: str, args: tuple) -> Fraction:
    """Exact value of ``name(*args)``; raises if a precondition fails."""
    arity, value, pre = table[name]
    _require(len(args) == arity, f"{name} takes {arity} arguments")
    for a in args:
        check_unit(a)
    _require(pre(*args), f"precondition of {name}{tuple(map(str, args))}")
    result = value(*args)
    check_unit(result)
    return result


def unit_rational(rng: random.Random, max_den: int = MAX_DEN) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-den, den), den)


def division_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """(x, y) with ``1/4 <= y <= 1`` and ``|x| <= y``, denominators <= 10^4."""
    den = rng.randint(4, MAX_DEN)
    y = Fraction(rng.randint(-(-den // 4), den), den)
    den_x = rng.randint(1, MAX_DEN)
    limit = math.floor(y * den_x)
    x = Fraction(rng.randint(-limit, limit), den_x)
    check_division(x, y)
    return x, y


def log_grid(lo: int, hi: int, k: int) -> list[int]:
    """Midpoints of ``k`` equal-probability strata of log-uniform [lo, hi]."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / k)) for i in range(k)]


# --- division workloads ----------------------------------------------------

@dataclass(frozen=True)
class DivJob:
    code: str  # "sd" or "gray"
    x: Fraction
    y: Fraction
    n: int


# With 25 or 45 strata, p50 and p90 each fall in the middle of one
# stratum's jobs, not on the step between two digit counts.  Gray division
# times spread more with the inputs, so its pass holds more strata.
DIV_STRATA = {"sd": 25, "gray": 45}
DIV_DIGITS = {"sd": (64, 512), "gray": (32, 256)}


def div_pass(code: str, rng: random.Random) -> list[DivJob]:
    jobs = [DivJob(code, *division_pair(rng), n)
            for n in log_grid(*DIV_DIGITS[code], DIV_STRATA[code])]
    rng.shuffle(jobs)
    return jobs


# --- expression DAGs ---------------------------------------------------------

@dataclass(frozen=True)
class Node:
    op: str  # "leaf" or a DAG_OPS name
    args: tuple[int, ...]
    code: str  # coding of this node's stream
    value: Fraction
    depth: int


@dataclass(frozen=True)
class DagJob:
    nodes: tuple[Node, ...]  # leaves first, then operations in build order
    sinks: tuple[int, ...]
    n: int
    cauchy_p: int | None  # precision of the Cauchy combination, if any


DAG_JOBS_PER_PASS = 20  # one deep job and five Cauchy jobs in each
DAG_LEAVES = 4
DAG_DIGITS = 128
DAG_DEPTH = 48
DAG_DEEP_SPINE = 160
CAUCHY_P = 64
_RECENT = 6
_SPINE_OPS = tuple(name for name in DAG_OPS if name != "convert")


def _pick(rng: random.Random, pool: list[int]) -> int:
    if rng.random() < 0.85:
        return rng.choice(pool[-_RECENT:])
    return rng.choice(pool)


def _try_op(rng, nodes, name, first=None):
    """Arguments for ``name`` drawn from ``nodes``, or None if none qualify.

    ``first`` pins the first argument (the spine of a deep DAG).
    """
    arity, _, pre = DAG_OPS[name]
    shallow = [i for i, node in enumerate(nodes) if node.depth < DAG_DEPTH]
    if first is not None:
        firsts = [first] if (arity == 2 or pre(nodes[first].value)) else []
    else:
        firsts = [i for i in shallow if arity == 2 or pre(nodes[i].value)]
    if not firsts:
        return None
    a = _pick(rng, firsts)
    if arity == 1:
        return (a,)
    seconds = [j for j in shallow
               if nodes[j].code == nodes[a].code and pre(nodes[a].value, nodes[j].value)]
    if not seconds:
        return None
    return a, _pick(rng, seconds)


def _add_op(rng, nodes, first=None, names=tuple(DAG_OPS)) -> int:
    while True:
        name = rng.choice(names)
        args = _try_op(rng, nodes, name, first)
        if args is None:
            continue
        src = nodes[args[0]]
        code = ("gray" if src.code == "sd" else "sd") if name == "convert" else src.code
        value = check_op(DAG_OPS, name, tuple(nodes[i].value for i in args))
        depth = 1 + max(nodes[i].depth for i in args)
        nodes.append(Node(name, args, code, value, depth))
        return len(nodes) - 1


def dag_job(rng: random.Random, n_ops: int, deep: bool, cauchy: bool,
            spine_code: str = "sd", spine_ops: tuple[str, ...] = _SPINE_OPS) -> DagJob:
    """``n_ops`` operations over four leaves in alternating codings.

    A deep job first grows a spine of 160 operations drawn from
    ``spine_ops`` in ``spine_code``, each consuming the previous one, and
    keeps the spine's tip as a sink.  Timed jobs grow SD spines: a Gray
    spine this deep can overflow the recursion limit, a known defect that
    :func:`defect_probes` reproduces in every run instead.
    """
    nodes = [Node("leaf", (), "sd" if i % 2 == 0 else "gray", unit_rational(rng, 1000), 0)
             for i in range(DAG_LEAVES)]
    tip = None
    if deep:
        tip = rng.choice([i for i, leaf in enumerate(nodes) if leaf.code == spine_code])
        for _ in range(DAG_DEEP_SPINE):
            tip = _add_op(rng, nodes, first=tip, names=spine_ops)
    for _ in range(n_ops):
        _add_op(rng, nodes)
    consumed = {i for node in nodes for i in node.args}
    free = [i for i in range(DAG_LEAVES, len(nodes)) if i not in consumed and i != tip]
    rest = [i for i in range(len(nodes) - 1, DAG_LEAVES - 1, -1) if i not in free and i != tip]
    sinks = ([] if tip is None else [tip]) + (free[::-1] + rest)
    return DagJob(tuple(nodes), tuple(sinks[:3]), DAG_DIGITS, CAUCHY_P if cauchy else None)


def dag_pass(rng: random.Random) -> list[DagJob]:
    """Operation counts at the midpoints of 20 equal strata of 60-120."""
    k = DAG_JOBS_PER_PASS
    jobs = [dag_job(rng, 60 + round(60 * (i + 0.5) / k), deep=(i == k // 2), cauchy=(i % 4 == 1))
            for i in range(k)]
    rng.shuffle(jobs)
    return jobs


# --- CLI mix -----------------------------------------------------------------

@dataclass(frozen=True)
class CliJob:
    argv: tuple[str, ...]
    # For a valid command: its coding, digit count, exact value, whether it
    # prints a --stats line and which look-ahead bound that line must meet
    # ("avg" or "div").
    code: str | None = None
    n: int | None = None
    exact: Fraction | None = None
    stats: bool = False
    bound: str | None = None
    # For a misuse: the accepted exit codes.
    expect_exit: tuple[int, ...] = (0,)


MISUSE_KINDS = ("bad-rational", "precondition")
BAD_RATIONALS = ("1/0", "abc", "1/-2", "2/3/4", "0x10/3", "1.5")


def fmt(a: Fraction) -> str:
    return f"{a.numerator}/{a.denominator}"


def _op_args(rng: random.Random, name: str) -> tuple[Fraction, ...]:
    a = unit_rational(rng)
    if name == "double":
        a /= 2
    elif name == "add1":
        a = -abs(a)
    elif name == "sub1":
        a = abs(a)
    return (a, unit_rational(rng)) if name == "avg" else (a,)


def _valid_cli(rng: random.Random, kind: str, code: str, stats: bool) -> CliJob:
    n = rng.randint(16, 64)
    tail = ("--digits", str(n), "--code", code)
    if kind == "encode":
        a = unit_rational(rng)
        check_unit(a)
        return CliJob(("encode", fmt(a)) + tail, code, n, a)
    if kind == "div":
        x, y = division_pair(rng)
        return CliJob(("div", fmt(x), fmt(y)) + tail + ("--stats",), code, n, x / y, True, "div")
    args = _op_args(rng, kind)
    exact = check_op(CLI_OPS, kind, args)
    flag = ("--stats",) if stats else ()
    return CliJob(("op", kind) + tuple(map(fmt, args)) + tail + flag, code, n, exact,
                  stats, "avg" if kind == "avg" else None)


def _violating(rng: random.Random) -> tuple[str, ...]:
    """A command whose arguments parse but break its precondition."""
    den = rng.randint(2, MAX_DEN)
    big = Fraction(den + rng.randint(1, den), den)  # 1 < big <= 2
    small = Fraction(rng.randint(1, den), 4 * den + 1)  # 0 < small < 1/4
    choice = rng.randrange(5)
    if choice == 0:
        cmd, vals, ok = ("encode",), (big,), lambda: -1 <= big <= 1
    elif choice == 1:
        a = Fraction(rng.randint(den + 1, 2 * den), 2 * den)  # 1/2 < a <= 1
        cmd, vals, ok = ("op", "double"), (a,), lambda: abs(a) <= HALF
    elif choice == 2:
        a = Fraction(rng.randint(1, den), den)
        cmd, vals, ok = ("op", "add1"), (a,), lambda: a <= 0
    elif choice == 3:
        cmd, vals, ok = ("div", ), (small / 2, small), lambda: QUARTER <= small
    else:
        y = Fraction(rng.randint(-(-den // 4), den - 1), den)
        x = -(y + Fraction(1, den))  # |x| > y
        cmd, vals, ok = ("div",), (x, y), lambda: abs(x) <= y
    _require(not ok(), "a misuse command must violate its precondition")
    return cmd + tuple(map(fmt, vals)) + ("--digits", str(rng.randint(16, 64)))


def misuse_cli(rng: random.Random, kind: str) -> CliJob:
    if kind == "bad-rational":
        bad = rng.choice(BAD_RATIONALS)
        argv = rng.choice([("encode", bad), ("op", "neg", bad), ("div", bad, "1/2")])
        return CliJob(argv + ("--digits", str(rng.randint(16, 64))), expect_exit=(2,))
    if kind == "precondition":
        return CliJob(_violating(rng), expect_exit=(3,))
    raise ValueError(f"unknown misuse kind: {kind}")


def bad_digits_cli(rng: random.Random, kind: str, code: str, digits: int) -> CliJob:
    """A valid command with a non-positive digit count; exit 2 or 3 is due."""
    argv = list(_valid_cli(rng, kind, code, False).argv)
    argv[argv.index("--digits") + 1] = str(digits)
    return CliJob(tuple(argv), expect_exit=(2, 3))


# Commands of each kind per coding and pass.  Divisions are 3 of every 20
# commands, so p90 falls inside their spread of times, not at the step
# between the ops and the divisions.
CLI_MIX = {"encode": 2, **{name: 2 for name in CLI_OPS}, "div": 3}


def cli_pass(rng: random.Random) -> list[CliJob]:
    """38 valid commands and 2 misuses (1 in 20).

    Per coding: 2 encodes, each of the 7 op names twice (once with
    --stats), 3 divisions with --stats.  The misuses are one bad rational
    and one violated precondition.
    """
    jobs = [_valid_cli(rng, kind, code, i % 2 == 1)
            for code in ("sd", "gray") for kind, count in CLI_MIX.items() for i in range(count)]
    jobs.extend(misuse_cli(rng, kind) for kind in MISUSE_KINDS)
    rng.shuffle(jobs)
    return jobs


# --- workloads ---------------------------------------------------------------

def make_pass(workload: str, seed: int, index: int) -> list:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "div-sd":
        return div_pass("sd", rng)
    if workload == "div-gray":
        return div_pass("gray", rng)
    if workload == "expr-dag":
        return dag_pass(rng)
    if workload == "cli-mix":
        return cli_pass(rng)
    raise ValueError(f"unknown workload: {workload}")


WORKLOADS = ("div-sd", "div-gray", "expr-dag", "cli-mix")
FINGERPRINT_PASSES = 5


def passes(workload: str, seed: int) -> Iterator[list]:
    index = 0
    while True:
        yield make_pass(workload, seed, index)
        index += 1


def defect_probes(workload: str, seed: int) -> list:
    """Inputs that hit the program's known defects, run apart from the timing.

    The timed jobs are ones the program handles, so a run's failure count
    does not depend on how many jobs fit in its time.  These probes show
    the defects in every run instead: a 160-deep spine of Gray averages
    overflows the recursion limit, and a non-positive ``--digits`` makes
    the CLI raise ``ValueError`` (negative) or exit 0 (zero).
    """
    rng = random.Random(f"{workload}:{seed}:probe")
    if workload == "expr-dag":
        return [dag_job(rng, 8, deep=True, cauchy=False, spine_code="gray", spine_ops=("average",))]
    if workload == "cli-mix":
        return [bad_digits_cli(rng, "encode", "sd", -3), bad_digits_cli(rng, "avg", "gray", 0)]
    return []


def fingerprint(workload: str, seed: int) -> str:
    """Hash of the first passes' and the probes' inputs; equal seeds give
    equal inputs."""
    h = hashlib.sha256()
    jobs = [job for index in range(FINGERPRINT_PASSES) for job in make_pass(workload, seed, index)]
    for job in jobs + defect_probes(workload, seed):
        h.update(repr(job).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
