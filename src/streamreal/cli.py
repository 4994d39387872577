"""Command-line front end: encoding, operations, division and the benchmark.

Wire formats
    signed digits   one character per digit: ``+`` ``0`` ``-`` (e.g. ``+000``)
    Gray code       space-separated tokens: ``R``/``L`` (mode-G sign +1/-1),
                    ``Fr``/``Fl`` (mode-H sign +1/-1), ``U``/``D`` (delays)

Exit codes: 0 success, 2 parse error, 3 precondition violation or a run
that does not fit in memory: a command that raises ``MemoryError`` prints
one line to standard error and no traceback.  Digit output goes to
standard output, one result per line; ``--stats`` adds a trailing
``key=value`` report line.

``encode``, ``op`` and ``div`` check their arguments and then share one
runner, :func:`_run`.  Every command computes in signed digits: each input
is the signed-digit encoding of its rational behind a force counter, the
:mod:`streamreal.sd_ops` function runs on those streams, and only its
result is lifted into the output coding.  ``--stats`` therefore counts the
digits forced on each input, the same numbers in both codings, and decodes
the signed-digit result (equal to the Gray midpoint of the same prefix).
``--code`` is the one output switch: :func:`_prefix`, shared with
``bench``, reads the result in the coding it names.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from fractions import Fraction
from typing import Callable

from . import gray_ops, sd_ops
from .digits import _is_decimal, format_rational, parse_rational
from .kernel import SdStream, take_gray_prefix, take_prefix, with_force_count

_BENCH_NUMERATOR = Fraction(1001, 3001)
_BENCH_DENOMINATOR = Fraction(10001, 20001)
_BENCH_MIN_SECONDS = 0.2

_SD_CHARS = {1: "+", 0: "0", -1: "-"}
_GRAY_TOKENS = {("g", 1): "R", ("g", -1): "L", ("g", None): "U",
                ("h", 1): "Fr", ("h", -1): "Fl", ("h", None): "D"}


class _CliFailure(Exception):
    """Carries the exit code and message for a failed command."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def sd_to_text(digits: list[int]) -> str:
    return "".join(_SD_CHARS[d] for d in digits)


def gray_to_text(prefix: list[tuple[str, int | None]]) -> str:
    return " ".join(_GRAY_TOKENS[entry] for entry in prefix)


def _prefix(u: SdStream, n: int, code: str) -> list:
    """The first ``n`` symbols of the signed-digit stream ``u`` lifted into
    the coding ``code``."""
    if code == "gray":
        return take_gray_prefix(gray_ops.from_sd(u), n)
    return take_prefix(u, n)


def report_line(n: int, counts: list[int], elapsed: float,
                decoded: Fraction, exact: Fraction) -> str:
    """The ``--stats`` line of a run that printed ``n`` symbols; ``counts``
    holds the symbols forced on each input, in order (``u``, then ``v``)."""
    parts = [f"digits-produced={n}"]
    parts += [f"{name}-forced={count}" for name, count in zip("uv", counts)]
    parts.append(f"elapsed={elapsed:.6f}")
    parts.append(f"decoded-value={format_rational(decoded)}")
    parts.append(f"exact-value={format_rational(exact)}")
    bound_ok = abs(decoded - exact) <= Fraction(1, 1 << n)
    parts.append(f"error-bound-ok={'true' if bound_ok else 'false'}")
    return " ".join(parts)


def _parse_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise _CliFailure(2, f"error: {exc}") from exc


def _require(condition: bool, message: Callable[[], str]) -> None:
    """Exit 3 naming the inequality that failed; ``message`` builds its text
    only when ``condition`` is false."""
    if not condition:
        raise _CliFailure(3, f"precondition violated: {message()}")


def _require_unit(a: Fraction, name: str) -> None:
    _require(-1 <= a <= 1, lambda: f"-1 <= {name} <= 1 ({name} = {format_rational(a)})")


def _run(args, op: Callable, values: list[Fraction], exact: Fraction) -> int:
    """Print ``args.digits`` symbols of the signed-digit ``op`` on the inputs
    ``values``, lifted into the coding ``args.code``; under ``args.stats``
    decode them and print the report line against the ``exact`` value."""
    n = args.digits
    _require(n >= 1, lambda: f"--digits >= 1 (--digits = {n})")
    to_text = gray_to_text if args.code == "gray" else sd_to_text
    inputs = [with_force_count(sd_ops.encode(a)) for a in values]
    u = op(*[stream for stream, _ in inputs])
    start = time.perf_counter()
    text = to_text(_prefix(u, n, args.code))
    elapsed = time.perf_counter() - start
    print(text)
    if args.stats:
        counts = [counter.count for _, counter in inputs]
        print(report_line(n, counts, elapsed, sd_ops.decode(u, n), exact))
    return 0


def _cmd_encode(args) -> int:
    a = _parse_arg(args.value)
    _require_unit(a, "a")
    return _run(args, lambda x: x, [a], a)


# op name -> (signed-digit operation, exact value); convert is the round
# trip through the Gray coding, and to_sd hands back the unforced view's
# source, so it converts no symbol and prints what encode prints
_OPS = {
    "neg": (sd_ops.negate, lambda a: -a),
    "half": (sd_ops.half, lambda a: a / 2),
    "double": (sd_ops.double, lambda a: 2 * a),
    "add1": (sd_ops.add_one, lambda a: a + 1),
    "sub1": (sd_ops.sub_one, lambda a: a - 1),
    "avg": (sd_ops.average, lambda a, b: (a + b) / 2),
    "convert": (lambda u: gray_ops.to_sd(gray_ops.from_sd(u)), lambda a: a),
}


def _check_op_preconditions(name: str, values: list[Fraction]) -> None:
    a = values[0]
    _require_unit(a, "a")
    if name == "avg":
        _require_unit(values[1], "b")
    elif name == "double":
        _require(abs(a) <= Fraction(1, 2), lambda: f"|a| <= 1/2 (a = {format_rational(a)})")
    elif name == "add1":
        _require(a <= 0, lambda: f"a <= 0 (a = {format_rational(a)})")
    elif name == "sub1":
        _require(a >= 0, lambda: f"0 <= a (a = {format_rational(a)})")


def _cmd_op(args) -> int:
    values = [_parse_arg(text) for text in args.values]
    name = args.name
    if name == "avg":
        if len(values) != 2:
            raise _CliFailure(2, "error: avg needs exactly two rationals")
    elif len(values) != 1:
        raise _CliFailure(2, f"error: {name} needs exactly one rational")
    _check_op_preconditions(name, values)
    op, exact_op = _OPS[name]
    return _run(args, op, values, exact_op(*values))


def _check_div_preconditions(x: Fraction, y: Fraction) -> None:
    _require(Fraction(1, 4) <= y, lambda: f"1/4 <= y (y = {format_rational(y)})")
    _require(y <= 1, lambda: f"y <= 1 (y = {format_rational(y)})")
    _require(abs(x) <= y, lambda: f"|x| <= y (x = {format_rational(x)}, y = {format_rational(y)})")


def _cmd_div(args) -> int:
    x = _parse_arg(args.numerator)
    y = _parse_arg(args.denominator)
    _check_div_preconditions(x, y)
    return _run(args, sd_ops.divide, [x, y], x / y)


def _count(text: str) -> int:
    """A ``--digits`` count: ASCII decimal digits with an optional leading
    ``-``.  ``int`` alone also takes other scripts' digits, ``_`` and
    surrounding space."""
    digits = text[1:] if text[:1] == "-" else text
    try:
        if not _is_decimal(digits):
            raise ValueError
        return int(text)  # also raises past int's digit limit
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_digit_list(text: str) -> list[int]:
    try:
        counts = [_count(part) for part in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise _CliFailure(2, f"error: cannot parse digit list: {text!r}") from exc
    if any(c <= 0 for c in counts):
        raise _CliFailure(3, "precondition violated: digit counts must be positive")
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise _CliFailure(3, "precondition violated: digit counts must be ascending")
    return counts


def _time_division(n: int, code: str) -> float:
    """Median time of the bench division to ``n`` symbols (the upper
    median of an even number of runs).

    The division runs until ``_BENCH_MIN_SECONDS`` of timed runs have passed,
    at least once, so a count that takes longer is timed once and a short
    one is not left to the host's noise.  The first run in a process also
    pays for what is done once, such as loading the signed-digit tower and
    filling its tables; at a short count the median leaves that out too.
    """
    times: list[float] = []
    total = 0.0
    while total < _BENCH_MIN_SECONDS:
        u = sd_ops.divide(sd_ops.encode(_BENCH_NUMERATOR), sd_ops.encode(_BENCH_DENOMINATOR))
        start = time.perf_counter()
        _prefix(u, n, code)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return sorted(times)[len(times) // 2]


def _cmd_bench(args) -> int:
    counts = _parse_digit_list(args.digits)
    times = []
    for n in counts:
        elapsed = _time_division(n, args.code)
        times.append(elapsed)
        print(f"digits={n} elapsed={elapsed:.6f}")
    if len(counts) > 1:
        t_lo = max(times[0], 1e-9)
        t_hi = max(times[-1], 1e-9)
        exponent = math.log(t_hi / t_lo) / math.log(counts[-1] / counts[0])
        print(f"growth-exponent={exponent:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamreal",
        description="Exact real arithmetic on signed-digit and Gray-coded streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, digits_default: int) -> None:
        p.add_argument("--digits", type=_count, default=digits_default,
                       help="number of output symbols")
        p.add_argument("--code", choices=("sd", "gray"), default="sd",
                       help="output coding (default sd)")

    p_encode = sub.add_parser("encode", help="print the canonical code of a rational")
    p_encode.add_argument("value", help="rational in [-1,1], e.g. 1/2 or -3/4")
    common(p_encode, 16)
    p_encode.set_defaults(func=_cmd_encode, stats=False)

    p_op = sub.add_parser("op", help="apply a stream operation to rational inputs")
    p_op.add_argument("name", choices=tuple(_OPS))
    p_op.add_argument("values", nargs="+", help="one rational (two for avg)")
    common(p_op, 16)
    p_op.add_argument("--stats", action="store_true", help="append a run report line")
    p_op.set_defaults(func=_cmd_op)

    p_div = sub.add_parser("div", help="divide two rationals digit by digit")
    p_div.add_argument("numerator")
    p_div.add_argument("denominator")
    common(p_div, 19)
    p_div.add_argument("--stats", action="store_true", help="append a run report line")
    p_div.set_defaults(func=_cmd_div)

    p_bench = sub.add_parser("bench", help="time the division benchmark at growing digit counts "
                                           "(median of the runs that fill 0.2 s, at least one)")
    p_bench.add_argument("--digits", default="10,100,1000",
                         help="comma-separated ascending digit counts")
    p_bench.add_argument("--code", choices=("sd", "gray"), default="sd")
    p_bench.set_defaults(func=_cmd_bench)

    # a leading-dash rational like -3/4 must parse as a positional, not an option
    negative_rational = re.compile(r"^-\d+(/\d+)?$")
    for p in (parser, p_encode, p_op, p_div, p_bench):
        p._negative_number_matcher = negative_rational

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as failure:
        print(failure, file=sys.stderr)
        return failure.exit_code
    except MemoryError:
        print("error: out of memory; ask for fewer --digits", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
