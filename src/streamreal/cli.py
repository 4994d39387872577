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

``encode``, ``div`` and each ``op`` name are rows of one table,
``_ROWS``, that names the signed-digit operation, the exact value and the
preconditions, and one handler, :func:`_compute`, runs every row.  Every
command computes in signed digits: each input is the signed-digit encoding
of its rational behind a force counter, the :mod:`streamreal.sd_ops`
function runs on those streams, and only its result is lifted into the
output coding.  ``--stats`` therefore counts the digits forced on each
input, the same numbers in both codings, and decodes the signed-digit
result (equal to the Gray midpoint of the same prefix).
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

from . import sd_ops
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
        from .gray_ops import from_sd  # loaded by the first Gray command, not the CLI

        return take_gray_prefix(from_sd(u), n)
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


def _convert(u: SdStream) -> SdStream:
    """The round trip of ``u`` through the Gray coding; ``to_sd`` hands back
    the unforced view's source, so it converts no symbol."""
    from .gray_ops import from_sd, to_sd

    return to_sd(from_sd(u))


_A_IN_UNIT = (lambda a, *_: -1 <= a <= 1, "-1 <= a <= 1")

# command or op name -> (signed-digit operation, exact value, preconditions
# in the order they are checked, each a test on the operands and the
# inequality it names); convert prints what encode prints
_ROWS = {
    "encode": (lambda u: u, lambda a: a, [_A_IN_UNIT]),
    "neg": (sd_ops.negate, lambda a: -a, [_A_IN_UNIT]),
    "half": (sd_ops.half, lambda a: a / 2, [_A_IN_UNIT]),
    "double": (sd_ops.double, lambda a: 2 * a,
               [_A_IN_UNIT, (lambda a: abs(a) <= Fraction(1, 2), "|a| <= 1/2")]),
    "add1": (sd_ops.add_one, lambda a: a + 1, [_A_IN_UNIT, (lambda a: a <= 0, "a <= 0")]),
    "sub1": (sd_ops.sub_one, lambda a: a - 1, [_A_IN_UNIT, (lambda a: a >= 0, "0 <= a")]),
    "avg": (sd_ops.average, lambda a, b: (a + b) / 2,
            [_A_IN_UNIT, (lambda a, b: -1 <= b <= 1, "-1 <= b <= 1")]),
    "convert": (_convert, lambda a: a, [_A_IN_UNIT]),
    "div": (sd_ops.divide, lambda x, y: x / y, [(lambda x, y: Fraction(1, 4) <= y, "1/4 <= y"),
                                                (lambda x, y: y <= 1, "y <= 1"),
                                                (lambda x, y: abs(x) <= y, "|x| <= y")]),
}
_OPS = tuple(name for name in _ROWS if name not in ("encode", "div"))


def _compute(args) -> int:
    """Run the row of ``encode``, ``div`` or the op ``args.name``: parse the
    operands (exit 2), check the op's operand count (exit 2), the row's
    preconditions and ``--digits >= 1`` (exit 3), then print
    ``args.digits`` symbols of the signed-digit operation on the operands'
    encodings, lifted into the coding ``args.code``; under ``args.stats``
    decode them and print the report line against the exact value."""
    name = getattr(args, "name", args.command)  # an op's name, else the command
    texts = [args.numerator, args.denominator] if name == "div" else args.values
    try:
        values = [parse_rational(text) for text in texts]
    except ValueError as exc:
        raise _CliFailure(2, f"error: {exc}") from exc
    arity = 2 if name in ("avg", "div") else 1
    if len(values) != arity:
        count = "two rationals" if arity == 2 else "one rational"
        raise _CliFailure(2, f"error: {name} needs exactly {count}")
    op, exact, preconditions = _ROWS[name]
    for test, inequality in preconditions:
        if not test(*values):
            # the message gives the value of each operand the inequality names
            operands = "xy" if name == "div" else "ab"
            named = [f"{var} = {format_rational(value)}" for var, value in zip(operands, values)
                     if var in inequality]
            raise _CliFailure(3, f"precondition violated: {inequality} ({', '.join(named)})")
    n = args.digits
    if n < 1:
        raise _CliFailure(3, f"precondition violated: --digits >= 1 (--digits = {n})")
    to_text = gray_to_text if args.code == "gray" else sd_to_text
    inputs = [with_force_count(sd_ops.encode(a)) for a in values]
    u = op(*[stream for stream, _ in inputs])
    start = time.perf_counter()
    text = to_text(_prefix(u, n, args.code))
    elapsed = time.perf_counter() - start
    print(text)
    if args.stats:
        counts = [counter.count for _, counter in inputs]
        print(report_line(n, counts, elapsed, sd_ops.decode(u, n), exact(*values)))
    return 0


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
    p_encode.add_argument("values", nargs=1, metavar="value",
                          help="rational in [-1,1], e.g. 1/2 or -3/4")
    common(p_encode, 16)
    p_encode.set_defaults(func=_compute, stats=False)

    p_op = sub.add_parser("op", help="apply a stream operation to rational inputs")
    p_op.add_argument("name", choices=_OPS)
    p_op.add_argument("values", nargs="+", help="one rational (two for avg)")
    common(p_op, 16)
    p_op.add_argument("--stats", action="store_true", help="append a run report line")
    p_op.set_defaults(func=_compute)

    p_div = sub.add_parser("div", help="divide two rationals digit by digit")
    p_div.add_argument("numerator")
    p_div.add_argument("denominator")
    common(p_div, 19)
    p_div.add_argument("--stats", action="store_true", help="append a run report line")
    p_div.set_defaults(func=_compute)

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
