"""Independent output checker.

Nothing here calls the program: signed digits are summed directly, Gray
tokens are decoded by composing the affine maps of the sign-node semantics,
and both are compared with the exact ``Fraction`` value.  A wrong output
raises :class:`Wrong`; a command that ends with an unexpected exit code
raises :class:`Failed`.
"""

from __future__ import annotations

from fractions import Fraction

from gen import CliJob, DagJob, DivJob


class Failed(Exception):
    """The job did not end as specified."""


class Wrong(Failed):
    """The program produced an output that fails the check."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise Wrong(what)


def sd_value(digits: list[int]) -> Fraction:
    """``sum(d_k * 2**-k)`` over the prefix."""
    acc = 0
    for d in digits:
        _require(d in (-1, 0, 1), f"not a signed digit: {d!r}")
        acc = 2 * acc + d
    return Fraction(acc, 1 << len(digits))


def gray_value(prefix: list[tuple[str, int | None]]) -> Fraction:
    """Midpoint of the interval a Gray prefix confines its value to.

    A mode-G sign node ``(s, g)`` denotes ``-s*(x_g - 1)/2``, a mode-H sign
    node ``s*(x_g + 1)/2`` and a delay ``x_h/2``.  The rest of a sign node is
    mode G and the rest of a delay mode H; the code starts in mode G.  The
    prefix maps the unknown rest ``t`` in [-1, 1] to ``scale*t + offset``.
    """
    scale, offset = Fraction(1), Fraction(0)
    mode = "g"
    for entry in prefix:
        _require(entry[0] == mode, f"constructor {entry} where mode {mode} is due")
        sign = entry[1]
        if sign is None:
            scale /= 2
            mode = "h"
            continue
        _require(sign in (-1, 1), f"not a proper sign: {sign!r}")
        offset += scale * sign / 2
        scale *= Fraction(-sign if mode == "g" else sign, 2)
        mode = "g"
    return offset


def check_value(value: Fraction, exact: Fraction, n: int, what: str) -> None:
    _require(abs(value - exact) <= Fraction(1, 1 << n),
             f"{what}: |{value} - {exact}| > 2^-{n}")


def check_prefix(code: str, prefix: list, exact: Fraction, n: int) -> Fraction:
    _require(len(prefix) == n, f"{len(prefix)} symbols where {n} are due")
    value = sd_value(prefix) if code == "sd" else gray_value(prefix)
    check_value(value, exact, n, f"{code} prefix")
    return value


def check_div(job: DivJob, result) -> int:
    """Returns the number of output digits checked."""
    digits, decoded, u_forced, v_forced = result
    value = check_prefix(job.code, digits, job.x / job.y, job.n)
    _require(decoded == value, f"program decode {decoded} != {value}")
    _require(u_forced <= 3 * job.n, f"numerator read {u_forced} > 3n = {3 * job.n}")
    _require(v_forced <= 3 * job.n - 1, f"denominator read {v_forced} > 3n-1")
    return job.n


def check_dag(job: DagJob, result) -> int:
    prefixes, decoded, approx = result
    values = []
    for sink, prefix, dec in zip(job.sinks, prefixes, decoded, strict=True):
        node = job.nodes[sink]
        value = check_prefix(node.code, prefix, node.value, job.n)
        _require(dec == value, f"program decode {dec} != {value}")
        values.append(node.value)
    if job.cauchy_p is not None:
        a, b, c = values
        check_value(approx, (a + b) * c, job.cauchy_p, "cauchy mul(add(a, b), c)")
    return job.n * len(job.sinks)


SD_CHARS = {"+": 1, "0": 0, "-": -1}
GRAY_TOKENS = {"R": ("g", 1), "L": ("g", -1), "U": ("g", None),
               "Fr": ("h", 1), "Fl": ("h", -1), "D": ("h", None)}


def parse_digit_line(code: str, line: str) -> list:
    if code == "sd":
        _require(all(ch in SD_CHARS for ch in line), f"bad signed-digit line {line!r}")
        return [SD_CHARS[ch] for ch in line]
    tokens = line.split()
    _require(all(t in GRAY_TOKENS for t in tokens), f"bad Gray line {line!r}")
    return [GRAY_TOKENS[t] for t in tokens]


def _stats(line: str) -> dict[str, str]:
    pairs = [part.partition("=") for part in line.split()]
    _require(all(sep for _, sep, _ in pairs), f"bad stats line {line!r}")
    return {key: val for key, _, val in pairs}


def check_cli(job: CliJob, result) -> int:
    """Checks exit code and output; a misuse must fail with a message."""
    code, out, err = result
    if code not in job.expect_exit:
        raise Failed(f"exit code {code}, expected {job.expect_exit}")
    if job.code is None:
        _require(out == "" and err.strip() != "" and "Traceback" not in err,
                 f"misuse must print only a message: {err!r}")
        return 0
    lines = out.splitlines()
    _require(len(lines) == (2 if job.stats else 1), f"{len(lines)} output lines")
    n = job.n
    value = check_prefix(job.code, parse_digit_line(job.code, lines[0]), job.exact, n)
    if job.stats:
        stats = _stats(lines[1])
        _require(stats.get("digits-produced") == str(n), "digits-produced")
        _require(stats.get("error-bound-ok") == "true", "error-bound-ok")
        _require(Fraction(stats.get("decoded-value", "x")) == value, "decoded-value")
        _require(Fraction(stats.get("exact-value", "x")) == job.exact, "exact-value")
        u, v = int(stats.get("u-forced", -1)), int(stats.get("v-forced", -1))
        if job.bound == "avg":
            _require(0 <= u <= n + 1 and 0 <= v <= n + 1, f"average read {u}, {v} > n+1")
        elif job.bound == "div":
            _require(0 <= u <= 3 * n and 0 <= v <= 3 * n - 1, f"division read {u}, {v}")
    return n
