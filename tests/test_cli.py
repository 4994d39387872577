from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamreal import cli, sd_ops
from streamreal.cli import gray_to_text, main, report_line, sd_to_text
from streamreal.digits import format_rational
from tests.support import text_to_gray, text_to_sd, within

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_fields(line):
    return dict(part.split("=", 1) for part in line.split())


# --- wire formats ---------------------------------------------------------

def test_sd_wire_roundtrip():
    digits = [1, 0, -1, 0, 1]
    text = sd_to_text(digits)
    assert text == "+0-0+"
    assert text_to_sd(text) == digits
    assert sd_to_text(text_to_sd("+000")) == "+000"


def test_gray_wire_roundtrip():
    prefix = [("g", 1), ("g", -1), ("g", None), ("h", 1), ("h", -1), ("h", None)]
    text = gray_to_text(prefix)
    assert text == "R L U Fr Fl D"
    assert text_to_gray(text) == prefix


def test_wire_rejects_garbage():
    with pytest.raises(ValueError):
        text_to_sd("+1")
    with pytest.raises(ValueError):
        text_to_gray("R X")


# --- encode ----------------------------------------------------------------

def test_encode_half(capsys):
    code, out, _ = run_cli(capsys, "encode", "1/2", "--digits", "4")
    assert code == 0
    assert out == "+000\n"


def test_encode_zero_sd_and_gray(capsys):
    code, out, _ = run_cli(capsys, "encode", "0", "--digits", "4")
    assert (code, out) == (0, "0000\n")
    code, out, _ = run_cli(capsys, "encode", "0", "--digits", "3", "--code", "gray")
    assert (code, out) == (0, "U D D\n")


def test_encode_parse_error_exit_2(capsys):
    for text in ("half", "1/²", "1" * 5000 + "/3", "1/" + "3" * 5000):
        code, _, err = run_cli(capsys, "encode", text)
        assert code == 2
        assert "cannot parse rational" in err


def test_encode_zero_denominator_exit_2(capsys):
    code, out, err = run_cli(capsys, "encode", "1/0")
    assert (code, out, err) == (2, "", "error: zero-denominator\n")


def test_encode_range_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "encode", "3/2")
    assert code == 3
    assert "precondition violated" in err


def test_non_positive_digits_exit_3(capsys):
    for argv in (["encode", "1/2"], ["op", "avg", "1/2", "1/4", "--code", "gray"],
                 ["div", "1/4", "1/2"]):
        for digits in ("-3", "0"):
            code, out, err = run_cli(capsys, *argv, "--digits", digits)
            assert (code, out) == (3, "")
            assert err == f"precondition violated: --digits >= 1 (--digits = {digits})\n"


@pytest.mark.parametrize("digits", ["١٠", "1_0", "+10", " 10", "-١", "²"])
def test_digits_other_than_ascii_decimal_exit_2(capsys, digits):
    # int() takes other scripts' digits, "_", a "+" and surrounding space
    for argv in (["encode", "1/2"], ["op", "avg", "1/2", "1/4", "--code", "gray"],
                 ["div", "1/4", "1/2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--digits", digits])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"argument --digits: invalid int value: {digits!r}" in captured.err


# --- op ----------------------------------------------------------------------

def test_op_neg(capsys):
    code, out, _ = run_cli(capsys, "op", "neg", "1/2", "--digits", "4")
    assert (code, out) == (0, "-000\n")


def test_op_avg_decodes(capsys):
    code, out, _ = run_cli(capsys, "op", "avg", "1/2", "1/4", "--digits", "8")
    assert code == 0
    digits = text_to_sd(out.strip())
    value = sum(Fraction(d, 1 << (i + 1)) for i, d in enumerate(digits))
    assert within(value, Fraction(3, 8), 8)


def test_op_convert_gray(capsys):
    code, out, _ = run_cli(capsys, "op", "convert", "1/2", "--digits", "6", "--code", "gray")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "encode", "1/2", "--digits", "6", "--code", "gray")
    assert code2 == 0
    assert out == out2


def test_op_convert_sd_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "op", "convert", "-3/4", "--digits", "8")
    assert code == 0
    digits = text_to_sd(out.strip())
    value = sum(Fraction(d, 1 << (i + 1)) for i, d in enumerate(digits))
    assert within(value, Fraction(-3, 4), 8)


@pytest.mark.parametrize("code", ["sd", "gray"])
@pytest.mark.parametrize("value", ["63/199", "-3/4", "1/2", "0"])
def test_op_convert_is_the_encode_it_round_trips(capsys, value, code):
    # to_sd hands back the unforced view's source, so the round trip
    # converts no symbol: convert prints encode's symbols and forces one
    # input digit per symbol
    code1, out, _ = run_cli(capsys, "op", "convert", value, "--digits", "24", "--code", code, "--stats")
    code2, encoded, _ = run_cli(capsys, "encode", value, "--digits", "24", "--code", code)
    assert (code1, code2) == (0, 0)
    symbols, report = out.splitlines()
    assert symbols + "\n" == encoded
    assert report_fields(report)["u-forced"] == "24"


def test_op_stats_line(capsys):
    code, out, _ = run_cli(capsys, "op", "neg", "1/2", "--digits", "6", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-00000"
    fields = report_fields(lines[1])
    assert fields["digits-produced"] == "6"
    assert fields["error-bound-ok"] == "true"
    assert fields["exact-value"] == "-1/2"
    assert int(fields["u-forced"]) <= 6


def parse_big_int(text: str) -> int:
    """``int(text)`` past the interpreter's str-to-int digit limit, read
    1000 digits at a time."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def parse_big_rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(parse_big_int(num), parse_big_int(den))


def test_stats_print_a_decoded_value_past_the_int_to_str_limit(capsys):
    # the decoded value's denominator 2**14285 has 4301 decimal digits, one
    # past the interpreter's default limit for str(int); before Python
    # 3.10.7 there is no limit
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    code, out, err = run_cli(capsys, "op", "neg", "1/3", "--stats", "--digits", "14285")
    assert (code, err) == (0, "")
    fields = report_fields(out.splitlines()[1])
    assert len(fields["decoded-value"].split("/")[1]) == 4301
    expected = sd_ops.decode(sd_ops.negate(sd_ops.encode(Fraction(1, 3))), 14285)
    assert parse_big_rational(fields["decoded-value"]) == expected
    assert fields["exact-value"] == "-1/3"
    assert fields["error-bound-ok"] == "true"
    assert get_limit() == limit


def test_stats_print_an_exact_value_past_the_int_to_str_limit(capsys):
    # each input parses, but the average's denominator has about 8000 digits
    a = Fraction(1, int("7" * 4000))
    b = Fraction(1, int("3" * 3999 + "1"))
    code, out, err = run_cli(capsys, "op", "avg", f"1/{'7' * 4000}", f"1/{'3' * 3999}1", "--stats", "--digits", "4")
    assert (code, err) == (0, "")
    fields = report_fields(out.splitlines()[1])
    assert parse_big_rational(fields["exact-value"]) == (a + b) / 2
    assert fields["error-bound-ok"] == "true"


def test_op_precondition_exit_3(capsys):
    code, _, err = run_cli(capsys, "op", "add1", "1/2")
    assert code == 3
    assert "a <= 0" in err
    code, _, err = run_cli(capsys, "op", "double", "3/4")
    assert code == 3
    assert "|a| <= 1/2" in err


def test_op_avg_arity_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "op", "avg", "1/2")
    assert code == 2
    assert "two rationals" in err


# --- div ----------------------------------------------------------------------

def test_div_benchmark_pair_with_stats(capsys):
    code, out, _ = run_cli(
        capsys, "div", "1001/3001", "10001/20001", "--digits", "19", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert len(text_to_sd(lines[0])) == 19
    fields = report_fields(lines[1])
    assert fields["error-bound-ok"] == "true"
    assert int(fields["u-forced"]) <= 57
    assert int(fields["v-forced"]) <= 56
    exact = Fraction(1001, 3001) / Fraction(10001, 20001)
    assert fields["exact-value"] == f"{exact.numerator}/{exact.denominator}"


def test_div_quarter_by_half_both_codings(capsys):
    code, out, _ = run_cli(capsys, "div", "1/4", "1/2", "--digits", "8")
    assert code == 0
    digits = text_to_sd(out.strip())
    value = sum(Fraction(d, 1 << (i + 1)) for i, d in enumerate(digits))
    assert within(value, Fraction(1, 2), 8)

    code, out, _ = run_cli(
        capsys, "div", "1/4", "1/2", "--digits", "8", "--code", "gray", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert len(text_to_gray(lines[0])) == 8
    assert report_fields(lines[1])["error-bound-ok"] == "true"


def test_div_precondition_messages(capsys):
    code, _, err = run_cli(capsys, "div", "1/8", "1/8")
    assert code == 3
    assert "1/4 <= y" in err
    code, _, err = run_cli(capsys, "div", "7/8", "1/2")
    assert code == 3
    assert "|x| <= y" in err
    code, _, err = run_cli(capsys, "div", "1/2", "9/8")
    assert code == 3
    assert "y <= 1" in err


def test_preconditions_format_no_rational_unless_they_fail(capsys, monkeypatch):
    # a precondition's message is built only on failure: a valid command
    # without --stats writes no rational, a failing one writes the values
    # its message names
    formatted = []

    def spy(a):
        formatted.append(a)
        return format_rational(a)

    monkeypatch.setattr(cli, "format_rational", spy)
    for argv in (["div", "1001/3001", "10001/20001"], ["op", "avg", "1/2", "-1/3"], ["op", "double", "1/2"],
                 ["op", "add1", "-1/2"], ["op", "sub1", "1/2", "--code", "gray"], ["encode", "-1"]):
        code, _, err = run_cli(capsys, *argv, "--digits", "8")
        assert (code, err, formatted) == (0, "", [])
    code, _, err = run_cli(capsys, "div", "7/8", "1/2")
    assert (code, err) == (3, "precondition violated: |x| <= y (x = 7/8, y = 1/2)\n")
    assert formatted == [Fraction(7, 8), Fraction(1, 2)]


def test_div_parse_error(capsys):
    code, _, err = run_cli(capsys, "div", "x", "1/2")
    assert code == 2
    assert "cannot parse rational" in err


# --- bench ----------------------------------------------------------------------

def test_bench_rows_and_exponent(capsys):
    code, out, _ = run_cli(capsys, "bench", "--digits", "5,10,20")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for n, line in zip((5, 10, 20), lines):
        fields = report_fields(line)
        assert fields["digits"] == str(n)
        assert float(fields["elapsed"]) >= 0.0
    assert lines[3].startswith("growth-exponent=")


def test_bench_gray_rows_and_exponent(capsys):
    code, out, _ = run_cli(capsys, "bench", "--digits", "5,10", "--code", "gray")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for n, line in zip((5, 10), lines):
        assert report_fields(line)["digits"] == str(n)
    assert lines[2].startswith("growth-exponent=")


def test_bench_single_entry_no_exponent(capsys):
    code, out, _ = run_cli(capsys, "bench", "--digits", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("digits=7 ")


def test_bench_validates_counts(capsys):
    code, _, err = run_cli(capsys, "bench", "--digits", "10,abc")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--digits", "10,10")
    assert code == 3
    assert "ascending" in err
    code, _, err = run_cli(capsys, "bench", "--digits", "0,5")
    assert code == 3
    assert "positive" in err


@pytest.mark.parametrize("counts", [",10,,20", "10,20,", "", "١٠,20", "10,2_0", "10, 20", "+5,10"])
def test_bench_digit_list_of_ascii_decimals_only(capsys, counts):
    code, out, err = run_cli(capsys, "bench", "--digits", counts)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse digit list: {counts!r}\n"


# --- run report ---------------------------------------------------------------------

def test_run_report_bound_flag():
    good = report_fields(report_line(4, [10, 9], 0.0, Fraction(7, 16), Fraction(1, 2)))
    assert good["error-bound-ok"] == "true"  # gap 1/16 == 2**-4
    assert (good["digits-produced"], good["u-forced"], good["v-forced"]) == ("4", "10", "9")
    bad = report_fields(report_line(4, [10, 9], 0.0, Fraction(3, 8), Fraction(1, 2)))
    assert bad["error-bound-ok"] == "false"


def test_run_report_omits_missing_counts():
    line = report_line(3, [], 0.5, Fraction(0), Fraction(0))
    assert "u-forced" not in line and "v-forced" not in line
    assert "v-forced" not in report_line(3, [2], 0.5, Fraction(0), Fraction(0))


# --- out of memory and argv fuzz ----------------------------------------------

@pytest.mark.parametrize("argv, target", [
    (["encode", "1/3", "--digits", "8"], "_prefix"),
    (["op", "avg", "1/3", "-1/5", "--stats", "--code", "gray"], "_prefix"),
    (["div", "1/4", "1/2", "--stats"], "_prefix"),
    (["bench", "--digits", "10,20"], "_time_division"),
])
def test_a_command_out_of_memory_exits_3_with_one_line(capsys, monkeypatch, argv, target):
    # the error is injected where the run allocates, never provoked
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "error: out of memory; ask for fewer --digits\n")


# half the draws well-formed, half anything the parsers must turn away
RATIONALS = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6).map(str),
    st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=10**6).map(str),
        st.sampled_from(["1/0", "half", "\u22121/3", "\u2212 1/3", "1 /2", "+1/2", "-", "", "1/-2", "\u0663/4",
                         "1/\u00b2"]),
        st.tuples(st.sampled_from("137"), st.integers(1, 4400)).map(lambda t: "1/" + t[0] * t[1]),
    ),
)
DIGIT_COUNTS = st.one_of(
    st.integers(1, 64).map(str),
    st.one_of(st.integers(-3, 0).map(str),
              st.sampled_from(["", "\u0661\u0660", "1_0", "+10", " 10", "\u00b2", "6x", "-\u0661"])),
)
DIGIT_LISTS = st.one_of(
    st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True).map(lambda counts: ",".join(map(str, sorted(counts)))),
    st.one_of(st.lists(st.integers(-3, 64), min_size=1, max_size=3).map(lambda counts: ",".join(map(str, counts))),
              DIGIT_COUNTS),
)


@st.composite
def argvs(draw) -> list[str]:
    """Mostly well-formed commands, some with a wrong value, flag, count or
    order, all over the CLI's own vocabulary."""
    command = draw(st.sampled_from(["encode", "op", "div", "bench", "root", ""]))
    argv = [command] if command else []
    if command == "op":
        argv.append(draw(st.sampled_from([*cli._OPS, "sqrt"])))
    if command in ("encode", "op", "div"):
        arity = 2 if command == "div" or argv[-1] == "avg" else 1
        count = arity if draw(st.integers(0, 3)) else draw(st.integers(0, 3))
        argv += [draw(RATIONALS) for _ in range(count)]
    for flag in draw(st.lists(st.sampled_from(["--digits", "--code", "--stats"]), max_size=3, unique=True)):
        argv.append(flag)
        if flag == "--digits":
            argv.append(draw(DIGIT_LISTS if command == "bench" else DIGIT_COUNTS))
        elif flag == "--code":
            argv.append(draw(st.sampled_from(["sd", "gray", "hex"])))
    if not draw(st.integers(0, 3)):
        argv = draw(st.permutations(argv))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_any_argv_exits_0_2_or_3_without_a_traceback(argv):
    # digit counts stay at or below 64, and bench times each count once
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(cli, "_BENCH_MIN_SECONDS", 1e-9)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# --- package ------------------------------------------------------------------

def test_package_import_leaves_cli_out_and_module_run_is_quiet():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # the division tower's tables load with the first division, not with
    # the package or the 2x -+ y layer that shares its automaton; neither
    # the package nor the CLI loads dataclasses and the inspect stack
    probe = ("import sys, streamreal; from fractions import Fraction; "
             "print('argparse' in sys.modules, 'streamreal.cli' in sys.modules, "
             "'streamreal.sd_tower' in sys.modules, "
             "'dataclasses' in sys.modules, 'inspect' in sys.modules); "
             "x = streamreal.sd_ops.encode(Fraction(1, 2)); "
             "streamreal.kernel.take_prefix(streamreal.sd_ops.twice_minus(x, x), 8); "
             "print('streamreal.sd_tower' in sys.modules); "
             "import streamreal.cli; "
             "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    imported = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
    assert imported.stdout == "False False False False False\nFalse\nFalse False\n"
    for module in ("streamreal.cli", "streamreal"):
        run = subprocess.run([sys.executable, "-m", module, "encode", "1/2"], env=env,
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (0, "+000000000000000\n", ""), module


def test_package_module_run_passes_exit_codes():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-m", "streamreal", "div", "1/2", "1/8"], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr.startswith("precondition violated: 1/4 <= y")
