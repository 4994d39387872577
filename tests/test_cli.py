from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from streamreal.cli import (
    gray_to_text,
    main,
    report_line,
    sd_to_text,
    text_to_gray,
    text_to_sd,
)
from tests.support import within

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


# --- package ------------------------------------------------------------------

def test_package_import_leaves_cli_out_and_module_run_is_quiet():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # the division tower's tables load with the first division, not with
    # the package or the 2x -+ y layer that shares its automaton
    probe = ("import sys, streamreal; from fractions import Fraction; "
             "print('argparse' in sys.modules, 'streamreal.cli' in sys.modules, "
             "'streamreal.sd_tower' in sys.modules); "
             "x = streamreal.sd_ops.encode(Fraction(1, 2)); "
             "streamreal.kernel.take_prefix(streamreal.sd_ops.twice_minus(x, x), 8); "
             "print('streamreal.sd_tower' in sys.modules)")
    imported = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
    assert imported.stdout == "False False False\nFalse\n"
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
