"""Tests of the benchmark itself: checker, generator and fingerprint.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
from streamreal import gray_ops, sd_ops  # noqa: E402
from streamreal.kernel import take_gray_prefix, take_prefix  # noqa: E402

X, Y = Fraction(1001, 3001), Fraction(10001, 20001)


def _div_result(code: str, n: int = 24):
    job = gen.DivJob(code, X, Y, n)
    return job, jobs.run_div(job, jobs.NoTracer())


@pytest.mark.parametrize("code", ["sd", "gray"])
def test_checker_accepts_program_division(code):
    job, result = _div_result(code)
    assert check.check_div(job, result) == job.n


def test_checker_rejects_one_flipped_sd_digit():
    job, (digits, decoded, u, v) = _div_result("sd")
    k = next(i for i, d in enumerate(digits) if d != 0)
    flipped = digits[:k] + [-digits[k]] + digits[k + 1:]
    with pytest.raises(check.Wrong):
        check.check_div(job, (flipped, check.sd_value(flipped), u, v))


def test_checker_rejects_one_wrong_gray_token():
    job, (prefix, decoded, u, v) = _div_result("gray")
    k = next(i for i, (_, s) in enumerate(prefix) if s is not None)
    mode, sign = prefix[k]
    wrong_sign = prefix[:k] + [(mode, -sign)] + prefix[k + 1:]
    with pytest.raises(check.Wrong):
        check.check_div(job, (wrong_sign, check.gray_value(wrong_sign), u, v))
    line = " ".join({v: t for t, v in check.GRAY_TOKENS.items()}[e] for e in prefix)
    tokens = line.split()
    tokens[k] = "Fr" if tokens[k] in ("R", "L") else "R"  # a sign of the wrong mode
    with pytest.raises(check.Wrong):
        check.check_prefix("gray", check.parse_digit_line("gray", " ".join(tokens)), X / Y, job.n)


def test_checker_rejects_look_ahead_breach():
    job, (digits, decoded, u, v) = _div_result("sd")
    with pytest.raises(check.Wrong):
        check.check_div(job, (digits, decoded, 3 * job.n + 1, v))
    with pytest.raises(check.Wrong):
        check.check_div(job, (digits, decoded, u, 3 * job.n))


def test_own_decoders_agree_with_program():
    for a in (Fraction(0), Fraction(1), Fraction(-1), Fraction(-5, 7), Fraction(333, 1024)):
        u = sd_ops.encode(a)
        assert check.sd_value(take_prefix(u, 40)) == sd_ops.decode(u, 40)
        g = gray_ops.encode(a)
        assert check.gray_value(take_gray_prefix(g, 40)) == gray_ops.decode(g, 40)


def test_cli_checker_classifies_exit_codes():
    misuse = gen.CliJob(("encode", "3/2"), expect_exit=(3,))
    assert check.check_cli(misuse, (3, "", "precondition violated: ...\n")) == 0
    with pytest.raises(check.Failed) as failed:
        check.check_cli(misuse, (0, "+0+\n", ""))
    assert not isinstance(failed.value, check.Wrong)
    valid = gen.CliJob(("encode", "1/2"), "sd", 4, Fraction(1, 2))
    assert check.check_cli(valid, (0, "+000\n", "")) == 4
    with pytest.raises(check.Wrong):
        check.check_cli(valid, (0, "+00-\n+", ""))


def _args(argv: tuple[str, ...]) -> list[Fraction]:
    return [Fraction(a) for a in argv[1:] if "/" in a and a not in gen.BAD_RATIONALS]


def _verify(job) -> None:
    """Re-derive each generated job's preconditions from scratch."""
    if isinstance(job, gen.DivJob):
        gen.check_division(job.x, job.y)
    elif isinstance(job, gen.DagJob):
        for node in job.nodes:
            if node.op != "leaf":
                value = gen.check_op(gen.DAG_OPS, node.op, tuple(job.nodes[i].value for i in node.args))
                assert value == node.value
        assert len(set(job.sinks)) == 3
    elif job.code is not None:
        values = _args(job.argv)
        if job.argv[0] == "div":
            gen.check_division(*values)
            assert job.exact == values[0] / values[1]
        elif job.argv[0] == "op":
            assert gen.check_op(gen.CLI_OPS, job.argv[1], tuple(values)) == job.exact
        else:
            gen.check_unit(values[0])
    elif job.expect_exit == (3,):
        with pytest.raises(gen.PreconditionError):
            values = _args(job.argv)
            if job.argv[0] == "div":
                gen.check_division(*values)
            elif job.argv[0] == "op":
                gen.check_op(gen.CLI_OPS, job.argv[1], tuple(values))
            else:
                gen.check_unit(values[0])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_meets_preconditions(workload):
    for seed in range(30):
        for index in range(2):
            for job in gen.make_pass(workload, seed, index):
                _verify(job)


def test_passes_have_fixed_composition():
    for workload in gen.WORKLOADS:
        sizes = {len(gen.make_pass(workload, seed, 0)) for seed in range(5)}
        assert len(sizes) == 1
    ns = sorted(job.n for job in gen.make_pass("div-sd", 3, 0))
    assert ns == gen.log_grid(64, 512, gen.DIV_STRATA["sd"])
    dag = gen.make_pass("expr-dag", 3, 0)
    deep = [job for job in dag if max(n.depth for n in job.nodes) == gen.DAG_DEEP_SPINE]
    assert len(deep) == 1 and deep[0].nodes[deep[0].sinks[0]].code == "sd"
    misuse = [job for job in gen.make_pass("cli-mix", 3, 0) if job.code is None]
    assert sorted(job.expect_exit for job in misuse) == [(2,), (3,)]


def test_defect_probes_are_seeded_and_aim_at_the_known_defects():
    for workload in gen.WORKLOADS:
        assert repr(gen.defect_probes(workload, 5)) == repr(gen.defect_probes(workload, 5))
    assert gen.defect_probes("div-sd", 5) == gen.defect_probes("div-gray", 5) == []
    (spine,) = gen.defect_probes("expr-dag", 5)
    _verify(spine)
    tip = spine.nodes[spine.sinks[0]]
    assert (tip.code, tip.depth, tip.op) == ("gray", gen.DAG_DEEP_SPINE, "average")
    digits = [job.argv[job.argv.index("--digits") + 1] for job in gen.defect_probes("cli-mix", 5)]
    assert digits == ["-3", "0"]


def test_fingerprint_fixed_per_seed_and_differs_across_seeds():
    for workload in gen.WORKLOADS:
        assert gen.fingerprint(workload, 7) == gen.fingerprint(workload, 7)
        assert gen.fingerprint(workload, 7) != gen.fingerprint(workload, 8)
    code = "import gen; print(gen.fingerprint('expr-dag', 7))"
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                           capture_output=True, text=True, check=True)
    assert other.stdout.strip() == gen.fingerprint("expr-dag", 7)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "div-sd", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
