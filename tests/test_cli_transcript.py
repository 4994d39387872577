"""Golden transcripts of the command line, and the forced counts of both
codings held equal.

Each command runs through ``main`` on seeded rationals: ``encode`` in both
codings, every ``op`` name and ``div`` with ``--stats`` in both codings,
the misuses (a bad rational, a missing operand, an unknown op name, each
precondition of ``encode``, ``op`` and ``div``, a ``--digits`` of 0 or -3
and the operand-count errors) and the ``--help`` of the root parser and of
each command.  The pinned value is a sha256 of the exit code, standard
output and standard error, with the ``elapsed=`` time masked; any other
change to a byte the command prints changes it.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re

import pytest

from streamreal import cli
from streamreal.cli import main
from streamreal.digits import format_rational
from tests.support import division_pair, unit_fraction

OP_NAMES = ("neg", "half", "double", "add1", "sub1", "avg", "convert")
CODES = ("sd", "gray")
PER_OP = 2
_ELAPSED = re.compile(r"elapsed=[0-9.]+")


def _op_values(rng: random.Random, name: str) -> list[str]:
    """Operands of ``name`` that meet its precondition exactly."""
    a = unit_fraction(rng)
    if name == "avg":
        return [format_rational(a), format_rational(unit_fraction(rng))]
    if name == "double":
        a /= 2
    elif name == "add1":
        a = -abs(a)
    elif name == "sub1":
        a = abs(a)
    return [format_rational(a)]


def _valid_commands() -> list[tuple[str, ...]]:
    """The same seeded operands in each coding, so entries pair up."""
    rng = random.Random(20190502)
    encodes = [format_rational(unit_fraction(rng)) for _ in range(3)]
    ops = [(name, _op_values(rng, name)) for name in OP_NAMES for _ in range(PER_OP)]
    divs = [tuple(map(format_rational, division_pair(rng))) for _ in range(3)]
    divs.append(("1001/3001", "10001/20001"))
    commands = []
    for code in CODES:
        commands += [("encode", a, "--digits", "24", "--code", code) for a in encodes]
        commands.append(("encode", encodes[0], "--code", code))
        commands += [("op", name, *values, "--digits", "24", "--code", code, "--stats")
                     for name, values in ops]
        commands += [("div", x, y, "--code", code, "--stats") for x, y in divs]
    return commands


_MISUSES = [
    # parse errors (exit 2), also ahead of a precondition
    ("encode", "half"), ("op", "neg", "1/x"), ("op", "avg", "3/2", "q"),
    ("div", "x", "1/2"), ("div", "1/2", "y"), ("div", "3/2", "y"),
    # a missing operand (argparse, exit 2)
    ("encode",), ("op", "neg"), ("div", "1/2"),
    # an unknown op name (argparse, exit 2) and operand counts (exit 2)
    ("op", "sqrt", "1/4"),
    ("op", "avg", "1/2"), ("op", "avg", "1/2", "1/4", "1/8"), ("op", "neg", "1/2", "1/4"),
    ("op", "convert", "1/2", "1/4"),
    # preconditions (exit 3), also ahead of --digits
    ("encode", "3/2"), ("encode", "-5/4"), ("op", "neg", "3/2"), ("op", "avg", "1/2", "-5/4"),
    ("op", "avg", "-9/8", "1/2"), ("op", "double", "3/4"), ("op", "add1", "1/2"),
    ("op", "sub1", "-1/2"), ("op", "half", "2"), ("op", "convert", "3/2"), ("div", "1/8", "1/8"),
    ("div", "1/2", "9/8"), ("div", "7/8", "1/2"), ("op", "add1", "1/2", "--digits", "0"),
    ("div", "1/8", "1/8", "--digits", "-3"),
    # --digits below 1 (exit 3)
    *[(*argv, "--digits", digits)
      for argv in (("encode", "1/2"), ("op", "neg", "1/2"), ("op", "avg", "1/2", "1/4"),
                   ("div", "1/4", "1/2", "--stats"))
      for digits in ("0", "-3")],
]


_HELPS = [("--help",), *[(command, "--help") for command in ("encode", "op", "div", "bench")]]


def _commands() -> list[tuple[str, ...]]:
    return (_valid_commands() + [(*argv, "--code", code) for code in CODES for argv in _MISUSES]
            + _HELPS)


def _transcript(capsys, argv) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, _ELAPSED.sub("elapsed=*", captured.out), captured.err


def _digest(entry) -> str:
    return hashlib.sha256(repr(entry).encode()).hexdigest()[:16]


GOLDEN = {
    "encode -46/319 --digits 24 --code sd": "ebe69c33fcf40186",
    "encode -282/439 --digits 24 --code sd": "6d1b2ce63384a44a",
    "encode -83/103 --digits 24 --code sd": "06d2d286f9b0a221",
    "encode -46/319 --code sd": "fa75244f1599dda2",
    "op neg 24/53 --digits 24 --code sd --stats": "b5aea5b06466a5c9",
    "op neg 214/347 --digits 24 --code sd --stats": "47d913f408171209",
    "op half -281/746 --digits 24 --code sd --stats": "b392092679daf22a",
    "op half 9/256 --digits 24 --code sd --stats": "4e46438ba0d64654",
    "op double 5/56 --digits 24 --code sd --stats": "1d44eb14418a838a",
    "op double -39/164 --digits 24 --code sd --stats": "754b115e896b9f12",
    "op add1 -209/976 --digits 24 --code sd --stats": "a59a928366629ca2",
    "op add1 -268/355 --digits 24 --code sd --stats": "26650af0210321f8",
    "op sub1 1/2 --digits 24 --code sd --stats": "e9f560f20cf78f9a",
    "op sub1 108/751 --digits 24 --code sd --stats": "34fc8f11036c48ea",
    "op avg 257/261 -6/89 --digits 24 --code sd --stats": "9ceea8fc498fda56",
    "op avg -28/67 98/327 --digits 24 --code sd --stats": "7fa213a6ee269819",
    "op convert -3/4 --digits 24 --code sd --stats": "e24f4063b0186bd5",
    "op convert 63/199 --digits 24 --code sd --stats": "6821457453e25ca7",
    "div -36/145 72/145 --code sd --stats": "c7b82b03d33a5cc9",
    "div 1479/4130 34/59 --code sd --stats": "f2465bac4883c086",
    "div 370/1691 185/418 --code sd --stats": "28af070afb53de4c",
    "div 1001/3001 10001/20001 --code sd --stats": "b4736f56c9ed5b34",
    "encode -46/319 --digits 24 --code gray": "3052e163ba6802b8",
    "encode -282/439 --digits 24 --code gray": "9cf8f05a0cc5bf56",
    "encode -83/103 --digits 24 --code gray": "4e7fa2a7b8199292",
    "encode -46/319 --code gray": "f734556859c3b0b8",
    "op neg 24/53 --digits 24 --code gray --stats": "7a6eb5075ad45e07",
    "op neg 214/347 --digits 24 --code gray --stats": "e2e7145bee877f0b",
    "op half -281/746 --digits 24 --code gray --stats": "0edad118f97e6c37",
    "op half 9/256 --digits 24 --code gray --stats": "b6ebf0d6c6c5b45d",
    "op double 5/56 --digits 24 --code gray --stats": "5d1aede302ecf054",
    "op double -39/164 --digits 24 --code gray --stats": "de40b195f48e3272",
    "op add1 -209/976 --digits 24 --code gray --stats": "45852c61bd825428",
    "op add1 -268/355 --digits 24 --code gray --stats": "4a8efb69625ae237",
    "op sub1 1/2 --digits 24 --code gray --stats": "54119be8aff24cc0",
    "op sub1 108/751 --digits 24 --code gray --stats": "13f1e4e6e9e53903",
    "op avg 257/261 -6/89 --digits 24 --code gray --stats": "df87ae5c0e49d20b",
    "op avg -28/67 98/327 --digits 24 --code gray --stats": "2b2ee2d55a73a673",
    "op convert -3/4 --digits 24 --code gray --stats": "9f59c517c438f4c5",
    "op convert 63/199 --digits 24 --code gray --stats": "2a816f08f23a9a6b",
    "div -36/145 72/145 --code gray --stats": "29f908e19db1d482",
    "div 1479/4130 34/59 --code gray --stats": "4236166fd40398e4",
    "div 370/1691 185/418 --code gray --stats": "9fea9c3f3335748c",
    "div 1001/3001 10001/20001 --code gray --stats": "3855c66783988a7c",
    "encode half --code sd": "90b780f88b8833a2",
    "op neg 1/x --code sd": "91b20ac2414c6884",
    "op avg 3/2 q --code sd": "dd339226184b2f57",
    "div x 1/2 --code sd": "86fb2e8caf56e59a",
    "div 1/2 y --code sd": "57f379cd53f453ba",
    "div 3/2 y --code sd": "57f379cd53f453ba",
    "encode --code sd": "d383b878d0fc3882",
    "op neg --code sd": "2b443fecd8989189",
    "div 1/2 --code sd": "4e05dc3647bac67b",
    "op sqrt 1/4 --code sd": "0af75e50a76d6d9f",
    "op avg 1/2 --code sd": "2231e69690ab3a2c",
    "op avg 1/2 1/4 1/8 --code sd": "2231e69690ab3a2c",
    "op neg 1/2 1/4 --code sd": "d92cc59423a84fa6",
    "op convert 1/2 1/4 --code sd": "e9ca1068b97d0da8",
    "encode 3/2 --code sd": "7d5869006f891053",
    "encode -5/4 --code sd": "3038fe8371a9d06e",
    "op neg 3/2 --code sd": "7d5869006f891053",
    "op avg 1/2 -5/4 --code sd": "112219902afe3c26",
    "op avg -9/8 1/2 --code sd": "5a2017b8d72511ee",
    "op double 3/4 --code sd": "f5f65704871725b4",
    "op add1 1/2 --code sd": "5fb9fadeeb5ebfe1",
    "op sub1 -1/2 --code sd": "50d384bbca648460",
    "op half 2 --code sd": "97a2fd7719a3f574",
    "op convert 3/2 --code sd": "7d5869006f891053",
    "div 1/8 1/8 --code sd": "be17eec0025a0ae0",
    "div 1/2 9/8 --code sd": "6361d2c757ad6e44",
    "div 7/8 1/2 --code sd": "b83ed67ee2b2dc1a",
    "op add1 1/2 --digits 0 --code sd": "5fb9fadeeb5ebfe1",
    "div 1/8 1/8 --digits -3 --code sd": "be17eec0025a0ae0",
    "encode 1/2 --digits 0 --code sd": "3d2031ee15db5c5f",
    "encode 1/2 --digits -3 --code sd": "462b7026974c67a8",
    "op neg 1/2 --digits 0 --code sd": "3d2031ee15db5c5f",
    "op neg 1/2 --digits -3 --code sd": "462b7026974c67a8",
    "op avg 1/2 1/4 --digits 0 --code sd": "3d2031ee15db5c5f",
    "op avg 1/2 1/4 --digits -3 --code sd": "462b7026974c67a8",
    "div 1/4 1/2 --stats --digits 0 --code sd": "3d2031ee15db5c5f",
    "div 1/4 1/2 --stats --digits -3 --code sd": "462b7026974c67a8",
    "encode half --code gray": "90b780f88b8833a2",
    "op neg 1/x --code gray": "91b20ac2414c6884",
    "op avg 3/2 q --code gray": "dd339226184b2f57",
    "div x 1/2 --code gray": "86fb2e8caf56e59a",
    "div 1/2 y --code gray": "57f379cd53f453ba",
    "div 3/2 y --code gray": "57f379cd53f453ba",
    "encode --code gray": "d383b878d0fc3882",
    "op neg --code gray": "2b443fecd8989189",
    "div 1/2 --code gray": "4e05dc3647bac67b",
    "op sqrt 1/4 --code gray": "0af75e50a76d6d9f",
    "op avg 1/2 --code gray": "2231e69690ab3a2c",
    "op avg 1/2 1/4 1/8 --code gray": "2231e69690ab3a2c",
    "op neg 1/2 1/4 --code gray": "d92cc59423a84fa6",
    "op convert 1/2 1/4 --code gray": "e9ca1068b97d0da8",
    "encode 3/2 --code gray": "7d5869006f891053",
    "encode -5/4 --code gray": "3038fe8371a9d06e",
    "op neg 3/2 --code gray": "7d5869006f891053",
    "op avg 1/2 -5/4 --code gray": "112219902afe3c26",
    "op avg -9/8 1/2 --code gray": "5a2017b8d72511ee",
    "op double 3/4 --code gray": "f5f65704871725b4",
    "op add1 1/2 --code gray": "5fb9fadeeb5ebfe1",
    "op sub1 -1/2 --code gray": "50d384bbca648460",
    "op half 2 --code gray": "97a2fd7719a3f574",
    "op convert 3/2 --code gray": "7d5869006f891053",
    "div 1/8 1/8 --code gray": "be17eec0025a0ae0",
    "div 1/2 9/8 --code gray": "6361d2c757ad6e44",
    "div 7/8 1/2 --code gray": "b83ed67ee2b2dc1a",
    "op add1 1/2 --digits 0 --code gray": "5fb9fadeeb5ebfe1",
    "div 1/8 1/8 --digits -3 --code gray": "be17eec0025a0ae0",
    "encode 1/2 --digits 0 --code gray": "3d2031ee15db5c5f",
    "encode 1/2 --digits -3 --code gray": "462b7026974c67a8",
    "op neg 1/2 --digits 0 --code gray": "3d2031ee15db5c5f",
    "op neg 1/2 --digits -3 --code gray": "462b7026974c67a8",
    "op avg 1/2 1/4 --digits 0 --code gray": "3d2031ee15db5c5f",
    "op avg 1/2 1/4 --digits -3 --code gray": "462b7026974c67a8",
    "div 1/4 1/2 --stats --digits 0 --code gray": "3d2031ee15db5c5f",
    "div 1/4 1/2 --stats --digits -3 --code gray": "462b7026974c67a8",
    "--help": "28ae945b40734e3a",
    "encode --help": "49e62ef0244967e1",
    "op --help": "91d332fc47b74381",
    "div --help": "79164c8cada81d40",
    "bench --help": "5d9010fdb0479cf5",
}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_cli_transcript(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    assert _digest(_transcript(capsys, argv)) == GOLDEN[" ".join(argv)]


def test_one_parser_for_every_call_prints_every_transcript(capsys, monkeypatch):
    # main builds its parser through the module attribute, so a cached
    # build_parser shares one parser across all commands, misuses included,
    # run forward and then backward
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    commands = _commands()
    for argv in commands + commands[::-1]:
        assert _digest(_transcript(capsys, argv)) == GOLDEN[" ".join(argv)], argv
    assert cli.build_parser.cache_info().misses == 1


def _forced(capsys, argv) -> dict[str, str]:
    code, out, err = _transcript(capsys, argv)
    assert (code, err) == (0, "")
    fields = dict(part.split("=", 1) for part in out.splitlines()[1].split())
    return {key: fields.get(key) for key in ("u-forced", "v-forced")}


@pytest.mark.parametrize("name", OP_NAMES + ("div",))
def test_gray_stats_count_what_sd_stats_count(capsys, name):
    rng = random.Random(20190503)
    for digits in ("1", "7", "40"):
        if name == "div":
            argv = ("div", *map(format_rational, division_pair(rng)))
        else:
            argv = ("op", name, *_op_values(rng, name))
        argv += ("--digits", digits, "--stats")
        sd = _forced(capsys, argv)
        assert sd["u-forced"] is not None
        assert (sd["v-forced"] is not None) == (name in ("avg", "div"))
        assert _forced(capsys, argv + ("--code", "gray")) == sd, argv
