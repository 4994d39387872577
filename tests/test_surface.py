"""The public surface of ``streamreal``: the names each module binds.

The package keeps only the names that the ops, the CLI and the oracle use;
helpers that only tests call live in ``tests/support.py``.  A public name
enters or leaves a module only together with an edit to ``SURFACE``, and a
private name that one package module imports from another only together
with an edit to ``PRIVATE_IMPORTS``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import streamreal

PACKAGE = Path(streamreal.__file__).parent

SURFACE = {
    "__init__": set(),
    "__main__": set(),
    "cauchy": {"CReal", "absolute", "add", "from_rational", "from_stream", "leq_up_to", "mul", "neg", "sub"},
    "cli": {"build_parser", "gray_to_text", "main", "report_line", "sd_to_text"},
    "digits": {"format_rational", "parse_rational"},
    "gray_ops": {"add_one", "average", "decode", "divide", "double", "encode", "from_sd", "half", "negate",
                 "one", "sub_one", "to_g", "to_h", "to_sd", "twice_minus", "twice_plus"},
    "kernel": {"Cell", "GrayG", "GrayH", "GrayNode", "SdStream", "stream_from_digits",
               "take_gray_prefix", "take_prefix", "unfold_sd", "with_force_count", "with_force_count_gray"},
    "sd_ops": {"add_one", "average", "decode", "divide", "double", "encode", "half", "negate", "one",
               "sub_one", "twice_minus", "twice_plus"},
    "sd_tower": {"quotient_digits"},
}

# (importing module, source module, private name), at any depth of the body
PRIVATE_IMPORTS = {
    ("cli", "digits", "_is_decimal"),
    ("sd_tower", "sd_ops", "_is_const"),
    ("sd_tower", "sd_ops", "_layer_step"),
}


def bound_names(body: list[ast.stmt]) -> set[str]:
    """Names that the statements bind at module level, imports excepted;
    an ``if`` block binds at module level too, a function or class body
    does not."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.If):
            names |= bound_names(node.body) | bound_names(node.orelse)
    return names


def test_every_module_is_listed():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(SURFACE)


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_names_are_the_committed_set(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    public = {name for name in bound_names(tree.body) if not name.startswith("_")}
    assert public == SURFACE[module]


def private_imports(module: str) -> set[tuple[str, str, str]]:
    """The private names that ``module`` imports from the package, read from
    every ``from ... import`` of the file, function bodies included."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("streamreal")):
            source = (node.module or "").rpartition(".")[2]
            found |= {(module, source, alias.name) for alias in node.names if alias.name.startswith("_")}
    return found


def test_private_imports_between_modules_are_the_committed_set():
    assert set().union(*(private_imports(module) for module in SURFACE)) == PRIVATE_IMPORTS
