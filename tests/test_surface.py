"""The public surface of ``streamreal``: the names each module binds.

The package keeps only the names that the ops, the CLI and the oracle use;
helpers that only tests call live in ``tests/support.py``.  A public name
enters or leaves a module only together with an edit to ``SURFACE``, and a
private name that one package module imports from another only together
with an edit to ``PRIVATE_IMPORTS``.

The same reading pins the force lock's discipline: no package code calls
the locking ``Cell.force``, and the unlocked ``Cell._force`` runs only
where the lock is held.  It also pins that every package generator lets go
of its input cells as it reads, so memory follows the read frontier.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

import pytest

import streamreal

PACKAGE = Path(streamreal.__file__).parent

SURFACE = {
    "__init__": set(),
    "__main__": set(),
    "cauchy": {"CReal", "add", "from_rational", "from_stream", "leq_up_to", "mul", "neg"},
    "cli": {"build_parser", "gray_to_text", "main", "report_line", "sd_to_text"},
    "digits": {"format_rational", "parse_rational"},
    "gray_ops": {"add_one", "average", "decode", "divide", "double", "encode", "from_sd", "half", "negate",
                 "sub_one", "to_g", "to_h", "to_sd", "twice_minus", "twice_plus"},
    "kernel": {"Cell", "GrayG", "GrayH", "GrayNode", "SdStream", "stream_from_digits",
               "take_gray_prefix", "take_prefix", "unfold_sd", "with_force_count", "with_force_count_gray"},
    "sd_ops": {"add_one", "average", "decode", "divide", "double", "encode", "half", "negate",
               "sub_one", "twice_minus", "twice_plus"},
    "sd_tower": {"quotient_digits"},
}

# (importing module, source module, private name), at any depth of the body
PRIVATE_IMPORTS = {
    ("cli", "digits", "_is_decimal"),
    ("gray_ops", "kernel", "_FORCE_LOCK"),
    ("gray_ops", "kernel", "_count_on"),
    ("sd_tower", "sd_ops", "_LAYER_STARTS"),
    ("sd_tower", "sd_ops", "_layer_step"),
    ("sd_tower", "sd_ops", "_reads_y"),
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


def test_the_division_tower_keeps_layer_states_opaque():
    # the layer state format lives in sd_ops beside _layer_step: sd_tower
    # spells no state and tests none of its stages
    tree = ast.parse((PACKAGE / "sd_tower.py").read_text(encoding="utf-8"))
    spelled = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in {"dispatch", "copy", "add", "const"}]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name == "_is_const"]
    assert spelled == [] and imported == []


# Functions that call ``._force()`` outside ``with _FORCE_LOCK`` and are not
# generators: the drivers, which force a carried cell under their caller's
# lock, and code that only a pull runs.  (module, qualified name)
UNLOCKED_FORCERS = {
    ("kernel", "Cell._force"),
    ("kernel", "GrayNode._force"),
    ("sd_tower", "_HalfY.__getitem__"),  # reads v for quotient_digits
    ("sd_tower", "_HalfY.code"),  # reads whole chunks of v for quotient_digits
}


def own_nodes(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """The nodes of the function's own body; the bodies of nested
    functions, classes and lambdas are not its own."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def is_generator(func: ast.FunctionDef) -> bool:
    """The function's own body yields."""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own_nodes(func))


def calls(module: str) -> list[tuple[ast.Call, str, bool, bool]]:
    """``(call, qualified name of the enclosing function, it is a generator,
    the call sits inside with _FORCE_LOCK)`` for every call in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node: ast.AST, qualname: str, generator: bool, locked: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, name, isinstance(child, ast.FunctionDef) and is_generator(child), False)
                continue
            if isinstance(child, ast.With) and any(
                    isinstance(item.context_expr, ast.Name) and item.context_expr.id == "_FORCE_LOCK"
                    for item in child.items):
                visit(child, qualname, generator, True)
                continue
            if isinstance(child, ast.Call):
                found.append((child, qualname, generator, locked))
            visit(child, qualname, generator, locked)

    visit(tree, "", False, False)
    return found


def force_calls(module: str) -> list[tuple[str, str, bool, bool]]:
    """``(method, function, generator, locked)`` of :func:`calls` for every
    call of ``.force()`` or ``._force()`` in ``module``."""
    return [(call.func.attr, name, generator, locked) for call, name, generator, locked in calls(module)
            if isinstance(call.func, ast.Attribute) and call.func.attr in ("force", "_force")]


def test_no_module_calls_the_locking_force():
    assert [(module, name) for module in SURFACE
            for method, name, _, _ in force_calls(module) if method == "force"] == []


def test_unlocked_force_runs_only_under_the_lock():
    unlocked = {(module, name) for module in SURFACE
                for method, name, generator, locked in force_calls(module)
                if method == "_force" and not (generator or locked)}
    assert unlocked == UNLOCKED_FORCERS


CELL_CLASSES = {"Cell", "SdStream", "GrayNode", "GrayG", "GrayH"}


def test_package_generators_let_go_of_each_input_cell_before_their_first_yield():
    # a generator that keeps a cell parameter as it was passed keeps alive
    # every cell of that stream it reads: its live set is the history, not
    # the read frontier.  Each cell parameter must be rebound or deleted on
    # a line above the first yield.
    checked, kept = 0, []
    for module in SURFACE:
        for func in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef) or not is_generator(func):
                continue
            nodes = list(own_nodes(func))
            first_yield = min(node.lineno for node in nodes if isinstance(node, (ast.Yield, ast.YieldFrom)))
            for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
                if not (isinstance(arg.annotation, ast.Name) and arg.annotation.id in CELL_CLASSES):
                    continue
                checked += 1
                let_go = [node.lineno for node in nodes if isinstance(node, ast.Name) and node.id == arg.arg
                          and isinstance(node.ctx, (ast.Store, ast.Del))]
                if not let_go or min(let_go) > first_yield:
                    kept.append((module, func.name, arg.arg))
    assert checked and kept == []


def test_package_generators_run_only_in_a_cell_or_under_the_lock():
    # a generator reads through _force, so whatever drives it other than a
    # cell's pull must hold the lock
    generators = {node.name for module in SURFACE
                  for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and is_generator(node)}
    loose = []
    for module in SURFACE:
        found = calls(module)
        pulled = {id(call.args[0]) for call, _, _, _ in found
                  if isinstance(call.func, ast.Name) and call.func.id == "stream_from_digits"}
        loose += [(module, name, call.func.id) for call, name, _, locked in found
                  if isinstance(call.func, ast.Name) and call.func.id in generators
                  and id(call) not in pulled and not locked]
    assert generators and loose == []


def test_no_cell_class_has_an_init_and_no_pull_is_called():
    # every cell is made by calling its class with no arguments, the
    # drivers' tails included, so no class that is Cell or derives from it
    # may define __init__; and a pull is an iterator, resumed by next(pull)
    cells, inits, called = {"Cell"}, [], []
    classes = [(module, node) for module in SURFACE
               for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    grown = True
    while grown:
        grown = False
        for _, node in classes:
            bases = {base.id if isinstance(base, ast.Name) else getattr(base, "attr", None) for base in node.bases}
            if node.name not in cells and bases & cells:
                cells.add(node.name)
                grown = True
    for module, node in classes:
        if node.name in cells:
            inits += [(module, node.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
    for module in SURFACE:
        called += [(module, name) for call, name, _, _ in calls(module)
                   if isinstance(call.func, ast.Name) and call.func.id == "pull"
                   or isinstance(call.func, ast.Attribute) and call.func.attr == "_pull"]
    assert cells == CELL_CLASSES and inits == [] and called == []


def test_a_forced_signed_digit_cell_keeps_its_size():
    from fractions import Fraction

    from streamreal import sd_ops
    from streamreal.kernel import SdStream

    cell = sd_ops.negate(sd_ops.encode(Fraction(1, 3))).force()
    assert type(cell) is SdStream and cell.tail is not None
    assert sys.getsizeof(cell) == 56
