"""Exact real arithmetic on lazy digit streams.

Reals in [-1, 1] are represented either as signed-digit streams
(:mod:`streamreal.sd_ops`) or as binary-reflected Gray codes
(:mod:`streamreal.gray_ops`), with a rational/Cauchy oracle layer
(:mod:`streamreal.cauchy`) and an instrumented stream kernel
(:mod:`streamreal.kernel`).

Importing the package loads only the signed-digit core, ``kernel`` and
``sd_ops``, which every command runs.  ``gray_ops``, ``digits`` and
``cauchy`` load on first attribute access (PEP 562), and ``sd_tower`` with
the first division.
"""

from . import kernel, sd_ops

__all__ = [
    "cauchy",
    "digits",
    "gray_ops",
    "kernel",
    "sd_ops",
]

_ON_FIRST_USE = frozenset({"cauchy", "digits", "gray_ops"})


def __getattr__(name: str):
    # import_module, not ``from . import``: the latter asks this hook for the
    # name first and recurses.  Importing binds the module on the package, so
    # the hook runs once per name.
    if name in _ON_FIRST_USE:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ON_FIRST_USE)
