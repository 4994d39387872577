"""Exact real arithmetic on lazy digit streams.

Reals in [-1, 1] are represented either as signed-digit streams
(:mod:`streamreal.sd_ops`) or as binary-reflected Gray codes
(:mod:`streamreal.gray_ops`), with a rational/Cauchy oracle layer
(:mod:`streamreal.cauchy`) and an instrumented stream kernel
(:mod:`streamreal.kernel`).
"""

from . import cauchy, digits, gray_ops, kernel, sd_ops

__all__ = [
    "cauchy",
    "digits",
    "gray_ops",
    "kernel",
    "sd_ops",
]
