"""Exact real arithmetic on lazy digit streams.

Reals in [-1, 1] are represented either as signed-digit streams
(:mod:`streamreal.sd_ops`) or as binary-reflected Gray codes
(:mod:`streamreal.gray_ops`), with a rational/Cauchy oracle layer
(:mod:`streamreal.cauchy`) and an instrumented stream kernel
(:mod:`streamreal.kernel`).
"""

from . import cauchy, digits, gray_ops, kernel, sd_ops
from .kernel import (
    ForceCount,
    GrayG,
    GrayH,
    SdStream,
    Splice,
    take_gray_prefix,
    take_prefix,
    unfold_sd,
    with_force_count,
    with_force_count_gray,
)

__all__ = [
    "cauchy",
    "digits",
    "gray_ops",
    "kernel",
    "sd_ops",
    "ForceCount",
    "GrayG",
    "GrayH",
    "SdStream",
    "Splice",
    "take_gray_prefix",
    "take_prefix",
    "unfold_sd",
    "with_force_count",
    "with_force_count_gray",
]
