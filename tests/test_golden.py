"""Golden digits and forced input counts of every operation, in both codings.

Each case runs an operation on seeded rational inputs that meet its
precondition, takes a fixed prefix of the output and records how many
constructors of each input were forced.  The pinned value is a sha256 of
the output prefix and those counts; any change to what the streams compute,
or to how far they look ahead, changes it.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from streamreal import gray_ops, sd_ops
from streamreal.kernel import take_gray_prefix, take_prefix, with_force_count
from tests.support import division_pair, unit_fraction

OPS = {"sd": sd_ops, "gray": gray_ops}
TAKE = {"sd": take_prefix, "gray": take_gray_prefix}
OP_DIGITS = 200
DIV_DIGITS = 120
PER_OP = 6


def _draw(rng: random.Random, name: str) -> tuple[Fraction, ...]:
    """Inputs of ``name`` that meet its precondition exactly."""
    a = unit_fraction(rng)
    if name == "average":
        return a, unit_fraction(rng)
    if name == "double":
        return (a / 2,)
    if name == "add_one":
        return (-abs(a),)
    if name == "sub_one":
        return (abs(a),)
    if name in ("twice_minus", "twice_plus", "divide"):
        x, y = division_pair(rng)
        if name == "twice_minus":
            x = abs(x)
        elif name == "twice_plus":
            x = -abs(x)
        return x, y
    return (a,)


def _cases():
    rng = random.Random(20190430)
    names = ("negate", "half", "double", "add_one", "sub_one", "average",
             "twice_minus", "twice_plus", "divide")
    cases = [(f"{code}-{name}-{i}", code, name, _draw(rng, name))
             for code in ("sd", "gray") for name in names for i in range(PER_OP)]
    cases += [(f"{name}-{i}", None, name, (unit_fraction(rng),))
              for name in ("from_sd", "to_sd", "encode") for i in range(PER_OP)]
    return cases


def _run(code: str, name: str, values: tuple[Fraction, ...]):
    if name == "encode":
        (a,) = values
        return [take_prefix(sd_ops.encode(a), OP_DIGITS),
                take_gray_prefix(gray_ops.encode(a), OP_DIGITS)], []
    if name in ("from_sd", "to_sd"):
        # from_sd reads an SD stream and writes Gray; to_sd the reverse.
        (a,) = values
        source = "sd" if name == "from_sd" else "gray"
        wrapped, counter = with_force_count(OPS[source].encode(a))
        out = getattr(gray_ops, name)(wrapped)
        target = "gray" if name == "from_sd" else "sd"
        return TAKE[target](out, OP_DIGITS), [counter.count]
    wrapped = [with_force_count(OPS[code].encode(a)) for a in values]
    out = getattr(OPS[code], name)(*[stream for stream, _ in wrapped])
    n = DIV_DIGITS if name == "divide" else OP_DIGITS
    return TAKE[code](out, n), [counter.count for _, counter in wrapped]


def _digest(prefix) -> str:
    return hashlib.sha256(repr(prefix).encode()).hexdigest()[:16]


GOLDEN = {
    "sd-negate-0": ("3e8ae0603243538f", [200]),
    "sd-negate-1": ("803f5115715edfe8", [200]),
    "sd-negate-2": ("572c926acde0ea5b", [200]),
    "sd-negate-3": ("ec2f593630f06c73", [200]),
    "sd-negate-4": ("48995fe2147f7d79", [200]),
    "sd-negate-5": ("b5e9a945d2ef4b82", [200]),
    "sd-half-0": ("37416a8a9d4f608c", [199]),
    "sd-half-1": ("1c7ee32bc370bb58", [199]),
    "sd-half-2": ("98eedc6b3d37700b", [199]),
    "sd-half-3": ("25e34a90eecfa048", [199]),
    "sd-half-4": ("acd5d38471846a10", [199]),
    "sd-half-5": ("d95741211cb7146d", [199]),
    "sd-double-0": ("87eb4341215e8e8b", [201]),
    "sd-double-1": ("f4b758d3c1761c81", [201]),
    "sd-double-2": ("5d9ea0285e0beb55", [201]),
    "sd-double-3": ("4e068c17d2b068f1", [201]),
    "sd-double-4": ("e0c0545e349c0339", [201]),
    "sd-double-5": ("c39b83dc9da868b4", [201]),
    "sd-add_one-0": ("e553eeb9231f07e5", [200]),
    "sd-add_one-1": ("614b53e4184637ae", [200]),
    "sd-add_one-2": ("3fd6842c09bb6c34", [200]),
    "sd-add_one-3": ("0adf6ffe81946f14", [200]),
    "sd-add_one-4": ("de4517aa581cabf4", [200]),
    "sd-add_one-5": ("e650163f8ba563b5", [200]),
    "sd-sub_one-0": ("4a7dff7147c623a6", [200]),
    "sd-sub_one-1": ("c2b6a74d27fec1d4", [200]),
    "sd-sub_one-2": ("c92590a9a8b8cd89", [200]),
    "sd-sub_one-3": ("4357aede8dd9c35b", [200]),
    "sd-sub_one-4": ("4522ec0e946c2d61", [200]),
    "sd-sub_one-5": ("5a36f35d99e19fd8", [200]),
    "sd-average-0": ("a5426d464857c2ef", [201, 201]),
    "sd-average-1": ("3b4e50fcf1d4c095", [201, 201]),
    "sd-average-2": ("38922aa816dd5c84", [201, 201]),
    "sd-average-3": ("d18f7d1fa3816da4", [201, 201]),
    "sd-average-4": ("b01354f51af6449a", [201, 201]),
    "sd-average-5": ("1c4c9ccdbd2e1be5", [201, 201]),
    "sd-twice_minus-0": ("6d7b5b91d7af5479", [203, 202]),
    "sd-twice_minus-1": ("c0d102616908ac5e", [203, 202]),
    "sd-twice_minus-2": ("208549c4bad80bff", [203, 202]),
    "sd-twice_minus-3": ("ec84b3b468da16be", [203, 202]),
    "sd-twice_minus-4": ("f4983522217eee67", [203, 202]),
    "sd-twice_minus-5": ("87143b069ebf4f41", [203, 202]),
    "sd-twice_plus-0": ("fcbe3e904c83b588", [203, 202]),
    "sd-twice_plus-1": ("90345dd0768c52f3", [203, 202]),
    "sd-twice_plus-2": ("369dc75fc7765322", [203, 202]),
    "sd-twice_plus-3": ("0d954cc5c795ae07", [203, 202]),
    "sd-twice_plus-4": ("0d77dec48c764239", [203, 202]),
    "sd-twice_plus-5": ("192087c187818fcf", [203, 202]),
    "sd-divide-0": ("c6104326ba80e1fa", [360, 359]),
    "sd-divide-1": ("48c235a17853ce9a", [360, 359]),
    "sd-divide-2": ("7e5737d44d007b99", [360, 359]),
    "sd-divide-3": ("d34e7e95edd7037f", [360, 350]),
    "sd-divide-4": ("d6f7bf7814e14d96", [360, 359]),
    "sd-divide-5": ("d2619b74e6f59e43", [360, 359]),
    "gray-negate-0": ("1554fe0ee69e3a97", [200]),
    "gray-negate-1": ("b11ff58ed20c8838", [200]),
    "gray-negate-2": ("d50c2bdbba1faa82", [200]),
    "gray-negate-3": ("416311a1991d6704", [200]),
    "gray-negate-4": ("c38ab393a7ea8682", [200]),
    "gray-negate-5": ("7c9606da931fc36f", [200]),
    "gray-half-0": ("be4cbf457df7a5aa", [199]),
    "gray-half-1": ("8b9a4ba418204b3e", [199]),
    "gray-half-2": ("f8db57d4c727fb90", [199]),
    "gray-half-3": ("07206f4b4f9b414b", [199]),
    "gray-half-4": ("4ce5a8961f7174ea", [199]),
    "gray-half-5": ("1e57abefb5119503", [199]),
    "gray-double-0": ("0787729dac9f01f2", [201]),
    "gray-double-1": ("5d63e63766ec1440", [201]),
    "gray-double-2": ("cbc3349480d959c1", [201]),
    "gray-double-3": ("5f20fc1908097033", [201]),
    "gray-double-4": ("ef30fc7e6991d8ab", [201]),
    "gray-double-5": ("785677217428532e", [201]),
    "gray-add_one-0": ("e4083fd7709bfc3c", [200]),
    "gray-add_one-1": ("6fd03d8b93725b25", [200]),
    "gray-add_one-2": ("25499d7ea266d177", [200]),
    "gray-add_one-3": ("ccaab861dda64bde", [200]),
    "gray-add_one-4": ("631bb58d0fbf8028", [200]),
    "gray-add_one-5": ("f990b010411c076d", [200]),
    "gray-sub_one-0": ("b5d6e27f492bc1f1", [200]),
    "gray-sub_one-1": ("6af72c391f5246a4", [200]),
    "gray-sub_one-2": ("079f3a4311914587", [200]),
    "gray-sub_one-3": ("b7aacc2bde5b3b57", [200]),
    "gray-sub_one-4": ("14715686d3eecf60", [200]),
    "gray-sub_one-5": ("4b9dc9503a56cfca", [200]),
    "gray-average-0": ("22919309ce4fc691", [201, 201]),
    "gray-average-1": ("d63d4ce2f608a4e8", [201, 201]),
    "gray-average-2": ("5ce0f7f4c15a301a", [201, 201]),
    "gray-average-3": ("e10992c755ce053c", [201, 201]),
    "gray-average-4": ("0b23788b728dcde2", [201, 201]),
    "gray-average-5": ("f8be2d7b386827e1", [201, 201]),
    "gray-twice_minus-0": ("9887b5d54e6601ff", [203, 202]),
    "gray-twice_minus-1": ("93022b87ded028d5", [203, 202]),
    "gray-twice_minus-2": ("cbda726129e96ab1", [203, 202]),
    "gray-twice_minus-3": ("761b07affb5dd4b7", [203, 202]),
    "gray-twice_minus-4": ("1436dff6b183089a", [203, 202]),
    "gray-twice_minus-5": ("fdf2907550eeb11d", [203, 202]),
    "gray-twice_plus-0": ("006a79b9e4295b2e", [203, 202]),
    "gray-twice_plus-1": ("e75aab3d3bd59426", [203, 202]),
    "gray-twice_plus-2": ("ff578276ea1e48ca", [203, 202]),
    "gray-twice_plus-3": ("16c0f656674184cc", [203, 202]),
    "gray-twice_plus-4": ("71bb6c7e14030591", [203, 202]),
    "gray-twice_plus-5": ("2860a151b799e9c3", [203, 202]),
    "gray-divide-0": ("8771ffcdae94e883", [360, 359]),
    "gray-divide-1": ("1a7952411857a408", [360, 359]),
    "gray-divide-2": ("14e926fd7887810c", [360, 359]),
    "gray-divide-3": ("018dbbc6fb655202", [360, 359]),
    "gray-divide-4": ("52cf1ab33ebfc196", [360, 359]),
    "gray-divide-5": ("5a10728c35ac268b", [360, 359]),
    "from_sd-0": ("b0adfe8f7cae0fb3", [200]),
    "from_sd-1": ("eed40eaf6c4665cd", [200]),
    "from_sd-2": ("f0a11d57dcecde84", [200]),
    "from_sd-3": ("cc53157b6608eb98", [200]),
    "from_sd-4": ("ac9b6fcb7d0e794a", [200]),
    "from_sd-5": ("93f80ecc49b038f9", [200]),
    "to_sd-0": ("0aafab743934596e", [200]),
    "to_sd-1": ("c1d6c2faf69d4e23", [200]),
    "to_sd-2": ("186409b9cba0fb39", [200]),
    "to_sd-3": ("4e5397e755269f12", [200]),
    "to_sd-4": ("15dcee08566d56a3", [200]),
    "to_sd-5": ("2fc4b6b4dceb1f24", [200]),
    "encode-0": ("f18001c807dd7031", []),
    "encode-1": ("f0fd537400f99548", []),
    "encode-2": ("62e2aaae35e0358f", []),
    "encode-3": ("0bef452f7d516d2b", []),
    "encode-4": ("22415c3c730f53ab", []),
    "encode-5": ("6fcb2bd73c2510a8", []),
}


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_golden_prefix_and_forced_counts(case):
    key, code, name, values = case
    prefix, counts = _run(code, name, values)
    assert (_digest(prefix), counts) == GOLDEN[key]
