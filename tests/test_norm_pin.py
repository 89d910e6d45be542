"""The bits of ``problems.norm`` pinned on seeded vectors, in pure Python,
and those of ``problems.distance`` to ``norm`` of the difference.

``norm`` is ``math.hypot`` of a vector's components, which is CPython's own
code: its bits depend on neither the BLAS nor the NumPy build, so the trace
hashes do not either.  ``distance`` is ``math.dist``, which shares
``hypot``'s code on the absolute differences, so it equals ``norm`` of the
componentwise difference bit for bit.  This file needs no NumPy.  It takes
both functions' source out of ``src/agdsmooth/problems.py`` and runs them
on tuples and lists, so any CPython from 3.10 on can check the pins, with
or without the package's dependencies:

    python3 tests/test_norm_pin.py

The vectors have d in {1, 2, 3, 7, 50} and magnitudes about 1e-150, 1 and
1e150 (2**-498, 2**0 and 2**498, each component spread over 2**-8 to 2**8).
They are built from ``random.Random`` draws and ``math.ldexp``, both exact
and the same on every platform.  The distance pairs take d in {1, 2, 3, 7,
10, 16}, each side at one of those magnitudes.
"""

import __future__
import ast
import hashlib
import math
import random
from pathlib import Path

PROBLEMS = Path(__file__).resolve().parents[1] / "src" / "agdsmooth" / "problems.py"

DIMS = (1, 2, 3, 7, 50)
EXPONENTS = (-498, 0, 498)
VECTORS = 400

# (d, binary exponent) -> (sha256 of the norms' float.hex, one per line;
# the float.hex of the first three norms)
PIN = {
    (1, -498): ("caca1b4538aeef8ef2947ba2efd28c3a0299b45c85fd3890fd146b8184edf674",
                ["0x1.984a43ca82030p-508", "0x1.44d10d9bf2994p-507", "0x1.2dee3468c8072p-500"]),
    (1, 0): ("e1f875bc25db20a7b1cf221dd97aa49e0d2660517dc09a6c506f4f5fc627b027",
             ["0x1.2efcfcc1b1c1ep+6", "0x1.1ce4035d86d6cp+2", "0x1.d5ac20557501ap-5"]),
    (1, 498): ("90f7fd2a4bff0ef0e3e7063c0caee29e393d4a77d0c06c20ea0f1a518eb6a69b",
               ["0x1.442f755b604ecp+491", "0x1.4bad90ec4a938p+498", "0x1.83b886340a470p+493"]),
    (2, -498): ("c8af0a374f748669a48a36e1ff9863ae8909d7793b270b72e6a36b1af03231e6",
                ["0x1.045239ee19e49p-498", "0x1.e98ad40a62331p-494", "0x1.815c8648a1acfp-495"]),
    (2, 0): ("c646f7ac3c82bc8390e05d56be10d13a57ee0ee8f31a256d3e29626dc3a5ee51",
             ["0x1.f1d8ddd3359f8p+4", "0x1.f1871de79867ap-4", "0x1.95d7a2c6112f5p-3"]),
    (2, 498): ("fc5fa51861038f7a1cf743676fb4ebd1501ff3bece03a34c52f0087d9b993c70",
               ["0x1.d90cda8eb3939p+496", "0x1.c93a80350c339p+503", "0x1.26976a941689fp+500"]),
    (3, -498): ("f308c708d1ff076a55dfb0ba705ffad2ebad53c4bd151e9704c6c4b2d0aa56f7",
                ["0x1.486dfe5610f35p-494", "0x1.1dbada3a43f4cp-493", "0x1.706e598d7c0a9p-492"]),
    (3, 0): ("9c7f12d45a16e3c5b8eabdd184f9a38f24436c195e3fdb2f41f92a33e2d589fa",
             ["0x1.02a2b9e9d4feap+4", "0x1.cfc9ef1e80fedp+2", "0x1.c3933905e8aa0p+1"]),
    (3, 498): ("dc8e72d08f92f0685423d1fa9f9c9e92340f58f83dba88e189958b0081f1e994",
               ["0x1.c68b38b1e26adp+504", "0x1.2e322c539b92dp+503", "0x1.7830ef1402972p+501"]),
    (7, -498): ("4481428e0d6c7c2e5a5c636d2f6acc53f35a03317a0673e93db0b719c986c061",
                ["0x1.fb33e7e26adfdp-494", "0x1.e7ab7c3a06c04p-496", "0x1.09a9f10573b66p-495"]),
    (7, 0): ("2334087756ab24f01b34bdc8dd1e6eed19bb00a4974faed9591ff35b3a150a8d",
             ["0x1.7249c7e9e83f5p+6", "0x1.41d87c19f54d7p+1", "0x1.fd57626b200c1p+1"]),
    (7, 498): ("c9a7010fdb0a763906cabfdbad7e79f0421aa2b23f6cec2807b5fd32c2e5c056",
               ["0x1.5fb6e9e28b4ddp+504", "0x1.894b93c233d01p+505", "0x1.c1a5a73d72e09p+504"]),
    (50, -498): ("362646b7af004f79f3681e0796097e4649a26ed4067828602989895253ab3bef",
                 ["0x1.62e3585efc743p-490", "0x1.2c4d7cc069684p-491", "0x1.3fc88987be6a6p-490"]),
    (50, 0): ("70f06e874faab49455308e0c864a0769f054309c75e8042a04e03a1f8763c4ba",
              ["0x1.93781f1fbb2a8p+8", "0x1.3b669de40e48cp+8", "0x1.29c1d4a19cdc9p+8"]),
    (50, 498): ("278284e52827bdd50944de35790b423a9f41484a188b5837f5424dfb3746843c",
                ["0x1.e6278c9e1395bp+505", "0x1.ef39817efc46bp+505", "0x1.702c72476ea6cp+504"]),
}

# hand cases: the norm past the float range, and NaN beside inf
SPECIAL = [
    ((), "0x0.0p+0"),
    ((-0.0,), "0x0.0p+0"),
    ((5e-324,), "0x0.0000000000001p-1022"),
    ((2.0 ** -975, 2.0 ** -975), "0x1.6a09e667f3bcdp-975"),
    ((3.0, 4.0), "0x1.4000000000000p+2"),
    ((1e200, 1e200), "0x1.d8f9811335b57p+664"),
    ((1.5e308, 1.5e308), "inf"),
    ((math.inf, math.nan), "inf"),
    ((math.nan, 1.0), "nan"),
]


def package_function(name):
    """The function ``name`` of ``problems``, compiled from its source alone
    with ``math`` as its one global."""
    tree = ast.parse(PROBLEMS.read_text(), filename=str(PROBLEMS))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    code = compile(ast.Module(body=[node], type_ignores=[]), str(PROBLEMS), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {"math": math}
    exec(code, namespace)
    return namespace[name]


def vector(rng, d, exponent):
    return tuple(math.ldexp(2.0 * rng.random() - 1.0, exponent + int(17 * rng.random()) - 8)
                 for _ in range(d))


def vectors(d, exponent):
    rng = random.Random(f"norm-pin-{d}-{exponent}")
    for _ in range(VECTORS):
        yield vector(rng, d, exponent)


def digest(norm, d, exponent):
    hexes = [norm(v).hex() for v in vectors(d, exponent)]
    return hashlib.sha256("\n".join(hexes).encode()).hexdigest(), hexes[:3]


def test_norm_bits_are_pinned():
    norm = package_function("norm")
    got = {(d, e): digest(norm, d, e) for d in DIMS for e in EXPONENTS}
    assert got == PIN


def test_special_cases():
    norm = package_function("norm")
    assert [(v, norm(v).hex()) for v, _ in SPECIAL] == SPECIAL


def test_vectors_are_within_one_ulp_of_the_true_norm():
    # the pin holds the right bits: each norm brackets the exact root of
    # the sum of squares to one ulp
    from fractions import Fraction

    norm = package_function("norm")
    for d in DIMS:
        for e in EXPONENTS:
            for v in vectors(d, e):
                n = norm(v)
                total = sum(Fraction(c) ** 2 for c in v)
                ulp = Fraction(math.ulp(n))
                assert max(Fraction(n) - ulp, 0) ** 2 <= total <= (Fraction(n) + ulp) ** 2


DISTANCE_DIMS = (1, 2, 3, 7, 10, 16)
PAIRS = 200

# hand pairs: differences past the float range, inf - inf, a NaN, subnormal
# differences and exact cancellation
SPECIAL_PAIRS = [
    ((1.5e308, 1.0), (-1.5e308, 0.0)),
    ((1.7e308, -1.7e308), (-1.7e308, 1.7e308)),
    ((1e200, 1e200), (-1e200, -1e200)),
    ((math.inf, 1.0), (0.0, 2.0)),
    ((1.0, 2.0), (math.inf, -math.inf)),
    ((math.inf, 1.0), (math.inf, 2.0)),
    ((math.inf, math.nan), (0.0, 0.0)),
    ((math.nan, 1.0), (0.0, 0.0)),
    ((1.0, 2.0), (1.0, math.nan)),
    ((5e-324,), (-5e-324,)),
    ((5e-324, 1e-310), (0.0, -1e-310)),
    ((2.0 ** -1022, 2.0 ** -1074), (2.0 ** -1023, 0.0)),
    ((-0.0, 0.0), (0.0, -0.0)),
    ((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)),
    ((), ()),
]


def pairs(d):
    rng = random.Random(f"distance-pin-{d}")
    for _ in range(PAIRS):
        yield (vector(rng, d, EXPONENTS[int(3 * rng.random())]),
               vector(rng, d, EXPONENTS[int(3 * rng.random())]))


def difference_norm(norm, a, b):
    return norm(tuple(p - q for p, q in zip(a, b)))


def test_distance_is_the_norm_of_the_difference():
    norm, distance = package_function("norm"), package_function("distance")
    for d in DISTANCE_DIMS:
        for a, b in pairs(d):
            want = difference_norm(norm, a, b).hex()
            assert distance(a, b).hex() == want, (a, b)
            # a near pair: the difference cancels to its last bits
            near = tuple(math.nextafter(v, math.inf) for v in a)
            assert distance(a, near).hex() == difference_norm(norm, a, near).hex()
            assert distance(list(a), b).hex() == distance(a, list(b)).hex() == want


def test_distance_special_cases():
    norm, distance = package_function("norm"), package_function("distance")
    got = [distance(a, b).hex() for a, b in SPECIAL_PAIRS]
    assert got == [difference_norm(norm, a, b).hex() for a, b in SPECIAL_PAIRS]
    assert got[:3] == ["inf", "inf", "0x1.d8f9811335b57p+665"]
    assert got[3:6] == ["inf", "inf", "nan"]  # inf - inf is a NaN component
    assert got[6:9] == ["inf", "nan", "nan"]
    assert got[9] == "0x0.0000000000002p-1022" and got[-2:] == ["0x0.0p+0"] * 2


if __name__ == "__main__":
    import sys

    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
    print(f"norm and distance pins hold on Python {sys.version.split()[0]}")
