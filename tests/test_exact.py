"""Exact corner proofs: at three commuting corners that attain their
constants, the evaluator's float sides and constant are the paper's exact
values to within a few ulps, and each certificate still holds."""

import math
from fractions import Fraction

import numpy as np
import pytest

import exact
from loewner_lab import SplitMix64
from loewner_lab.kernels import ARITHMETIC, HARMONIC, parse_function
from loewner_lab.maps import parse_map
from oracles import certify, one

ULPS = 4
A, B = exact.diag(1, 4), exact.diag(4, 1)
NTRACE_1 = parse_map("ntrace:1", 2, SplitMix64(0))

# (id, cell bounds, picks, the exact (lhs, rhs, c)), each corner attaining c
CORNERS = [
    ("polya-szego", (1, 4), {"phi": NTRACE_1},
     exact.polya_szego(A, B, Fraction(1), Fraction(4), exact.ntrace_1)),
    ("kantorovich-f", (1, 4),
     {"phi": NTRACE_1, "tau": ARITHMETIC, "sigma": HARMONIC, "f": parse_function("power:1")},
     exact.kantorovich_f(A, B, Fraction(1), Fraction(4), exact.ntrace_1, exact.arithmetic,
                         exact.harmonic, lambda x: x)),
    ("midpoint", (Fraction(1, 4), 4), {}, exact.midpoint(A, B, Fraction(1, 4), Fraction(4))),
]


def _close(got, want) -> bool:
    """Entry by entry within ULPS ulps of the largest exact entry."""
    want = np.asarray(want, dtype=float)
    return bool(np.all(np.abs(np.asarray(got) - want) <= ULPS * math.ulp(np.abs(want).max())))


def test_the_exact_corners_attain_their_constants():
    # both sides are equal, so the ratio of the sides is the constant
    assert [(lhs, rhs, c) for _, _, _, (lhs, rhs, c) in CORNERS] == [
        ((Fraction(5, 2),), (Fraction(5, 2),), Fraction(5, 4)),
        ((Fraction(5, 2),), (Fraction(5, 2),), Fraction(25, 16)),
        ((Fraction(5, 2),) * 2, (Fraction(5, 2),) * 2, Fraction(5, 4)),
    ]


@pytest.mark.parametrize("ineq, bounds, picks, want", CORNERS, ids=[c[0] for c in CORNERS])
def test_float_certificate_meets_the_exact_corner(ineq, bounds, picks, want):
    lhs, rhs, c = want
    sides = certify(ineq, one(np.diag(np.array(A, dtype=float))),
                    one(np.diag(np.array(B, dtype=float))), *map(float, bounds), **picks)
    assert _close(sides.lhs.data[0], np.diag(lhs))
    assert _close(sides.rhs.data[0], np.diag(rhs))
    assert _close(sides.constant[0], c)
    assert _close(sides.ratio[0], c)
    assert sides.slack[0] >= -sides.tol[0]
    assert sides.holds[0]
