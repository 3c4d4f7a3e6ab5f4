"""Exact corner proofs: at nine commuting corners that attain their
constants, the evaluator's float sides, constant, ratio and slack are the
paper's exact values to within a few ulps, and each certificate still holds."""

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
IDENTITY = parse_map("identity", 2, SplitMix64(0))

S, T = Fraction(1, 4), Fraction(4)
REVERSAL = ({"phi": NTRACE_1, "tau": ARITHMETIC, "sigma": HARMONIC,
             "f": parse_function("power:1")},
            (exact.ntrace_1, exact.arithmetic, exact.harmonic, lambda x: x))


def _attained(lhs, rhs, c) -> list:
    """The one certificate lhs <= c * base, its sides equal: its ratio of lhs to base is c."""
    return [(lhs, rhs, c, c)]


def _strengthened_remark() -> list:
    # left <= middle <= c * base, with the ratio of left to base
    left, middle, rhs, c = exact.strengthened_remark(A, B, S, T, *REVERSAL[1])
    assert left == middle  # sqrt(st) = 1 here, so both links are attained
    return _attained(left, rhs, c)


def _sandwich_lemma() -> list:
    # c1 (A nabla B) <= A # B carries its constant on the left, so its sides' ratio is 1
    lower, upper = exact.sandwich_lemma(A, B, S, T)
    return [(*lower, Fraction(1)), (*upper, upper[2])]


# (id, cell bounds, picks, the exact (lhs, rhs, c, ratio) of each certificate), each
# corner attaining its constants
CORNERS = [
    ("polya-szego", (1, 4), {"phi": NTRACE_1},
     _attained(*exact.polya_szego(A, B, Fraction(1), Fraction(4), exact.ntrace_1))),
    ("kantorovich-f", (1, 4), REVERSAL[0],
     _attained(*exact.kantorovich_f(A, B, Fraction(1), Fraction(4), *REVERSAL[1]))),
    ("midpoint", (S, T), {}, _attained(*exact.midpoint(A, B, S, T))),
    ("sandwich-lemma", (S, T), {}, _sandwich_lemma()),
    ("main-monotone", (S, T), REVERSAL[0],
     _attained(*exact.main_monotone(A, B, S, T, *REVERSAL[1]))),
    ("diaz-metcalf", (S, T), REVERSAL[0],
     _attained(*exact.diaz_metcalf(A, B, S, T, *REVERSAL[1]))),
    ("main-decreasing", (S, T),
     {"phi": IDENTITY, "tau": HARMONIC, "sigma": HARMONIC, "g": parse_function("inv_power:1")},
     _attained(*exact.main_decreasing(A, B, S, T, exact.identity, exact.harmonic,
                                      exact.harmonic, lambda x: 1 / x))),
    ("strengthened-remark", (S, T), REVERSAL[0], _strengthened_remark()),
]


def _close(got, want, scale=None) -> bool:
    """Entry by entry within ULPS ulps of ``scale``, by default the largest exact entry."""
    want = np.asarray(want, dtype=float)
    scale = np.abs(want).max() if scale is None else float(scale)
    return bool(np.all(np.abs(np.asarray(got) - want) <= ULPS * math.ulp(scale)))


def test_the_exact_corners_attain_their_constants():
    # both sides are equal, so the ratio of lhs to its base is the constant
    half, two = Fraction(5, 2), Fraction(2)
    assert [cert for *_, certs in CORNERS for cert in certs] == [
        ((half,), (half,), Fraction(5, 4), Fraction(5, 4)),
        ((half,), (half,), Fraction(25, 16), Fraction(25, 16)),
        ((half,) * 2, (half,) * 2, Fraction(5, 4), Fraction(5, 4)),
        ((two,) * 2, (two,) * 2, Fraction(4, 5), Fraction(1)),
        ((two,) * 2, (two,) * 2, Fraction(5, 4), Fraction(5, 4)),
        ((half,), (half,), Fraction(25, 16), Fraction(25, 16)),
        ((half,), (half,), Fraction(25, 16), Fraction(25, 16)),
        ((Fraction(5, 8),) * 2, (Fraction(5, 8),) * 2, Fraction(25, 16), Fraction(25, 16)),
        ((half,), (half,), Fraction(25, 16), Fraction(25, 16)),
    ]


@pytest.mark.parametrize("ineq, bounds, picks, want", CORNERS, ids=[c[0] for c in CORNERS])
def test_float_certificate_meets_the_exact_corner(ineq, bounds, picks, want):
    got = certify(ineq, one(np.diag(np.array(A, dtype=float))),
                  one(np.diag(np.array(B, dtype=float))), *map(float, bounds), **picks)
    got = got if isinstance(got, tuple) else (got,)
    assert len(got) == len(want)
    for sides, (lhs, rhs, c, ratio) in zip(got, want):
        assert _close(sides.lhs.data[0], np.diag(lhs))
        assert _close(sides.rhs.data[0], np.diag(rhs))
        assert _close(sides.constant[0], c)
        assert _close(sides.ratio[0], ratio)
        # the sides are equal, so the exact slack is 0, and so is each link's of a chain
        links = [col[0] for name, col in sides.params.items() if name.startswith("slack_link")]
        for slack in (sides.slack[0], *links):
            assert abs(slack) <= ULPS * math.ulp(float(max(rhs)))
        assert sides.slack[0] >= -sides.tol[0]
        assert sides.holds[0]


KLAMKIN_PICKS = {"phi": NTRACE_1, "sigma": HARMONIC, "f": parse_function("power:1")}


def test_klamkin_corner_meets_its_bound():
    # P = 8/5, F = G = 5/2 and T = F/P = 25/16: lhs = 25/16 - 16/25, and
    # rhs = (c - 2) - (5/4 - 4/5)^2 with c = 25/8
    lhs, rhs, c = exact.klamkin_mclenaghan(A, B, S, T, exact.ntrace_1, exact.harmonic,
                                           lambda x: x)
    assert (lhs, rhs, c) == ((Fraction(369, 400),), (Fraction(369, 400),), Fraction(25, 8))
    sides = certify("klamkin-mclenaghan", one(np.diag(np.array(A, dtype=float))),
                    one(np.diag(np.array(B, dtype=float))), float(S), float(T),
                    **KLAMKIN_PICKS)
    # each side is a difference of terms up to T = 25/16, and is rounded at
    # their scale: the float lhs is 5.1 ulps of 369/400 from it, 2.6 of 25/16
    term = Fraction(25, 16)
    assert _close(sides.lhs.data[0], [lhs], term)
    assert _close(sides.rhs.data[0], [rhs], term)
    assert _close(sides.constant[0], c)
    assert abs(sides.slack[0]) <= 2 * ULPS * math.ulp(term)
    # a ratio of two sides, each within ULPS ulps of the terms' scale, is within
    # the sum of their relative errors of 1: it reads 1 - 4.5 ulps of 1
    assert abs(sides.ratio[0] - 1.0) <= 2 * ULPS * math.ulp(term) / float(lhs[0])
    assert sides.holds[0]
