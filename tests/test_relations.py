"""Metamorphic relations of the certificates: each relation is declared once
and run over every row of ``ROWS`` that it applies to; a row it skips is
skipped for a stated reason."""

import numpy as np
import pytest

from loewner_lab import SplitMix64, suite
from loewner_lab.certificates import ROWS, check_stack
from loewner_lab.generate import random_orthogonal
from loewner_lab.kernels import (DEFAULT_DECREASING_SPECS, DEFAULT_KERNEL_SPECS,
                                 DEFAULT_MONOTONE_SPECS, is_symmetric_kernel, parse_kernel)
from loewner_lab.spectral import SymStack
from loewner_lab.suite import SuiteConfig

# The maps that commute with a rotation: phi(Q X Q^T) is Q phi(X) Q^T, or
# phi(X) itself for ntrace:1.  Pinching, congruence and Kraus maps are not
# covariant, so the relation keeps them out of the pool.
COVARIANT_MAPS = ("identity", "ntrace:full", "ntrace:1")
TRIALS = 12
# The rows that the relations skip, each with its reason.
SKIPPED = {ineq: "a scalar row has no matrices to rotate or scale"
           for ineq, row in ROWS.items() if row.cell.pair is None}


def _rotated(X: SymStack, q: np.ndarray) -> SymStack:
    return SymStack(q @ X.data @ q.transpose(0, 2, 1))


def assert_orthogonal_covariance(ineq: str, dim: int, seed: int) -> None:
    """Rotating A and B by a seeded orthogonal Q per trial rotates both sides
    and so keeps each certificate's slack within its tol and its ratio
    within 1e-12 of max(1, |ratio|)."""
    row = ROWS[ineq]
    config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=TRIALS, seed=seed,
                         maps=COVARIANT_MAPS)
    pools = suite._build_pools(config, dim, [ineq])
    for trials in suite._stacks(ineq, dim, range(TRIALS), pools):
        A, B, cells = suite._draw(ineq, dim, trials, config)
        q = random_orthogonal(dim, [SplitMix64(seed * TRIALS + trial) for trial in trials])
        picks = suite._picked(row, trials, pools)
        base = check_stack(row, A, B, cells, picks)
        turned = check_stack(row, _rotated(A, q), _rotated(B, q), cells, picks)
        for side, side_turned in zip(base.sides, turned.sides):
            assert np.all(np.abs(side_turned.slack - side.slack) <= side.tol), (ineq, trials)
            # a Grüss ratio is of a difference that nearly cancels, and may be
            # near 0: it is compared relative to max(1, |ratio|)
            finite = np.isfinite(side.ratio)
            assert np.array_equal(side.ratio[~finite], side_turned.ratio[~finite])
            assert np.allclose(side_turned.ratio[finite], side.ratio[finite], rtol=1e-12,
                               atol=1e-12), (ineq, trials)


@pytest.mark.parametrize("ineq", [i for i in ROWS if i not in SKIPPED])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_orthogonal_covariance(ineq, dim):
    assert_orthogonal_covariance(ineq, dim, seed=dim)


def test_every_skipped_row_is_a_scalar_row():
    # the other 19 rows run the relations
    assert sorted(SKIPPED) == ["alpha-scaling", "specht-bound"]


# Homogeneity: every mean, map and norm is homogeneous, and so is a power
# function, so scaling A, B and the cell's (m, M) by one factor scales both
# sides alike. These default functions are not homogeneous, so the relation
# keeps them out of the pools; (s, t) bound B against A, so they stay.
NOT_HOMOGENEOUS = {"log1p": "log(1 + x) is not a power of x",
                   "rational:1": "x / (x + 1) is not a power of x",
                   "shifted_inverse:1": "1 / (x + 1) is not a power of x"}
HOMOGENEOUS_PICKS = {
    name: tuple(spec for spec in specs if spec not in NOT_HOMOGENEOUS)
    for name, specs in (("monotone_fns", DEFAULT_MONOTONE_SPECS),
                        ("decreasing_fns", DEFAULT_DECREASING_SPECS))}
SCALE = 4.0


def assert_homogeneity(ineq: str, dim: int, seed: int) -> None:
    """Scaling A and B by 4, and (m, M) by 4 where the cell has them, keeps
    each trial's verdict and its ratio within 1e-12 of max(1, |ratio|)."""
    row = ROWS[ineq]
    config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=TRIALS, seed=seed,
                         **HOMOGENEOUS_PICKS)
    pools = suite._build_pools(config, dim, [ineq])
    scales = row.cell.bounds == ("m", "M")
    for trials in suite._stacks(ineq, dim, range(TRIALS), pools):
        A, B, cells = suite._draw(ineq, dim, trials, config)
        picks = suite._picked(row, trials, pools)
        base = check_stack(row, A, B, cells, picks)
        scaled = check_stack(row, A * SCALE, B * SCALE,
                             [tuple(SCALE * v for v in cell) for cell in cells] if scales
                             else cells, picks)
        assert scaled.holds == base.holds, (ineq, trials)
        ratio, ratio_scaled = np.array(base.ratio), np.array(scaled.ratio)
        finite = np.isfinite(ratio)
        assert np.array_equal(ratio[~finite], ratio_scaled[~finite])
        assert np.all(np.abs(ratio_scaled - ratio)[finite]
                      <= 1e-12 * np.maximum(1.0, np.abs(ratio[finite]))), (ineq, trials)


@pytest.mark.parametrize("ineq", [i for i in ROWS if i not in SKIPPED])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_homogeneity(ineq, dim):
    assert_homogeneity(ineq, dim, seed=dim)


def test_homogeneous_pools_keep_the_powers():
    assert HOMOGENEOUS_PICKS == {"monotone_fns": ("power:0.5", "power:1"),
                                 "decreasing_fns": ("inv_power:1", "inv_power:0.5")}


# Swap symmetry: every default kernel k is symmetric, k(x) = x k(1/x), so
# A sigma B = B sigma A, and s A <= B <= t A is (1/t) B <= A <= (1/s) B, so
# swapping A and B, with a sandwich cell's (s, t) -> (1/t, 1/s), keeps both
# sides of these rows; (m, M) bound A and B alike, and the free cell has no
# bounds, so they keep their cell.
NOT_SWAPPED = {
    "squared": "its order cell A <= B is not symmetric, so the swapped pair is refused",
    "strengthened-remark": "its reflected cell sends s t >= 1 to s t <= 1, which is refused",
    **dict.fromkeys(("midpoint", "diaz-metcalf", "klamkin-mclenaghan"),
                    "it weights A by sqrt(st), so the swap moves the ratio"),
    **SKIPPED,
}


def _swapped(cells: list, sandwich: bool) -> list:
    return [(1.0 / t, 1.0 / s) for s, t in cells] if sandwich else cells


def assert_swap_symmetry(ineq: str, dim: int, seed: int) -> None:
    """Swapping A and B, and (s, t) to (1/t, 1/s) in a sandwich cell, keeps
    each trial's verdict and its ratio within 1e-12 of max(1, |ratio|)."""
    row = ROWS[ineq]
    config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=TRIALS, seed=seed)
    pools = suite._build_pools(config, dim, [ineq])
    sandwich = row.cell.bounds == ("s", "t")
    for trials in suite._stacks(ineq, dim, range(TRIALS), pools):
        A, B, cells = suite._draw(ineq, dim, trials, config)
        picks = suite._picked(row, trials, pools)
        base = check_stack(row, A, B, cells, picks)
        swapped = check_stack(row, B, A, _swapped(cells, sandwich), picks)
        assert swapped.holds == base.holds, (ineq, trials)
        ratio, ratio_swapped = np.array(base.ratio), np.array(swapped.ratio)
        finite = np.isfinite(ratio)
        assert np.array_equal(ratio[~finite], ratio_swapped[~finite])
        assert np.all(np.abs(ratio_swapped - ratio)[finite]
                      <= 1e-12 * np.maximum(1.0, np.abs(ratio[finite]))), (ineq, trials)


@pytest.mark.parametrize("ineq", [i for i in ROWS if i not in NOT_SWAPPED])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_swap_symmetry(ineq, dim):
    assert_swap_symmetry(ineq, dim, seed=dim)


def test_swap_symmetry_runs_on_the_symmetric_rows_of_the_default_kernels():
    assert all(is_symmetric_kernel(parse_kernel(spec)) for spec in DEFAULT_KERNEL_SPECS)
    assert [i for i in ROWS if i not in NOT_SWAPPED] == [
        "ando", "polya-szego", "kantorovich-f", "sandwich-lemma", "main-monotone",
        "main-decreasing", "gruss-f", "gruss-g", "squared-consequence-f",
        "squared-consequence-g", "norm-ratio-tau", "norm-ratio-sharp", "norm-ratio-power4",
        "norm-ratio-eq15"]
