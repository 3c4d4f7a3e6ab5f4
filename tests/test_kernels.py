import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    LOGARITHMIC,
    SQUARE,
    DomainError,
    ScalarKernel,
    SplitMix64,
    default_grid,
    eval_kernel,
    heinz,
    is_symmetric_kernel,
    kernel_catalog,
    kernel_dominance,
    loewner_matrix_psd_test,
    parse_function,
    parse_kernel,
    power,
    sandwich_constant,
    specht_ratio,
)
from loewner_lab.kernels import (
    OPERATOR_CONVEX_ZERO,
    OPERATOR_MONOTONE,
    OPERATOR_MONOTONE_DECREASING,
    divided_difference_matrix,
    monotone_catalog,
)


class TestEvalKernel:
    def test_geometric(self):
        assert eval_kernel(GEOMETRIC, 4.0) == pytest.approx(2.0)

    def test_harmonic(self):
        assert eval_kernel(HARMONIC, 4.0) == pytest.approx(1.6)

    @pytest.mark.parametrize("kernel", kernel_catalog(), ids=lambda k: k.id)
    def test_normalized_at_one(self, kernel):
        assert eval_kernel(kernel, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            eval_kernel(GEOMETRIC, 0.0)

    def test_logarithmic_stable_near_one(self):
        # limiting value is 1 and the surrogate branch agrees with the exact
        # formula to second order at the hand-off
        assert eval_kernel(LOGARITHMIC, 1.0) == 1.0
        for t in (1.0 + 1e-9, 1.0 - 1e-9):
            assert eval_kernel(LOGARITHMIC, t) == pytest.approx(0.5 * (1 + t), abs=1e-15)
        for t in (1.0 + 1e-7, 0.999, 1.001):
            exact = (t - 1.0) / math.log(t)
            assert eval_kernel(LOGARITHMIC, t) == pytest.approx(exact, rel=1e-12)
        below = eval_kernel(LOGARITHMIC, 1.0 - 2e-8)
        above = eval_kernel(LOGARITHMIC, 1.0 + 2e-8)
        assert abs(above - below) < 1e-7


class TestDominance:
    def test_harmonic_below_geometric(self):
        assert kernel_dominance(HARMONIC, GEOMETRIC).holds

    def test_am_gm(self):
        assert kernel_dominance(GEOMETRIC, ARITHMETIC).holds

    def test_reversed_fails_with_reported_witness(self):
        # on this grid the worst violation of arithmetic <= geometric is at t=4
        verdict = kernel_dominance(ARITHMETIC, GEOMETRIC, grid=[0.5, 1.0, 2.0, 4.0])
        assert not verdict.holds
        assert verdict.worst_t == pytest.approx(4.0)
        assert verdict.margin == pytest.approx(-0.5)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            kernel_dominance(HARMONIC, GEOMETRIC, grid=[])

    @pytest.mark.parametrize("kernel", kernel_catalog(), ids=lambda k: k.id)
    def test_catalog_between_harmonic_and_arithmetic(self, kernel):
        assert kernel_dominance(HARMONIC, kernel).holds
        assert kernel_dominance(kernel, ARITHMETIC).holds


class TestSymmetricKernels:
    def test_geometric_symmetric(self):
        assert is_symmetric_kernel(GEOMETRIC)

    def test_heinz_quarter_symmetric(self):
        assert is_symmetric_kernel(heinz(0.25))

    def test_weighted_average_not_symmetric(self):
        lopsided = ScalarKernel("lopsided", lambda t: (1.0 + 2.0 * t) / 3.0)
        assert not is_symmetric_kernel(lopsided, grid=[2.0])

    @pytest.mark.parametrize("kernel", kernel_catalog(), ids=lambda k: k.id)
    def test_catalog_symmetric(self, kernel):
        assert is_symmetric_kernel(kernel)


class TestLoewnerMatrixScreen:
    def test_sqrt_accepted_at_hand_points(self):
        # brute-force char-poly roots of the 3x3 divided-difference matrix of
        # sqrt at {1,2,3} are all positive (min ~6.7e-5)
        mat = divided_difference_matrix(math.sqrt, [1.0, 2.0, 3.0])
        coeffs = [
            1.0,
            -np.trace(mat),
            sum(
                mat[i, i] * mat[j, j] - mat[i, j] * mat[j, i]
                for i in range(3)
                for j in range(i + 1, 3)
            ),
            -np.linalg.det(mat),
        ]
        roots = sorted(np.roots(coeffs).real)
        assert roots[0] > 0
        assert loewner_matrix_psd_test(parse_function("power:0.5"), [1.0, 2.0, 3.0])

    def test_identity_all_ones_psd(self):
        assert loewner_matrix_psd_test(parse_function("id"), [0.5, 1.0, 7.0, 20.0])

    def test_square_rejected_at_hand_points(self):
        # matrix is [[2,3,4],[3,4,5],[4,5,6]]; eigenvalues {6-sqrt(42), 0, 6+sqrt(42)}
        mat = divided_difference_matrix(lambda x: x * x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(mat, [[2, 3, 4], [3, 4, 5], [4, 5, 6]], atol=1e-9)
        assert not loewner_matrix_psd_test(SQUARE, [1.0, 2.0, 3.0])
        assert 6 - math.sqrt(42) == pytest.approx(-0.4807406984078604)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            loewner_matrix_psd_test(SQUARE, [1.0, 1.0, 2.0])

    def test_catalog_monotone_accepted_square_rejected(self):
        rng = SplitMix64(2024)
        point_sets = [[rng.uniform(1e-3, 1e3) for _ in range(5)] for _ in range(20)]
        for fn in monotone_catalog():
            assert all(loewner_matrix_psd_test(fn, pts) for pts in point_sets), fn.id
        assert any(not loewner_matrix_psd_test(SQUARE, pts) for pts in point_sets)


class TestSpechtRatio:
    def test_continuity_limit(self):
        assert specht_ratio(1.0) == 1.0

    def test_value_at_four_vs_raw_definition(self):
        h = 4.0
        raw = h ** (1 / (h - 1)) / (math.e * math.log(h ** (1 / (h - 1))))
        assert specht_ratio(4.0) == pytest.approx(raw, rel=1e-12)
        assert specht_ratio(4.0) == pytest.approx(1.2637407212158114, rel=1e-12)

    @given(st.floats(min_value=0.02, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_inversion_symmetry(self, h):
        assert specht_ratio(h) == pytest.approx(specht_ratio(1.0 / h), rel=1e-9)

    def test_at_least_one_on_grid(self):
        values = [specht_ratio(h) for h in default_grid()]
        assert min(values) >= 1.0 - 1e-12
        # equality only near h = 1
        for h, v in zip(default_grid(), values):
            if abs(h - 1.0) > 0.05:
                assert v > 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            specht_ratio(0.0)


class TestSandwichConstant:
    def test_quarter_four(self):
        assert sandwich_constant(0.25, 4.0) == pytest.approx(25.0 / 16.0, rel=1e-14)

    def test_degenerate(self):
        assert sandwich_constant(1.0, 1.0) == pytest.approx(1.0)

    def test_matches_two_sided_constant(self):
        m, M = 1.0, 4.0
        assert sandwich_constant(m / M, M / m) == pytest.approx(
            (M + m) ** 2 / (4 * M * m), rel=1e-14
        )

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            sandwich_constant(2.0, 1.0)
        with pytest.raises(ValueError):
            sandwich_constant(0.0, 1.0)

    @given(st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_branches_agree_at_boundary(self, s):
        t = 1.0 / s
        half_sum_sq = (0.5 * (math.sqrt(s) + math.sqrt(t))) ** 2
        other_branch = half_sum_sq / (s * t)
        assert abs(sandwich_constant(s, t) - other_branch) <= 1e-12 * half_sum_sq

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_at_least_one(self, a, b):
        s, t = min(a, b), max(a, b)
        assert sandwich_constant(s, t) >= 1.0 - 1e-12


class TestCatalogParsing:
    def test_parse_kernel_round_trip(self):
        for kernel in kernel_catalog():
            assert parse_kernel(kernel.id).id == kernel.id
        with pytest.raises(ValueError):
            parse_kernel("median")

    def test_parse_function_classes(self):
        assert parse_function("power:0.5").klass == OPERATOR_MONOTONE
        assert parse_function("power:1.5").klass == OPERATOR_CONVEX_ZERO
        assert parse_function("inv_power:1").klass == OPERATOR_MONOTONE_DECREASING
        assert parse_function("square").klass == OPERATOR_CONVEX_ZERO
        assert parse_function("id").id == "power:1"
        with pytest.raises(ValueError):
            parse_function("cube")

    def test_power_range_validation(self):
        with pytest.raises(ValueError):
            power(0.0)
        with pytest.raises(ValueError):
            power(2.5)

    def test_heinz_range_validation(self):
        with pytest.raises(ValueError):
            heinz(1.5)


def test_default_grid_screens_are_computed_once():
    assert default_grid() is default_grid()
    assert kernel_dominance(HARMONIC, GEOMETRIC) is kernel_dominance(HARMONIC, GEOMETRIC)
    grid = [0.5, 1.0, 2.0]
    explicit = kernel_dominance(HARMONIC, GEOMETRIC, grid)
    assert explicit == kernel_dominance(HARMONIC, GEOMETRIC, grid)
    assert explicit is not kernel_dominance(HARMONIC, GEOMETRIC, grid)
