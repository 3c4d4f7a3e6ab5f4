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
    MonotoneFunction,
    SplitMix64,
    default_grid,
    heinz,
    is_symmetric_kernel,
    kernel_catalog,
    kernel_dominance,
    loewner_matrix_psd_test,
    parse_function,
    parse_kernel,
    parse_norm,
    power,
    sandwich_constant,
    specht_ratio,
)
from loewner_lab.kernels import (
    DEFAULT_CONVEX_SPECS,
    DEFAULT_DECREASING_SPECS,
    DEFAULT_KERNEL_SPECS,
    DEFAULT_MONOTONE_SPECS,
    OPERATOR_CONVEX_ZERO,
    OPERATOR_MONOTONE,
    OPERATOR_MONOTONE_DECREASING,
    divided_difference_matrix,
    mean_kernel_gaps,
    monotone_catalog,
    on_grid,
)
from loewner_lab.spectral import DEFAULT_NORM_SPECS
from oracles import is_symmetric_kernel_loop, kernel_dominance_loop

# A kernel that is nan on all of the default grid, and the geometric kernel
# made nan above t = 100: the per-point loops skip a nan and pass both.
NAN_KERNELS = (
    MonotoneFunction("nan", lambda t: math.nan, OPERATOR_MONOTONE),
    MonotoneFunction("nan-above-100", lambda t: math.sqrt(t) if t <= 100.0 else math.nan,
                     OPERATOR_MONOTONE),
)


class TestEvalKernel:
    def test_geometric(self):
        assert GEOMETRIC.fn(4.0) == pytest.approx(2.0)

    def test_harmonic(self):
        assert HARMONIC.fn(4.0) == pytest.approx(1.6)

    @pytest.mark.parametrize("kernel", kernel_catalog(), ids=lambda k: k.id)
    def test_normalized_at_one(self, kernel):
        assert kernel.fn(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_logarithmic_stable_near_one(self):
        # limiting value is 1 and the surrogate branch agrees with the exact
        # formula to second order at the hand-off
        assert LOGARITHMIC.fn(1.0) == 1.0
        for t in (1.0 + 1e-9, 1.0 - 1e-9):
            assert LOGARITHMIC.fn(t) == pytest.approx(0.5 * (1 + t), abs=1e-15)
        for t in (1.0 + 1e-7, 0.999, 1.001):
            exact = (t - 1.0) / math.log(t)
            assert LOGARITHMIC.fn(t) == pytest.approx(exact, rel=1e-12)
        below = LOGARITHMIC.fn(1.0 - 2e-8)
        above = LOGARITHMIC.fn(1.0 + 2e-8)
        assert abs(above - below) < 1e-7


class TestDominance:
    def test_harmonic_below_geometric(self):
        assert kernel_dominance(HARMONIC, GEOMETRIC).holds

    def test_am_gm(self):
        assert kernel_dominance(GEOMETRIC, ARITHMETIC).holds

    def test_reversed_fails_with_reported_witness(self):
        # on the default grid the worst violation of arithmetic <= geometric
        # is at its top end, t = 1e4: sqrt(1e4) - (1 + 1e4)/2 = -4900.5
        verdict = kernel_dominance(ARITHMETIC, GEOMETRIC)
        assert not verdict.holds
        assert verdict.worst_t == 1e4
        assert verdict.margin == pytest.approx(-4900.5)

    @pytest.mark.parametrize("kernel", kernel_catalog(), ids=lambda k: k.id)
    def test_catalog_between_harmonic_and_arithmetic(self, kernel):
        assert kernel_dominance(HARMONIC, kernel).holds
        assert kernel_dominance(kernel, ARITHMETIC).holds


# The default kernels and a Heinz kernel off the default pool, in every
# ordered pair: the array screens give the per-point loops' bits.
_SCREENED = tuple(map(parse_kernel, DEFAULT_KERNEL_SPECS + ("heinz:0.1",)))


@pytest.mark.parametrize("k1", _SCREENED, ids=lambda k: k.id)
@pytest.mark.parametrize("k2", _SCREENED, ids=lambda k: k.id)
def test_dominance_matches_the_grid_loop(k1, k2):
    got, want = kernel_dominance(k1, k2), kernel_dominance_loop(k1, k2)
    assert got.holds is want.holds
    assert got.worst_t.hex() == want.worst_t.hex()
    assert got.margin.hex() == want.margin.hex()


@pytest.mark.parametrize("kernel", _SCREENED, ids=lambda k: k.id)
def test_symmetry_matches_the_grid_loop(kernel):
    assert is_symmetric_kernel(kernel) is is_symmetric_kernel_loop(kernel)


@pytest.mark.parametrize("kernel", NAN_KERNELS, ids=lambda k: k.id)
def test_screens_refuse_a_nan_kernel(kernel):
    # the loops let it through; the array screens meet the nan and fail it
    assert kernel_dominance_loop(HARMONIC, kernel).holds
    assert is_symmetric_kernel_loop(kernel)
    lower, upper = kernel_dominance(HARMONIC, kernel), kernel_dominance(kernel, ARITHMETIC)
    assert not lower.holds and math.isnan(lower.margin)
    assert not upper.holds and math.isnan(upper.margin)
    assert lower.worst_t == default_grid()[np.isnan(on_grid(kernel)).argmax()]
    assert not is_symmetric_kernel(kernel)
    assert all(map(math.isnan, mean_kernel_gaps(kernel)))


class TestSymmetricKernels:
    def test_geometric_symmetric(self):
        assert is_symmetric_kernel(GEOMETRIC)

    def test_heinz_quarter_symmetric(self):
        assert is_symmetric_kernel(heinz(0.25))

    def test_weighted_average_not_symmetric(self):
        lopsided = MonotoneFunction("lopsided", lambda t: (1.0 + 2.0 * t) / 3.0, OPERATOR_MONOTONE)
        assert not is_symmetric_kernel(lopsided)

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

    def test_parameters_that_differ_past_six_digits_get_distinct_ids(self):
        # an id names its function: a parameter that :g would round is spelled
        # by its repr, and one that :g spells exactly keeps its short text
        assert heinz(0.1234567).id == "heinz:0.1234567"
        assert heinz(0.1234568).id == "heinz:0.1234568"
        assert parse_norm("schatten:2.0000001").label == "schatten:2.0000001"
        assert parse_function("rational:1e-07").id == "rational:1e-07"
        ids = [parse_kernel("heinz:0.1234567").id, parse_kernel("heinz:0.1234568").id,
               parse_function("power:0.3333333").id, parse_function("power:0.33333333").id,
               parse_function("inv_power:0.1234567").id, parse_function("inv_power:0.1234568").id,
               parse_function("rational:2.0000001").id, parse_function("rational:2.0000002").id,
               parse_function("shifted_inverse:1.0000001").id,
               parse_function("shifted_inverse:1.0000002").id,
               parse_norm("schatten:2.0000001").label, parse_norm("schatten:2.0000002").label]
        assert len(set(ids)) == len(ids)

    def test_every_default_spec_keeps_its_id(self):
        # the reports of the default pools name these ids
        kernels = [parse_kernel(spec).id for spec in DEFAULT_KERNEL_SPECS]
        assert kernels == ["arithmetic", "geometric", "harmonic", "logarithmic", "heinz:0.25"]
        fns = [parse_function(spec).id for spec in
               DEFAULT_MONOTONE_SPECS + DEFAULT_DECREASING_SPECS + DEFAULT_CONVEX_SPECS]
        assert fns == ["power:0.5", "power:1", "log1p", "rational:1", "inv_power:1",
                       "inv_power:0.5", "shifted_inverse:1", "square", "power:1.5"]
        norms = [parse_norm(spec).label for spec in DEFAULT_NORM_SPECS]
        assert norms == ["operator", "trace", "frobenius", "kyfan:2", "schatten:3"]
        assert parse_norm("kyfan:2").fit(1).label == "kyfan:1"

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
    assert on_grid(GEOMETRIC) is on_grid(GEOMETRIC)
    assert kernel_dominance(HARMONIC, GEOMETRIC) is kernel_dominance(HARMONIC, GEOMETRIC)
