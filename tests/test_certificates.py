import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from loewner_lab import (
    GEOMETRIC,
    HypothesisError,
    IdentityMap,
    MixtureMap,
    NormalizedTraceMap,
    NotUnitalError,
    SplitMix64,
    SymStack,
    estimate_sandwich,
    matrix_function,
    op_norm,
    parse_function,
    random_spd,
    specht_ratio,
)
from loewner_lab.suite import SuiteConfig
from loewner_lab import suite
from loewner_lab.certificates import ALL_INEQUALITIES, ROWS, SCALAR_SANDWICH
from loewner_lab.generate import BoundedPair, SandwichPair, derive_seed
from loewner_lab.kernels import (ARITHMETIC, HARMONIC, OPERATOR_MONOTONE,
                                 OPERATOR_MONOTONE_DECREASING, MonotoneFunction)
from loewner_lab.spectral import OPERATOR, loewner_slack, twinned
from oracles import bounded_pair, certify, one, quadratic_form_slack, sandwich_pair

A14 = one(np.diag([1.0, 4.0]))
A41 = one(np.diag([4.0, 1.0]))
SQRT = parse_function("power:0.5")
IDENT = parse_function("id")
INV = parse_function("inv_power:1")
SQUARE_FN = parse_function("square")
TRACE_HALF = NormalizedTraceMap(2, 1)


class TestPolyaSzego:
    def test_trace_map_equality_witness(self):
        cert = certify("polya-szego", A14, A41, 1.0, 4.0, phi=TRACE_HALF)
        np.testing.assert_allclose(cert.lhs.data[0], [[2.5]], atol=1e-10)
        assert cert.constant == pytest.approx(1.25, abs=1e-14)
        assert cert.ratio == pytest.approx(1.25, abs=1e-10)
        assert abs(cert.slack) <= 1e-10
        assert cert.holds

    def test_same_matrix_ratio_one(self):
        a = random_spd(3, 1.0, 4.0, 5)
        cert = certify("polya-szego", a, a, 1.0, 4.0, phi=IdentityMap(3))
        assert cert.holds
        assert cert.ratio == pytest.approx(1.0, abs=1e-9)

    def test_hypothesis_violation_refused(self):
        with pytest.raises(HypothesisError):
            certify("polya-szego", A14, A41, 2.0, 4.0, phi=TRACE_HALF)
        with pytest.raises(HypothesisError):
            certify("polya-szego", A14, A41, 4.0, 1.0, phi=TRACE_HALF)

    def test_refusal_is_the_generators_bounded_check(self):
        # an out-of-cell pair: the check refuses it with BoundedPair.verify's text
        with pytest.raises(HypothesisError) as generator:
            BoundedPair(A14, A41, 2.0, 4.0).verify()
        with pytest.raises(HypothesisError) as certificate:
            certify("polya-szego", A14, A41, 2.0, 4.0, phi=TRACE_HALF)
        assert str(certificate.value) == str(generator.value)
        assert str(generator.value).startswith("bound hypothesis fails for A: spectrum [1, 4]")


class TestKantorovichF:
    def test_commuting_hand_values(self):
        cert = certify("kantorovich-f", A14, A41, 1.0, 4.0, phi=IdentityMap(2), tau=GEOMETRIC,
                       sigma=GEOMETRIC, f=SQRT)
        root2 = math.sqrt(2.0)
        np.testing.assert_allclose(cert.lhs.data[0], np.diag([root2, root2]), atol=1e-10)
        np.testing.assert_allclose(
            cert.rhs.data[0], 1.5625 * np.diag([root2, root2]), atol=1e-10
        )
        assert cert.constant == pytest.approx(25.0 / 16.0, abs=1e-14)
        assert cert.holds

    def test_same_matrix_ratio_one(self):
        a = random_spd(2, 1.0, 4.0, 9)
        cert = certify("kantorovich-f", a, a, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC,
                       sigma=ARITHMETIC, f=SQRT)
        assert cert.holds
        assert cert.ratio == pytest.approx(1.0, abs=1e-9)

    def test_requires_monotone_class(self):
        with pytest.raises(HypothesisError):
            certify("kantorovich-f", A14, A41, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC,
                    sigma=GEOMETRIC, f=INV)


class TestSandwichLemma:
    def test_double_equality_witness(self):
        lower, upper = certify("sandwich-lemma", A14, A41, 0.25, 4.0)
        assert abs(lower.slack) <= 1e-10
        assert abs(upper.slack) <= 1e-10
        assert lower.holds and upper.holds
        assert lower.constant == pytest.approx(0.8, abs=1e-14)
        assert upper.constant == pytest.approx(1.25, abs=1e-14)

    def test_degenerate_pair(self):
        a = random_spd(3, 0.5, 2.0, 3)
        lower, upper = certify("sandwich-lemma", a, a, 1.0, 1.0)
        assert lower.constant == pytest.approx(1.0)
        assert upper.constant == pytest.approx(1.0)
        assert abs(lower.slack) <= 1e-9 * op_norm(a)[0]
        assert abs(upper.slack) <= 1e-9 * op_norm(a)[0]

    def test_two_sided_substitution_reproduces_classical_constants(self):
        m, M = 1.0, 4.0
        s, t = m / M, M / m
        pair = bounded_pair(3, m, M, 11)
        lower, upper = certify("sandwich-lemma", pair.A, pair.B, s, t)
        assert lower.constant == pytest.approx(2 * math.sqrt(M * m) / (M + m), rel=1e-14)
        assert upper.constant == pytest.approx((M + m) / (2 * math.sqrt(M * m)), rel=1e-14)
        assert lower.holds and upper.holds

    def test_scalar_mode_grid(self):
        for s, t in ((0.25, 4.0), (0.5, 0.8), (2.0, 3.0)):
            cert = certify(SCALAR_SANDWICH, None, None, s, t)
            assert cert.holds
            assert cert.params["mode"] == "scalar"

    def test_scalar_mode_ignores_the_matrices(self):
        # its certificate, params included, reads nothing of A and B
        blind = certify(SCALAR_SANDWICH, None, None, 0.25, 4.0)
        given = certify(SCALAR_SANDWICH, A14, A41, 0.25, 4.0)
        assert given.params == blind.params
        assert given.to_json() == blind.to_json()

    def test_random_pairs_both_branches(self):
        for seed, (s, t) in enumerate([(0.5, 0.9), (1.5, 3.0), (0.25, 4.0)]):
            pair = sandwich_pair(3, s, t, derive_seed(500, seed))
            lower, upper = certify("sandwich-lemma", pair.A, pair.B, s, t)
            assert lower.holds and upper.holds

    def test_scalar_mode_checks_the_multiplied_constant(self):
        # (x+1)/2 <= c2 sqrt(x) at x = 4 needs c2 >= 1.25, the constant at
        # multiplier 1: 0.9 of it fails there
        cert = certify(SCALAR_SANDWICH, None, None, 0.25, 4.0, constant_multiplier=0.9)
        assert cert.constant == pytest.approx(1.125, rel=1e-15)
        assert not cert.holds and cert.slack < 0
        assert cert.rhs == pytest.approx(1.125 * 2.0, rel=1e-15)


class TestAlphaScaling:
    def test_sqrt_ratio_half(self):
        cert = certify("alpha-scaling", None, None, 4.0, f=SQRT)
        assert cert.holds
        assert cert.ratio == pytest.approx(0.5, rel=1e-12)

    def test_inverse_exact_equality(self):
        cert = certify("alpha-scaling", None, None, 4.0, f=INV)
        assert cert.holds
        assert cert.slack == pytest.approx(0.0, abs=1e-12)

    def test_log1p_default_grid(self):
        cert = certify("alpha-scaling", None, None, 2.0, f=parse_function("log1p"))
        assert cert.holds

    def test_alpha_below_one_refused(self):
        with pytest.raises(HypothesisError):
            certify("alpha-scaling", None, None, 0.5, f=SQRT)

    def test_convex_class_refused(self):
        with pytest.raises(HypothesisError):
            certify("alpha-scaling", None, None, 2.0, f=SQUARE_FN)

    # A function undefined on part of the default grid [1e-4, 1e4], at t or
    # only at alpha t: f's own error, for twinned and plain functions.
    @pytest.mark.parametrize("fn, klass, alpha, error, text", [
        (twinned(lambda t: math.sqrt(1.0 - t), lambda t: np.sqrt(1.0 - t)),
         OPERATOR_MONOTONE_DECREASING, 2.0, ValueError, "math domain error"),
        (twinned(lambda t: math.sqrt(2e4 - t), lambda t: np.sqrt(2e4 - t)),
         OPERATOR_MONOTONE_DECREASING, 4.0, ValueError, "math domain error"),
        (twinned(lambda t: 1.0 / (2e4 - t)), OPERATOR_MONOTONE, 2.0, ZeroDivisionError,
         "float division by zero"),
        (lambda t: math.log(t - 1.0), OPERATOR_MONOTONE, 2.0, ValueError, "math domain error"),
        (lambda t: 1.0 / (t - 1e-4), OPERATOR_MONOTONE_DECREASING, 2.0, ZeroDivisionError,
         "float division by zero"),
        (lambda t: 1.0 / (2e4 - t), OPERATOR_MONOTONE, 2.0, ZeroDivisionError,
         "float division by zero"),
        (lambda t: (1.0 - t) ** 0.5, OPERATOR_MONOTONE_DECREASING, 2.0, TypeError,
         "float() argument must be a string or a real number, not 'complex'"),
    ], ids=["twinned-at-t", "twinned-at-alpha-t", "twinned-division-at-alpha-t", "plain-at-t",
            "plain-division-at-t", "plain-division-at-alpha-t", "plain-not-real-at-t"])
    def test_undefined_grid_point_raises_the_functions_error(self, fn, klass, alpha, error,
                                                             text):
        f = MonotoneFunction(f"undefined:{text}:{alpha}", fn, klass)
        with pytest.raises(error) as info:
            certify("alpha-scaling", None, None, alpha, f=f)
        assert type(info.value) is error and str(info.value) == text


class TestMainMonotone:
    def test_trace_map_hand_values(self):
        cert = certify("main-monotone", A14, A41, 0.25, 4.0, phi=TRACE_HALF, tau=GEOMETRIC,
                       sigma=GEOMETRIC, f=SQRT)
        np.testing.assert_allclose(cert.lhs.data[0], [[1.5]], atol=1e-10)
        np.testing.assert_allclose(cert.rhs.data[0], [[1.5625 * math.sqrt(2.0)]], atol=1e-10)
        assert cert.constant == pytest.approx(1.5625, abs=1e-14)
        assert cert.holds

    def test_degenerate_equality(self):
        a = random_spd(3, 0.5, 2.0, 21)
        cert = certify("main-monotone", a, a, 1.0, 1.0, phi=IdentityMap(3), tau=GEOMETRIC,
                       sigma=GEOMETRIC, f=SQRT)
        assert cert.constant == pytest.approx(1.0)
        assert abs(cert.slack) <= 1e-9 * max(1.0, op_norm(a)[0])

    def test_dominance_hypothesis_enforced(self):
        from loewner_lab import ScalarKernel

        too_big = ScalarKernel("overshoot", lambda t: 1.0 + t)
        with pytest.raises(HypothesisError):
            certify("main-monotone", A14, A41, 0.25, 4.0, phi=TRACE_HALF, tau=too_big,
                    sigma=GEOMETRIC, f=SQRT)


class TestMainDecreasing:
    def test_commuting_inverses(self):
        cert = certify("main-decreasing", A14, A41, 0.25, 4.0, phi=IdentityMap(2), tau=GEOMETRIC,
                       sigma=GEOMETRIC, g=INV)
        np.testing.assert_allclose(cert.lhs.data[0], np.diag([0.5, 0.5]), atol=1e-10)
        np.testing.assert_allclose(cert.rhs.data[0], 1.5625 * np.diag([0.5, 0.5]), atol=1e-10)
        assert cert.holds

    def test_degenerate_equality(self):
        a = random_spd(2, 0.5, 2.0, 31)
        cert = certify("main-decreasing", a, a, 1.0, 1.0, phi=IdentityMap(2), tau=ARITHMETIC,
                       sigma=HARMONIC, g=INV)
        assert abs(cert.slack) <= 1e-9 * max(1.0, op_norm(a)[0])

    def test_randomized_nabla_harmonic(self):
        shifted = parse_function("shifted_inverse:1")
        for seed in range(5):
            pair = sandwich_pair(3, 0.5, 3.0, derive_seed(600, seed))
            cert = certify("main-decreasing", pair.A, pair.B, 0.5, 3.0,
                           phi=NormalizedTraceMap(3, 1), tau=ARITHMETIC, sigma=HARMONIC, g=shifted)
            assert cert.holds


class TestGruss:
    def test_trace_map_hand_values(self):
        cert = certify("gruss-f", A14, A41, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC,
                       sigma=GEOMETRIC, fn=SQRT)
        diff = 1.5 - math.sqrt(2.0)
        np.testing.assert_allclose(cert.lhs.data[0], [[diff]], atol=1e-10)
        assert cert.constant == pytest.approx(1.125, abs=1e-12)
        assert cert.holds

    def test_same_matrix_zero_difference(self):
        a = random_spd(2, 1.0, 4.0, 41)
        cert = certify("gruss-f", a, a, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC, sigma=GEOMETRIC,
                       fn=SQRT)
        assert cert.holds
        assert float(np.max(np.abs(cert.lhs.data))) <= 1e-9

    def test_decreasing_family(self):
        cert = certify("gruss-g", A14, A41, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC,
                       sigma=GEOMETRIC, fn=INV)
        assert cert.constant == pytest.approx((9.0 / 16.0) * 1.0, abs=1e-12)
        assert cert.holds

    def test_non_unital_map_refused_while_raw_difference_violates(self):
        # 10*tr on dim 2 equals Mixture(weight 20, tr/2); with f = id and
        # tau = sigma = geometric the raw difference is 10, above the 2.25
        # bound, so the unital gate is load-bearing.
        ten_trace = MixtureMap((20.0,), (TRACE_HALF,))
        from loewner_lab import geometric as geo_mean

        mean_of_images = geo_mean(ten_trace.apply(A14), ten_trace.apply(A41))
        image_of_mean = ten_trace.apply(geo_mean(A14, A41))
        difference = float((mean_of_images - image_of_mean).data[0, 0, 0])
        bound = (4.0 - 1.0) ** 2 / (4.0 * 4.0 * 1.0) * 4.0  # 2.25 for f = id
        assert difference == pytest.approx(10.0, abs=1e-10)
        assert difference > bound
        with pytest.raises(NotUnitalError):
            certify("gruss-f", A14, A41, 1.0, 4.0, phi=ten_trace, tau=GEOMETRIC, sigma=GEOMETRIC,
                    fn=IDENT)

    def test_unital_map_passes_same_instance(self):
        cert = certify("gruss-f", A14, A41, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC,
                       sigma=GEOMETRIC, fn=IDENT)
        np.testing.assert_allclose(cert.lhs.data[0], [[0.5]], atol=1e-10)
        assert cert.constant == pytest.approx(2.25, abs=1e-12)
        assert cert.holds

    def test_family_class_mismatch(self):
        with pytest.raises(HypothesisError):
            certify("gruss-f", A14, A41, 1.0, 4.0, phi=TRACE_HALF, tau=GEOMETRIC, sigma=GEOMETRIC,
                    fn=INV)

    def test_cell_refusal_comes_before_the_unital_refusal(self):
        # a non-unital map on a pair outside its cell: the cell's check runs first
        ten_trace = MixtureMap((20.0,), (TRACE_HALF,))
        with pytest.raises(HypothesisError, match="^bound hypothesis fails for A") as info:
            certify("gruss-f", A14, A41, 2.0, 4.0, phi=ten_trace, tau=GEOMETRIC, sigma=GEOMETRIC,
                    fn=IDENT)
        assert not isinstance(info.value, NotUnitalError)


class TestNormRatioAudit:
    def test_eq15_commuting_hand_values(self):
        cert = certify("norm-ratio-eq15", A14, A41, 1.0, 4.0, g=SQUARE_FN, norm=OPERATOR)
        assert cert.lhs == pytest.approx(2.0, abs=1e-10)
        assert cert.rhs == pytest.approx(6.25, abs=1e-10)
        assert cert.holds

    def test_tau_side_pinned_violation(self):
        # audit regression: the arithmetic-mean numerator exceeds the stated
        # bound on this commuting instance; recorded, not raised
        cert = certify("norm-ratio-tau", A14, A41, 0.25, 4.0, kernel=ARITHMETIC, g=SQUARE_FN,
                       norm=OPERATOR)
        assert cert.lhs == pytest.approx(3.4, abs=1e-10)
        assert cert.rhs == pytest.approx(3.125, abs=1e-10)
        assert not cert.holds

    def test_power4_same_instance_holds(self):
        cert = certify("norm-ratio-power4", A14, A41, 0.25, 4.0, kernel=ARITHMETIC, g=SQUARE_FN,
                       norm=OPERATOR)
        assert cert.lhs == pytest.approx(3.4, abs=1e-10)
        assert cert.rhs == pytest.approx(1.5625**2 * 2.0, abs=1e-10)
        assert cert.holds

    def test_sharp_side_requires_dominated_kernel(self):
        with pytest.raises(HypothesisError):
            certify("norm-ratio-sharp", A14, A41, 0.25, 4.0, kernel=ARITHMETIC, g=SQUARE_FN,
                    norm=OPERATOR)

    def test_tau_side_requires_dominating_kernel(self):
        with pytest.raises(HypothesisError):
            certify("norm-ratio-tau", A14, A41, 0.25, 4.0, kernel=HARMONIC, g=SQUARE_FN,
                    norm=OPERATOR)

    def test_function_class_gate(self):
        with pytest.raises(HypothesisError):
            certify("norm-ratio-eq15", A14, A41, 1.0, 4.0, g=SQRT, norm=OPERATOR)

    def test_cell_refusal_comes_before_the_function_class_refusal(self):
        # sqrt is not convex, and the pair's tightest scalars [0.25, 4] leave [0.5, 2]
        with pytest.raises(HypothesisError, match="^sandwich hypothesis fails"):
            certify("norm-ratio-tau", A14, A41, 0.5, 2.0, kernel=ARITHMETIC, g=SQRT, norm=OPERATOR)

    def test_st_below_one_uses_alternate_constant(self):
        pair = sandwich_pair(2, 0.5, 0.8, 77)
        cert = certify("norm-ratio-tau", pair.A, pair.B, 0.5, 0.8, kernel=ARITHMETIC, g=SQUARE_FN,
                       norm=OPERATOR)
        from loewner_lab import sandwich_constant

        assert cert.constant == pytest.approx(sandwich_constant(0.5, 0.8), rel=1e-14)


class TestSquared:
    def test_trivial_identity_case(self):
        cert = certify("squared", SymStack.identity(2), one(np.diag([1.0, 2.0])), 1.0, 1.0)
        assert cert.constant == pytest.approx(1.0)
        assert cert.holds

    def test_diagonal_hand_values(self):
        cert = certify("squared", A14, one(np.diag([2.0, 5.0])), 1.0, 4.0)
        np.testing.assert_allclose(cert.lhs.data[0], np.diag([1.0, 16.0]), atol=1e-12)
        np.testing.assert_allclose(
            cert.rhs.data[0], (25.0 / 16.0) * np.diag([4.0, 25.0]), atol=1e-10
        )
        assert cert.holds

    def test_order_hypothesis_refused(self):
        with pytest.raises(HypothesisError):
            certify("squared", one(np.diag([2.0, 2.0])), one(np.diag([1.0, 3.0])), 1.0, 2.0)

    def test_consequence_monotone_commuting(self):
        cert = certify("squared-consequence-f", A14, A41, 1.0, 4.0, f=SQRT)
        np.testing.assert_allclose(cert.lhs.data[0], np.diag([2.0, 2.0]), atol=1e-10)
        np.testing.assert_allclose(
            cert.rhs.data[0], (25.0 / 16.0) ** 2 * np.diag([2.0, 2.0]), atol=1e-9
        )
        assert cert.holds

    def test_consequence_decreasing_random(self):
        for seed in range(5):
            pair = bounded_pair(3, 1.0, 4.0, derive_seed(700, seed))
            cert = certify("squared-consequence-g", pair.A, pair.B, 1.0, 4.0, g=INV)
            assert cert.holds


class TestMidpoint:
    def test_equality_witness(self):
        cert = certify("midpoint", A14, A41, 0.25, 4.0)
        np.testing.assert_allclose(cert.lhs.data[0], np.diag([2.5, 2.5]), atol=1e-12)
        np.testing.assert_allclose(cert.rhs.data[0], np.diag([2.5, 2.5]), atol=1e-10)
        assert abs(cert.slack) <= 1e-10
        assert cert.holds

    def test_refusal_is_the_generators_sandwich_check(self):
        # an out-of-cell pair: the check refuses it with SandwichPair.verify's text
        with pytest.raises(HypothesisError) as generator:
            SandwichPair(A14, A41, 0.5, 2.0).verify()
        with pytest.raises(HypothesisError) as certificate:
            certify("midpoint", A14, A41, 0.5, 2.0)
        assert str(certificate.value) == str(generator.value)
        assert str(generator.value).startswith("sandwich hypothesis fails: tightest [0.25, 4]")

    def test_degenerate(self):
        a = random_spd(3, 0.5, 2.0, 51)
        cert = certify("midpoint", a, a, 1.0, 1.0)
        assert abs(cert.slack) <= 1e-9 * max(1.0, op_norm(a)[0])
        assert cert.holds

    def test_random_pairs(self):
        for seed in range(10):
            s, t = (0.5, 3.0) if seed % 2 else (0.3, 0.9)
            pair = sandwich_pair(3, s, t, derive_seed(800, seed))
            assert certify("midpoint", pair.A, pair.B, s, t).holds


class TestDiazMetcalf:
    def test_commuting_hand_values(self):
        cert = certify("diaz-metcalf", A14, A41, 0.25, 4.0, phi=IdentityMap(2), tau=GEOMETRIC,
                       sigma=GEOMETRIC, f=IDENT)
        np.testing.assert_allclose(cert.lhs.data[0], np.diag([2.0, 2.0]), atol=1e-10)
        assert cert.constant == pytest.approx(1.5625, abs=1e-14)
        assert cert.slack == pytest.approx(1.125, abs=1e-9)
        assert cert.holds

    def test_degenerate_equality(self):
        a = random_spd(2, 0.5, 2.0, 61)
        cert = certify("diaz-metcalf", a, a, 1.0, 1.0, phi=IdentityMap(2), tau=ARITHMETIC,
                       sigma=GEOMETRIC, f=IDENT)
        assert cert.constant == pytest.approx(1.0)
        assert abs(cert.slack) <= 1e-9 * max(1.0, op_norm(a)[0])

    def test_branch_on_root_st(self):
        # the branch variable is sqrt(st), not st
        s, t = 0.25, 2.0  # st = 0.5 < 1
        pair = sandwich_pair(2, s, t, 71)
        cert = certify("diaz-metcalf", pair.A, pair.B, s, t, phi=IdentityMap(2), tau=GEOMETRIC,
                       sigma=GEOMETRIC, f=SQRT)
        expected = (math.sqrt(s) + math.sqrt(t)) ** 2 / (4.0 * math.sqrt(s * t))
        assert cert.constant == pytest.approx(expected, rel=1e-14)
        assert cert.holds


class TestKlamkinMcLenaghan:
    def test_commuting_hand_values(self):
        cert = certify("klamkin-mclenaghan", A14, A41, 0.25, 4.0, phi=IdentityMap(2),
                       sigma=GEOMETRIC, f=IDENT)
        np.testing.assert_allclose(cert.lhs.data[0], np.zeros((2, 2)), atol=1e-10)
        np.testing.assert_allclose(cert.rhs.data[0], 0.625 * np.eye(2), atol=1e-10)
        assert cert.holds

    def test_degenerate_double_zero(self):
        a = random_spd(2, 0.5, 2.0, 81)
        cert = certify("klamkin-mclenaghan", a, a, 1.0, 1.0, phi=IdentityMap(2), sigma=GEOMETRIC,
                       f=IDENT)
        assert float(np.max(np.abs(cert.lhs.data))) <= 1e-9
        assert float(np.max(np.abs(cert.rhs.data))) <= 1e-9
        assert cert.holds

    def test_swing_identity_on_random_pd(self):
        # T + T^-1 == (T^(1/2) - T^(-1/2))^2 + 2I for positive definite T
        for seed in range(10):
            dim = 2 + seed % 7
            t_mat = random_spd(dim, 0.05, 20.0, derive_seed(900, seed))
            inv = matrix_function(t_mat, lambda x: 1.0 / x)
            root = matrix_function(t_mat, math.sqrt)
            inv_root = matrix_function(t_mat, lambda x: 1.0 / math.sqrt(x))
            swing = root - inv_root
            left = t_mat.data[0] + inv.data[0]
            right = swing.data[0] @ swing.data[0] + 2.0 * np.eye(dim)
            scale = np.linalg.norm(left)
            assert np.linalg.norm(left - right) <= 1e-9 * max(1.0, scale)

    def test_random_pairs_both_branches(self):
        for seed, (s, t) in enumerate([(0.5, 0.9), (1.2, 3.0), (0.25, 4.0)]):
            pair = sandwich_pair(3, s, t, derive_seed(1000, seed))
            cert = certify("klamkin-mclenaghan", pair.A, pair.B, s, t, phi=IdentityMap(3),
                           sigma=GEOMETRIC, f=SQRT)
            assert cert.holds


class TestSpechtBound:
    def test_hand_value(self):
        cert = certify("specht-bound", None, None, 1.0, 4.0)
        assert cert.lhs == pytest.approx(2.5)
        assert cert.rhs == pytest.approx(2.0 * specht_ratio(4.0), rel=1e-12)
        assert cert.rhs == pytest.approx(2.5274814424316223, rel=1e-12)
        assert cert.holds

    def test_degenerate_equality(self):
        cert = certify("specht-bound", None, None, 3.0, 3.0)
        assert cert.slack == pytest.approx(0.0, abs=1e-12)
        assert cert.holds

    def test_grid_sweep(self):
        for ratio in np.geomspace(1.01, 100.0, 50):
            assert certify("specht-bound", None, None, 1.0, float(ratio)).holds


class TestStrengthenedRemark:
    def test_st_equal_one_first_link_equality(self):
        pair = sandwich_pair(2, 0.5, 2.0, 91)
        cert = certify("strengthened-remark", pair.A, pair.B, 0.5, 2.0, phi=IdentityMap(2),
                       tau=GEOMETRIC, sigma=GEOMETRIC, f=SQRT)
        assert cert.holds
        assert abs(cert.params["slack_link1"]) <= 1e-9 * max(1.0, op_norm(pair.A)[0])

    def test_randomized_st_above_one(self):
        for seed in range(5):
            pair = sandwich_pair(3, 1.0, 4.0, derive_seed(1100, seed))
            cert = certify("strengthened-remark", pair.A, pair.B, 1.0, 4.0, phi=IdentityMap(3),
                           tau=GEOMETRIC, sigma=GEOMETRIC, f=SQRT)
            assert cert.holds

    def test_refused_below_one(self):
        pair = sandwich_pair(2, 0.25, 0.9, 95)
        with pytest.raises(HypothesisError):
            certify("strengthened-remark", pair.A, pair.B, 0.25, 0.9, phi=IdentityMap(2),
                    tau=GEOMETRIC, sigma=GEOMETRIC, f=SQRT)

    def test_negative_s_is_refused_by_the_ordering_rule(self):
        # the ordering rule runs before sqrt(s*t), which a negative s*t would not reach
        with pytest.raises(HypothesisError) as info:
            certify("strengthened-remark", A14, A41, -1, 2, phi=IdentityMap(2), tau=GEOMETRIC,
                    sigma=GEOMETRIC, f=SQRT)
        assert str(info.value) == "need 0 < s <= t, got s=-1, t=2"

    def test_monotone_link_on_spectra(self):
        # f increasing and sqrt(st) >= 1 push f(sqrt(st) A) above f(A)
        pair = sandwich_pair(3, 1.0, 4.0, 97)
        scaled = matrix_function(2.0 * pair.A, math.sqrt)
        base = matrix_function(pair.A, math.sqrt)
        assert loewner_slack(base, scaled)[0] >= -1e-10


class TestCertificateInvariants:
    def test_scale_invariance_of_identity_function_checks(self):
        pair = sandwich_pair(3, 0.5, 3.0, 101)
        s_star, t_star = (x[0] for x in estimate_sandwich(pair.A, pair.B))
        for c in (0.125, 8.0):
            ca, cb = c * pair.A, c * pair.B
            ss, ts = (x[0] for x in estimate_sandwich(ca, cb))
            assert ss == pytest.approx(s_star, rel=1e-9)
            assert ts == pytest.approx(t_star, rel=1e-9)
            assert certify("midpoint", ca, cb, 0.5, 3.0).holds
            low, up = certify("sandwich-lemma", ca, cb, 0.5, 3.0)
            assert low.holds and up.holds
            assert certify("diaz-metcalf", ca, cb, 0.5, 3.0, phi=IdentityMap(3), tau=GEOMETRIC,
                           sigma=GEOMETRIC, f=IDENT).holds

    def test_specialization_coherence_with_two_sided_constant(self):
        from loewner_lab import sandwich_constant

        rng = SplitMix64(202)
        for _ in range(50):
            m = rng.uniform(0.1, 2.0)
            M = m * rng.uniform(1.1, 10.0)
            assert abs(
                sandwich_constant(m / M, M / m) - (M + m) ** 2 / (4 * M * m)
            ) <= 1e-12

    def test_main_monotone_specializes_to_kantorovich_form(self):
        m, M = 1.0, 4.0
        pair = bounded_pair(3, m, M, 303)
        main = certify("main-monotone", pair.A, pair.B, m / M, M / m, phi=IdentityMap(3),
                       tau=GEOMETRIC, sigma=GEOMETRIC, f=SQRT)
        kant = certify("kantorovich-f", pair.A, pair.B, m, M, phi=IdentityMap(3), tau=GEOMETRIC,
                       sigma=GEOMETRIC, f=SQRT)
        assert main.constant == pytest.approx(kant.constant, rel=1e-14)
        assert main.holds and kant.holds

    def test_positive_verdicts_agree_with_quadratic_oracle(self):
        # a held operator certificate can never be refuted by sampled
        # quadratic forms (dims <= 4)
        sand = sandwich_pair(4, 0.5, 3.0, 404)
        bound = bounded_pair(4, 1.0, 4.0, 405)
        upper = sandwich_pair(4, 1.0, 3.0, 408)
        phi = IdentityMap(4)
        a_sq = random_spd(4, 1.0, 3.0, 406)
        b_sq = a_sq + random_spd(4, 0.1, 1.0, 407)
        certs = [
            certify("midpoint", sand.A, sand.B, 0.5, 3.0),
            certify("sandwich-lemma", sand.A, sand.B, 0.5, 3.0)[0],
            certify("sandwich-lemma", sand.A, sand.B, 0.5, 3.0)[1],
            certify("main-monotone", sand.A, sand.B, 0.5, 3.0, phi=phi, tau=GEOMETRIC,
                    sigma=GEOMETRIC, f=SQRT),
            certify("main-decreasing", sand.A, sand.B, 0.5, 3.0, phi=phi, tau=GEOMETRIC,
                    sigma=GEOMETRIC, g=INV),
            certify("diaz-metcalf", sand.A, sand.B, 0.5, 3.0, phi=phi, tau=GEOMETRIC,
                    sigma=GEOMETRIC, f=SQRT),
            certify("klamkin-mclenaghan", sand.A, sand.B, 0.5, 3.0, phi=phi, sigma=GEOMETRIC,
                    f=SQRT),
            certify("strengthened-remark", upper.A, upper.B, 1.0, 3.0, phi=phi, tau=GEOMETRIC,
                    sigma=GEOMETRIC, f=SQRT),
            certify("polya-szego", bound.A, bound.B, 1.0, 4.0, phi=phi),
            certify("kantorovich-f", bound.A, bound.B, 1.0, 4.0, phi=phi, tau=GEOMETRIC,
                    sigma=GEOMETRIC, f=SQRT),
            certify("gruss-f", bound.A, bound.B, 1.0, 4.0, phi=phi, tau=GEOMETRIC, sigma=GEOMETRIC,
                    fn=SQRT),
            certify("squared", a_sq, b_sq, 1.0, 3.0),
            certify("squared-consequence-f", bound.A, bound.B, 1.0, 4.0, f=SQRT),
        ]
        for i, cert in enumerate(certs):
            assert cert.holds, cert.inequality_id
            assert quadratic_form_slack(cert.lhs, cert.rhs, 1000, i) >= -cert.tol, (
                cert.inequality_id
            )

    def test_certificate_serialization_fields(self):
        cert = certify("specht-bound", None, None, 1.0, 4.0)
        blob = cert.to_json()
        assert set(blob) == {
            "inequality_id", "params", "lhs", "rhs", "constant",
            "slack", "ratio", "holds", "tol",
        }
        mat_cert = certify("midpoint", A14, A41, 0.25, 4.0)
        blob = mat_cert.to_json()
        assert blob["lhs"]["dim"] == 2
        assert len(blob["lhs"]["data"]) == 4


@pytest.mark.parametrize("ineq", [i for i in ALL_INEQUALITIES if ROWS[i].constant is not None])
@pytest.mark.parametrize("multiplier", [1.0, 0.9])
def test_each_constant_is_declared_once(ineq, multiplier, monkeypatch):
    # every certificate's constant is its row's constant(lo, hi) on the slice's
    # cell times the multiplier (Grüss's carries f(M) or g(m)), and SuiteConfig
    # vets fixed bounds with that same function
    row = ROWS[ineq]
    config = SuiteConfig(inequalities=(ineq,), dims=(2,), trials=6, seed=7,
                         constant_multiplier=multiplier)
    pools = suite._build_pools(config, 2)
    trials = suite._stacks(ineq, 2, range(6), pools)[0]
    stack = suite._evaluate_trial(ineq, 2, trials, config, pools)
    cells = list(zip(*(stack.sides[0].params[name] for name in row.cell.bounds)))
    factors = [1.0] * len(cells) if row.carry is None else row.carry(SimpleNamespace(
        **suite._picked(row, trials, pools),
        **dict(zip(row.cell.bounds, map(list, zip(*cells))))))
    for k, (cell, factor) in enumerate(zip(cells, factors)):
        constant = row.constant(*cell)
        constants = constant if isinstance(constant, tuple) else (constant * factor,)
        assert [side.constant[k] for side in stack.sides] == [c * multiplier for c in constants]
    if set(row.cell.bounds) <= {"s", "t", "m", "M"}:
        monkeypatch.setitem(ROWS, ineq, dataclasses.replace(row, constant=lambda *b: math.inf))
        with pytest.raises(ValueError, match=f"the constant of {ineq} is not a finite number"):
            SuiteConfig(inequalities=(ineq,), **dict(zip(row.cell.bounds, cells[0])))


def test_each_cell_hypothesis_is_declared_once():
    # a cell with bounds checks its hypothesis, and no row's vets repeat a cell's check
    from loewner_lab.certificates import CELLS

    assert all((cell.check is not None) == bool(cell.bounds) for cell in CELLS)
    checks = [cell.check for cell in CELLS if cell.check is not None]
    for ineq, row in ROWS.items():
        assert not any(vet is check for vet in row.vets for check in checks), ineq


def test_each_sandwich_or_bounded_stack_is_verified_once(monkeypatch):
    # the draw builds a pair and the cell's check verifies it, once per stack
    from loewner_lab.certificates import BOUNDED, SANDWICH, SANDWICH_ST_GE_1

    verified, stacks = [], []
    for cls in (SandwichPair, BoundedPair):
        real = cls.verify
        monkeypatch.setattr(cls, "verify", lambda self, *args, real=real: verified.append(
            self) or real(self, *args))
    real_evaluate = suite._evaluate_trial
    monkeypatch.setattr(suite, "_evaluate_trial", lambda *args: stacks.append(
        args[0]) or real_evaluate(*args))
    ids = ("midpoint", "strengthened-remark", "polya-szego", "gruss-f", "norm-ratio-eq15",
           "squared", "ando", "alpha-scaling")
    suite.run_suite(SuiteConfig(inequalities=ids, dims=(2, 3), trials=12, seed=7))
    paired = [ineq for ineq in stacks
              if ROWS[ineq].cell in (SANDWICH, SANDWICH_ST_GE_1, BOUNDED)]
    assert len(paired) >= 10
    assert len(verified) == len(paired)
