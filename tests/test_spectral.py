import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import (
    FROBENIUS,
    OPERATOR,
    TRACE,
    DimensionMismatchError,
    DomainError,
    EigenSolverError,
    SplitMix64,
    SymStack,
    decompose,
    ky_fan,
    loewner_compare,
    loewner_slack,
    matrix_function,
    op_norm,
    parse_norm,
    schatten,
    spectrum_bounds,
    ui_norm,
)
from loewner_lab.generate import derive_seed, random_orthogonal
from oracles import one, quadratic_form_slack
from loewner_lab.kernels import (
    GEOMETRIC,
    HARMONIC,
    IDENTITY_FN,
    LOG1P,
    SQUARE,
    parse_function,
    parse_kernel,
    power,
    rational,
    shifted_inverse,
)
from loewner_lab.maps import MapSpec, parse_map
from loewner_lab.spectral import NormKind, spectrum


def random_sym(dim, seed, scale=1.0):
    rng = SplitMix64(seed)
    raw = rng.normal_matrix(dim, dim) * scale
    return one(raw)


class TestSymStack:
    def test_symmetrizes_on_construction(self):
        x = one([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(x.data, [[[1.0, 1.0], [1.0, 3.0]]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            one([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_a_matrix_that_is_not_a_stack(self):
        # a single matrix is a stack of one slice, never a 2-d array
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            SymStack(np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            one([[1.0, np.inf], [np.inf, 1.0]])

    def test_data_is_read_only(self):
        x = SymStack.identity(2)
        with pytest.raises(ValueError):
            x.data[0, 0, 0] = 5.0

    def test_add_requires_matching_dims(self):
        with pytest.raises(DimensionMismatchError):
            SymStack.identity(2) + SymStack.identity(3)


class TestDecompose:
    def test_diagonal_input(self):
        dec = decompose(one(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(dec.eigenvalues[0], [1.0, 3.0])
        np.testing.assert_allclose(np.abs(dec.basis[0]), np.eye(2)[:, ::-1], atol=1e-14)

    def test_two_by_two_hand_values(self):
        # char poly of [[2,1],[1,2]] gives (2-l)^2 = 1, so l in {1, 3}
        dec = decompose(one([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues[0], [1.0, 3.0], atol=1e-12)

    def test_identity(self):
        dec = decompose(SymStack.identity(5))
        np.testing.assert_allclose(dec.eigenvalues[0], np.ones(5))

    @pytest.mark.parametrize("dim", [1, 2, 5, 9, 16])
    def test_reconstruction_contract(self, dim):
        for seed in range(4):
            a = random_sym(dim, derive_seed(11, dim, seed), scale=3.0)
            dec = decompose(a)
            q, w, data = dec.basis[0], dec.eigenvalues[0], a.data[0]
            rebuilt = q @ np.diag(w) @ q.T
            err = np.linalg.norm(rebuilt - data)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(data))
            orth = np.linalg.norm(q.T @ q - np.eye(dim))
            assert orth <= 1e-12 * dim
            assert np.all(np.diff(w) >= 0)


class TestSpectralMemo:
    @staticmethod
    def count_eigh(monkeypatch, perturb=0.0):
        calls = []
        real = np.linalg.eigh

        def eigh(a):
            calls.append(a)
            w, q = real(a)
            return w, q + perturb

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return calls

    def test_eigh_runs_once_per_matrix(self, monkeypatch):
        calls = self.count_eigh(monkeypatch)
        x, y = random_sym(4, 1), random_sym(4, 2)
        decompose(x)
        spectrum_bounds(x)
        decompose(x)
        assert len(calls) == 1
        loewner_slack(x, y)  # solves the new matrix y - x once
        loewner_slack(x, y)
        assert len(calls) == 3
        spectrum_bounds(y)
        decompose(y)
        assert len(calls) == 4

    @staticmethod
    def count_eigvalsh(monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or real(a))
        return calls

    def test_means_and_sandwich_scalars_solve_the_inner_matrix_once(self, monkeypatch):
        from loewner_lab import estimate_sandwich, geometric, harmonic, kernel_mean
        from loewner_lab.generate import random_spd
        from loewner_lab.kernels import ARITHMETIC, LOGARITHMIC

        a, b = random_spd(4, 0.5, 3.0, 11), random_spd(4, 0.5, 3.0, 12)
        decompose(a)
        calls = self.count_eigh(monkeypatch)
        values_only = self.count_eigvalsh(monkeypatch)
        estimate_sandwich(a, b)
        assert len(calls) == 1  # A^(-1/2) B A^(-1/2), remembered on a for b
        geometric(a, b)
        kernel_mean(ARITHMETIC, a, b)
        kernel_mean(LOGARITHMIC, a, b)
        assert len(calls) == 1
        assert a._inner[0] is b
        other = SymStack(b.data)  # another partner is solved, and not remembered
        geometric(a, other)
        geometric(a, other)
        assert len(calls) == 3 and a._inner[0] is b
        harmonic(a, b)  # solves b and the arithmetic mean of the inverses
        assert len(calls) == 5
        assert values_only == []  # each definiteness check reads a decomposition

    def test_a_mean_and_an_inverse_check_definiteness_on_what_they_solve(self, monkeypatch):
        from loewner_lab import kernel_mean
        from loewner_lab.kernels import LOGARITHMIC
        from loewner_lab.means import spectral_inverse

        calls = self.count_eigh(monkeypatch)
        values_only = self.count_eigvalsh(monkeypatch)
        kernel_mean(LOGARITHMIC, one(np.diag([1.0, 4.0])), one(np.diag([4.0, 1.0])))
        assert len(calls) == 2  # A, then the inner matrix
        spectral_inverse(one(np.diag([1.0, 4.0])))
        assert len(calls) == 3 and values_only == []

    def test_an_indefinite_second_argument_is_refused_by_its_inner_matrix(self):
        from loewner_lab import NotPositiveDefiniteError, geometric

        B = one(np.array([[1.0, 3.0], [3.0, 1.0]]))  # eigenvalues -2 and 4
        with pytest.raises(NotPositiveDefiniteError, match=r"^second argument must be positive "
                           r"definite \(lambda_min of A\^\(-1/2\) B A\^\(-1/2\) = -"):
            geometric(one(np.diag([1.0, 4.0])), B)

    def test_product_by_ones_is_the_operand(self):
        x = random_sym(3, 4)
        stack = SymStack(np.concatenate([x.data, random_sym(3, 5).data]))
        decompose(stack)
        assert x * 1.0 is x and 1 * x is x
        assert stack * 1.0 is stack and stack * [1.0, 1.0] is stack
        assert 1.0 * stack is stack and stack * np.ones(2) is stack
        assert stack * [1.0, 2.0] is not stack and x * 2.0 is not x
        assert (stack * [1.0, 2.0]).data[0].tobytes() == x.data[0].tobytes()
        with pytest.raises(ValueError):
            stack * [1.0, 1.0, 1.0]

    def test_memo_is_the_same_read_only_object(self):
        x = SymStack(random_sym(3, 5).data @ random_sym(3, 5).data + np.eye(3))
        dec = decompose(x)
        assert decompose(x) is dec
        assert spectrum(x) is spectrum(x)
        assert dec.root is dec.root and dec.inv_root is dec.inv_root
        for arr in (dec.eigenvalues, dec.basis, dec.root, dec.inv_root, spectrum(x)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        np.testing.assert_allclose(dec.root @ dec.root, x.data, atol=1e-12)
        np.testing.assert_allclose(dec.inv_root @ x.data @ dec.inv_root, [np.eye(3)], atol=1e-12)

    def test_failed_contract_is_not_remembered(self, monkeypatch):
        x = random_sym(4, 3)
        calls = self.count_eigh(monkeypatch, perturb=1e-6)
        for _ in range(2):
            with pytest.raises(EigenSolverError, match="residual"):
                decompose(x)
        assert len(calls) == 2
        monkeypatch.undo()
        assert decompose(x) is decompose(x)


class TestMatrixFunction:
    def test_diagonal_sqrt(self):
        out = matrix_function(one(np.diag([4.0, 9.0])), math.sqrt)
        np.testing.assert_allclose(out.data[0], np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity_function(self):
        a = random_sym(4, 99)
        out = matrix_function(a, lambda x: x)
        np.testing.assert_allclose(out.data, a.data, atol=1e-12 * max(1, op_norm(a)[0]))

    def test_square_by_direct_multiplication(self):
        a = one([[2.0, 1.0], [1.0, 2.0]])
        out = matrix_function(a, lambda x: x * x)
        np.testing.assert_allclose(out.data[0], [[5.0, 4.0], [4.0, 5.0]], atol=1e-12)

    def test_domain_error_names_eigenvalue(self):
        a = one(np.diag([0.0, 1.0]))
        with pytest.raises(DomainError, match="0.0"):
            matrix_function(a, lambda x: 1.0 / x)

    @pytest.mark.parametrize("diagonals, fns, error, text", [
        # a function that raises
        ([[-1.0, 4.0]], GEOMETRIC.fn, DomainError,
         "function undefined at eigenvalue -1.0: math domain error"),
        ([[0.0, 2.0]], lambda x: 1.0 / x, DomainError,
         "function undefined at eigenvalue 0.0: float division by zero"),
        ([[-1.0, 3.0]], rational(1.0).fn, DomainError,
         "function undefined at eigenvalue -1.0: float division by zero"),
        ([[-1.0, 3.0]], HARMONIC.fn, DomainError,
         "function undefined at eigenvalue -1.0: float division by zero"),
        ([[-2.0, 3.0]], LOG1P.fn, DomainError,
         "function undefined at eigenvalue -2.0: math domain error"),
        ([[1.0, 800.0]], math.exp, DomainError,
         "function undefined at eigenvalue 800.0: math range error"),
        # a function that returns a non-finite value
        ([[2.0, 1e200]], SQUARE.fn, DomainError,
         "function not finite at eigenvalue 1e+200 (got inf)"),
        ([[1.0, 1e10]], lambda x: 1e300 * x, DomainError,
         "function not finite at eigenvalue 10000000000.0 (got inf)"),
        ([[3.0, 5.0]], lambda x: x - x + math.nan, DomainError,
         "function not finite at eigenvalue 3.0 (got nan)"),
        # a function whose value is no real number keeps its own error
        ([[-1.0, 2.0]], power(0.5).fn, TypeError,
         "float() argument must be a string or a real number, not 'complex'"),
        # functions that vary per slice: the first offending slice, in order
        ([[1.0, 4.0], [-1.0, 2.0], [-3.0, 5.0]],
         [GEOMETRIC.fn, shifted_inverse(1.0).fn, GEOMETRIC.fn], DomainError,
         "function undefined at eigenvalue -1.0: float division by zero"),
        ([[1.0, 4.0], [2.0, 1e200], [-3.0, 5.0]],
         [IDENTITY_FN.fn, SQUARE.fn, math.sqrt], DomainError,
         "function not finite at eigenvalue 1e+200 (got inf)"),
        ([[1.0, 4.0], [-5.0, 2.0], [-3.0, 5.0]],
         [math.sqrt, lambda x: x, GEOMETRIC.fn], DomainError,
         "function undefined at eigenvalue -3.0: math domain error"),
    ])
    def test_domain_error_text_is_pinned(self, diagonals, fns, error, text):
        stack = SymStack([np.diag(d) for d in diagonals])
        with pytest.raises(error) as info:
            matrix_function(stack, fns if isinstance(fns, list) else [fns] * len(diagonals))
        assert str(info.value) == text

    def test_commutes_with_argument(self):
        for seed in range(5):
            a = random_sym(5, derive_seed(23, seed))
            fa = matrix_function(a, lambda x: math.exp(0.3 * x))
            comm = a.data[0] @ fa.data[0] - fa.data[0] @ a.data[0]
            scale = op_norm(a)[0] * op_norm(fa)[0]
            assert np.linalg.norm(comm) <= 1e-10 * max(1.0, scale)

    def test_spectral_mapping(self):
        for seed in range(5):
            a = random_sym(6, derive_seed(37, seed))
            fa = matrix_function(a, lambda x: x**3 - x)
            image = np.sort([(x**3 - x) for x in decompose(a).eigenvalues[0]])
            np.testing.assert_allclose(
                np.sort(decompose(fa).eigenvalues[0]), image, atol=1e-10 * max(1, op_norm(fa)[0])
            )


def _twins():
    """Every scalar function of the package that carries a numpy twin."""
    from loewner_lab import certificates, means
    from loewner_lab.kernels import (
        DEFAULT_CONVEX_SPECS,
        DEFAULT_DECREASING_SPECS,
        DEFAULT_MONOTONE_SPECS,
        kernel_catalog,
        parse_function,
    )

    fns = [k.fn for k in kernel_catalog()]
    fns += [parse_function(spec).fn for spec in
            DEFAULT_MONOTONE_SPECS + DEFAULT_DECREASING_SPECS + DEFAULT_CONVEX_SPECS]
    fns += [rational(0.3).fn, shifted_inverse(0.0).fn, shifted_inverse(2.5).fn,
            means._reciprocal, certificates._inv_sqrt]
    return [f for f in fns if hasattr(f, "twin")]


def test_twins_are_exactly_the_arithmetic_and_sqrt_functions():
    from loewner_lab import certificates
    from loewner_lab.kernels import ARITHMETIC, HARMONIC, LOGARITHMIC, heinz, inv_power

    twins = _twins()
    for f in (ARITHMETIC.fn, GEOMETRIC.fn, HARMONIC.fn, IDENTITY_FN.fn, SQUARE.fn):
        assert f in twins
    for f in (LOGARITHMIC.fn, heinz(0.25).fn, power(0.5).fn, power(1.5).fn, inv_power(1.0).fn,
              inv_power(0.5).fn, LOG1P.fn):
        assert not hasattr(f, "twin")  # pow, log and log1p need not match numpy's
    assert len(twins) == 12 and certificates._sqrt is GEOMETRIC.fn


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=40))
def test_each_twin_gives_its_scalar_functions_bits(xs):
    for f in _twins():
        got = f.twin(np.array(xs))
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([float(f(x)) for x in xs]).tobytes()


class TestLoewnerCompare:
    def test_diagonal_gap(self):
        v = loewner_compare(one(np.diag([1.0, 2.0])), one(np.diag([2.0, 3.0])), 1e-9)
        assert v.relation == "LE"
        assert v.slack_le == pytest.approx(1.0)

    def test_reflexivity(self):
        x = random_sym(3, 5)
        assert loewner_compare(x, x, 1e-9).relation == "EQ"

    def test_incomparable(self):
        v = loewner_compare(one(np.diag([1.0, 2.0])), one(np.diag([2.0, 1.0])), 1e-9)
        assert v.relation == "INCOMPARABLE"
        assert v.slack_le == pytest.approx(-1.0)
        assert v.slack_ge == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_compare(SymStack.identity(2), SymStack.identity(3))

    def test_refuses_a_stack_of_more_than_one_slice(self):
        x = SymStack(np.stack([np.eye(2), 2.0 * np.eye(2)]))
        with pytest.raises(ValueError, match="two one-slice stacks, got 2 slices"):
            loewner_compare(x, x)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_swap_symmetry(self, seed):
        x = random_sym(4, derive_seed(1, seed))
        y = random_sym(4, derive_seed(2, seed))
        fwd = loewner_compare(x, y, 1e-9)
        rev = loewner_compare(y, x, 1e-9)
        swap = {"LE": "GE", "GE": "LE", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}
        assert rev.relation == swap[fwd.relation]
        assert rev.slack_le == pytest.approx(fwd.slack_ge, abs=1e-12)

    def test_oracle_never_contradicts_verdict(self):
        # Sampled quadratic forms sit above lambda_min, so a certified LE/GE
        # can never be strictly refuted by the sampler.
        for seed in range(40):
            dim = 2 + seed % 5  # dims 2..6
            x = random_sym(dim, derive_seed(71, seed))
            y = random_sym(dim, derive_seed(72, seed))
            tol = 1e-9 * max(1.0, op_norm(x)[0] + op_norm(y)[0])
            verdict = loewner_compare(x, y, tol)
            if verdict.relation in ("LE", "EQ"):
                assert quadratic_form_slack(x, y, 1000, seed) >= -tol
            if verdict.relation in ("GE", "EQ"):
                assert quadratic_form_slack(y, x, 1000, seed) >= -tol


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert ui_norm(one(np.diag([2.0, -3.0])), OPERATOR)[0] == pytest.approx(3.0)

    def test_trace_norm_identity(self):
        assert ui_norm(SymStack.identity(4), TRACE)[0] == pytest.approx(4.0)

    def test_schatten2_hand_value(self):
        # singular values of [[2,1],[1,2]] are {1, 3}
        value = ui_norm(one([[2.0, 1.0], [1.0, 2.0]]), schatten(2))[0]
        assert value == pytest.approx(math.sqrt(10.0), rel=1e-12)

    @pytest.mark.parametrize("scale, p", [(10.0, 1000.0), (1e-3, 400.0)])
    def test_schatten_at_large_p_neither_overflows_nor_underflows(self, scale, p):
        # (2 * scale)^p overflows at scale 10 and underflows to 0 at scale 1e-3,
        # while the norm is the largest singular value 2 * scale to double precision
        value = ui_norm(one(scale * np.diag([2.0, 1.0, 0.5])), schatten(p))[0]
        assert value == pytest.approx(2.0 * scale, rel=1e-12)

    def test_schatten_keeps_the_plain_sum_where_it_is_finite(self):
        x = random_sym(5, 23)
        sv = np.sort(np.abs(spectrum(x)[0]))[::-1]
        assert ui_norm(x, schatten(3))[0] == (sv**3.0).sum() ** (1.0 / 3.0)

    def test_frobenius_matches_schatten2(self):
        x = random_sym(5, 17)
        assert ui_norm(x, FROBENIUS)[0] == pytest.approx(ui_norm(x, schatten(2))[0], rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_frobenius_neither_overflows_nor_underflows(self, scale):
        # the sum of squares of scale * I_2 overflows to inf at 1e200 and
        # underflows to 0 at 1e-200, while the norm is sqrt(2) * scale
        x = one(scale * np.eye(2))
        value = ui_norm(x, FROBENIUS)[0]
        assert value == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)
        assert value == pytest.approx(ui_norm(x, schatten(2))[0], rel=1e-12)

    def test_frobenius_keeps_the_plain_sum_where_it_is_finite(self):
        x = random_sym(5, 17)
        sv = np.sort(np.abs(spectrum(x)[0]))[::-1]
        assert ui_norm(x, FROBENIUS)[0] == np.sqrt((sv**2).sum())

    def test_ky_fan_out_of_range(self):
        with pytest.raises(ValueError):
            ui_norm(SymStack.identity(3), ky_fan(4))

    def test_parse_norm(self):
        assert parse_norm("operator") == OPERATOR
        assert parse_norm("kyfan:2").param == 2
        assert parse_norm("schatten:3").param == 3.0
        with pytest.raises(ValueError):
            parse_norm("spectralish")

    @pytest.mark.parametrize(
        "kind", [OPERATOR, TRACE, FROBENIUS, ky_fan(2), schatten(3), schatten(1.5)]
    )
    def test_unitary_invariance(self, kind):
        for seed in range(5):
            x = random_sym(5, derive_seed(301, seed))
            u = random_orthogonal(5, SplitMix64(derive_seed(302, seed)))
            rotated = SymStack(u.T @ x.data @ u)
            base = ui_norm(x, kind)[0]
            assert abs(ui_norm(rotated, kind)[0] - base) <= 1e-9 * base

    @pytest.mark.parametrize(
        "kind", [OPERATOR, TRACE, FROBENIUS, ky_fan(2), schatten(3), schatten(1.5)]
    )
    def test_monotone_on_psd_cone(self, kind):
        # X <= Y with both PSD implies ||X|| <= ||Y|| for every implemented kind.
        rng = SplitMix64(404)
        for _ in range(20):
            raw = rng.normal_matrix(4, 4)
            x = one(raw @ raw.T)
            bump = rng.normal_matrix(4, 4)
            y = SymStack(x.data + bump @ bump.T)
            assert loewner_compare(x, y).relation in ("LE", "EQ")
            assert ui_norm(x, kind)[0] <= ui_norm(y, kind)[0] + 1e-9


class TestSpectrumBounds:
    def test_diagonal(self):
        lo, hi = spectrum_bounds(one(np.diag([1.0, 4.0])))
        assert (lo.tolist(), hi.tolist()) == ([1.0], [4.0])

    def test_identity(self):
        lo, hi = spectrum_bounds(SymStack.identity(3))
        assert (lo.tolist(), hi.tolist()) == ([1.0], [1.0])

    def test_hand_computed(self):
        lo, hi = spectrum_bounds(one([[2.0, 1.0], [1.0, 2.0]]))
        assert lo[0] == pytest.approx(1.0, abs=1e-12)
        assert hi[0] == pytest.approx(3.0, abs=1e-12)


def _map3(spec):
    return parse_map(spec, 3, SplitMix64(0))


@pytest.mark.parametrize("parse, spec, want", [
    (parse_kernel, "arithmetic", "arithmetic"),
    (parse_kernel, "geometric", "geometric"),
    (parse_kernel, "harmonic", "harmonic"),
    (parse_kernel, "logarithmic", "logarithmic"),
    (parse_kernel, "heinz:0.25", "heinz:0.25"),
    (parse_kernel, " Heinz:0.5", "heinz:0.5"),
    (parse_function, "id", "power:1"),
    (parse_function, "identity", "power:1"),
    (parse_function, "power:1", "power:1"),
    (parse_function, "power:0.5", "power:0.5"),
    (parse_function, "power:1.5", "power:1.5"),
    (parse_function, "log1p", "log1p"),
    (parse_function, "rational:1", "rational:1"),
    (parse_function, "inv_power:0.5", "inv_power:0.5"),
    (parse_function, "shifted_inverse:1", "shifted_inverse:1"),
    (parse_function, "square", "square"),
    (parse_norm, "operator", "operator"),
    (parse_norm, "op", "operator"),
    (parse_norm, "trace", "trace"),
    (parse_norm, "nuclear", "trace"),
    (parse_norm, "frobenius", "frobenius"),
    (parse_norm, "fro", "frobenius"),
    (parse_norm, "kyfan:2", "kyfan:2"),
    (parse_norm, "schatten:3", "schatten:3"),
    (_map3, "identity", ("identity", 3, 3)),
    (_map3, "ntrace:1", ("ntrace:1", 3, 1)),
    (_map3, "ntrace:full", ("ntrace:3", 3, 3)),
    (_map3, "pinching:halves", ("pinching:1,2", 3, 3)),
    (_map3, "pinching:1,2", ("pinching:1,2", 3, 3)),
    (_map3, "congruence:random", ("congruence:random:3x3", 3, 3)),
    (_map3, "congruence:random:3x2", ("congruence:random:3x2", 3, 2)),
    (_map3, "kraus:2", ("kraus:2", 3, 3)),
    (_map3, "mix:0.5@identity+0.5@ntrace:full", ("mix:0.5@identity+0.5@ntrace:full", 3, 3)),
    # the bounds on the map families' size parameters are inclusive
    (_map3, "ntrace:16", ("ntrace:16", 3, 16)),
    (_map3, "kraus:256", ("kraus:256", 3, 3)),
    # one unknown name per vocabulary, and the refusals of the map families' own arguments
    (parse_kernel, "median", "ValueError: unknown kernel 'median'"),
    (parse_function, "cube", "ValueError: unknown function 'cube'"),
    (parse_norm, "spectralish", "ValueError: unknown norm 'spectralish'"),
    (parse_norm, "kyfan:2.5", "ValueError: invalid literal for int() with base 10: '2.5'"),
    (_map3, "choi", "ValueError: unknown map 'choi'"),
    (_map3, "Congruence:Foo", "ValueError: unknown congruence form 'Congruence:Foo'"),
    (lambda spec: parse_map(spec, 3), "kraus:2", "ValueError: random kraus map needs an rng"),
    # a parameter must be a finite number, and a finite one out of range keeps its text
    (parse_norm, "schatten:0.5", "ValueError: schatten norm needs p >= 1"),
    (parse_norm, "schatten:nan", "ValueError: schatten norm needs a finite parameter, got nan"),
    (parse_norm, "schatten:inf", "ValueError: schatten norm needs a finite parameter, got inf"),
    (parse_function, "rational:0", "ValueError: rational shift must be positive, got 0.0"),
    (parse_function, "rational:inf", "ValueError: rational shift must be a finite number, got inf"),
    (parse_function, "shifted_inverse:-1",
     "ValueError: shifted_inverse shift must be nonnegative, got -1.0"),
    (parse_function, "shifted_inverse:nan",
     "ValueError: shifted_inverse shift must be a finite number, got nan"),
    (_map3, "mix:-1@identity", "ValueError: weights must be nonnegative"),
    (_map3, "mix:nan@identity", "ValueError: weights must be finite numbers, got (nan,)"),
    (_map3, "pinching:0,2", "ValueError: pinching block sizes [0, 2] must sum to dim 3"),
    (_map3, "pinching:0,3",
     "ValueError: blocks must each hold at least one index, got ((), (0, 1, 2))"),
    # a name that takes no argument refuses one
    (parse_kernel, "geometric:0.3", "ValueError: kernel 'geometric' takes no argument, got '0.3'"),
    (parse_function, "log1p:7", "ValueError: function 'log1p' takes no argument, got '7'"),
    (parse_function, "square:3", "ValueError: function 'square' takes no argument, got '3'"),
    (parse_norm, "operator:5", "ValueError: norm 'operator' takes no argument, got '5'"),
    (_map3, "identity:junk", "ValueError: map 'identity' takes no argument, got 'junk'"),
    # a map family's size parameter is bounded before anything is drawn or allocated
    (_map3, "ntrace:17", "ValueError: ntrace output dimension must lie in [1, 16], got 17"),
    (_map3, "ntrace:0", "ValueError: ntrace output dimension must lie in [1, 16], got 0"),
    (_map3, "kraus:257", "ValueError: kraus term count must lie in [1, 256], got 257"),
    (_map3, "kraus:0", "ValueError: kraus term count must lie in [1, 256], got 0"),
    (_map3, "congruence:random:3x17", "ValueError: congruence columns must lie in [1, 16], got 17"),
    (_map3, "congruence:random:3x-1", "ValueError: congruence columns must lie in [1, 16], got -1"),
    (_map3, "pinching:5,-2", "ValueError: pinching block sizes [5, -2] must be nonnegative"),
    # kyfan:K reads K with int(), so the CLI's nan and inf fail there; the
    # library's order must be a finite integer, and a str keeps its text
    (parse_norm, "kyfan:inf", "ValueError: invalid literal for int() with base 10: 'inf'"),
    (lambda k: NormKind("kyfan", k), math.inf,
     "ValueError: kyfan norm needs a finite parameter, got inf"),
    (lambda k: NormKind("kyfan", k), "2", "ValueError: kyfan norm needs an integer order k >= 1"),
], ids=lambda v: getattr(v, "__name__", "refused" if str(v).startswith("ValueError") else None))
def test_every_vocabulary_spec_round_trips(parse, spec, want):
    # each spec of the four vocabularies gives its pinned id or label, and a
    # map its pinned dimensions; a refusal keeps its pinned text
    try:
        got = parse(spec)
    except ValueError as exc:
        assert f"ValueError: {exc}" == want
        return
    if isinstance(got, MapSpec):
        assert (got.label, got.input_dim, got.output_dim) == want
    else:
        assert (got.id if hasattr(got, "id") else got.label) == want
