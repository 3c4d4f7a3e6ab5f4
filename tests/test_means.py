import numpy as np
import pytest

from loewner_lab import (
    ConditionCapError,
    MeanContext,
    NotPositiveDefiniteError,
    SplitMix64,
    SymStack,
    arithmetic,
    geometric,
    harmonic,
    kernel_catalog,
    kernel_dominance,
    kernel_mean,
    is_symmetric_kernel,
    loewner_compare,
    mean,
    op_norm,
)
from loewner_lab.generate import derive_seed, _spd
from loewner_lab.kernels import ARITHMETIC, GEOMETRIC, HARMONIC
from loewner_lab.means import spectral_inverse
from oracles import one


def spd(dim, seed, lo=0.25, hi=4.0):
    return _spd([SplitMix64(seed)], dim, lo, hi)


A14 = one(np.diag([1.0, 4.0]))
A41 = one(np.diag([4.0, 1.0]))
I2 = SymStack.identity(2)


class TestClosedForms:
    def test_arithmetic_entrywise(self):
        np.testing.assert_allclose(arithmetic(A14, A41).data[0], np.diag([2.5, 2.5]))

    def test_harmonic_idempotent(self):
        out = harmonic(SymStack.identity(3), SymStack.identity(3))
        np.testing.assert_allclose(out.data[0], np.eye(3), atol=1e-13)

    def test_harmonic_entrywise(self):
        np.testing.assert_allclose(
            harmonic(A14, A41).data[0], np.diag([1.6, 1.6]), atol=1e-12
        )

    def test_harmonic_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            harmonic(one(np.diag([0.0, 1.0])), I2)


class TestKernelMean:
    def test_geometric_commuting_case(self):
        np.testing.assert_allclose(geometric(A14, A41).data[0], np.diag([2.0, 2.0]), atol=1e-12)

    def test_idempotence_all_kernels(self):
        a = spd(4, 7)
        for kernel in kernel_catalog():
            out = kernel_mean(kernel, a, a)
            assert op_norm(out - a)[0] <= 1e-10 * op_norm(a)[0], kernel.id

    def test_harmonic_kernel_matches_closed_form(self):
        np.testing.assert_allclose(
            kernel_mean(HARMONIC, A14, A41).data[0], np.diag([1.6, 1.6]), atol=1e-12
        )

    def test_closed_form_agreement_random(self):
        for seed in range(5):
            a = spd(4, derive_seed(555, seed))
            b = spd(4, derive_seed(556, seed))
            scale = op_norm(a)[0] + op_norm(b)[0]
            assert op_norm(kernel_mean(ARITHMETIC, a, b) - arithmetic(a, b))[0] <= 1e-10 * scale
            assert op_norm(kernel_mean(HARMONIC, a, b) - harmonic(a, b))[0] <= 1e-10 * scale

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            geometric(one(np.diag([(-1.0), 1.0])), I2)
        with pytest.raises(NotPositiveDefiniteError):
            geometric(I2, one(np.diag([0.0, 1.0])))

    def test_condition_cap(self):
        ill = one(np.diag([1e-9, 1e3]))
        with pytest.raises(ConditionCapError):
            mean(MeanContext(GEOMETRIC, cond_cap=1e8), ill, I2)

    def test_symmetry_for_symmetric_kernels(self):
        for seed in range(4):
            a = spd(3, derive_seed(81, seed))
            b = spd(3, derive_seed(82, seed))
            scale = op_norm(a)[0] + op_norm(b)[0]
            for kernel in kernel_catalog():
                if not is_symmetric_kernel(kernel):
                    continue
                gap = np.linalg.norm(
                    (kernel_mean(kernel, a, b) - kernel_mean(kernel, b, a)).data
                )
                assert gap <= 1e-8 * scale, kernel.id

    def test_congruence_invariance(self):
        # T' mean(A,B) T == mean(T'AT, T'BT) for invertible T
        rng = SplitMix64(909)
        for seed in range(4):
            a = spd(3, derive_seed(91, seed))
            b = spd(3, derive_seed(92, seed))
            t = rng.normal_matrix(3, 3) + 3.0 * np.eye(3)
            for kernel in kernel_catalog():
                left = SymStack(t.T @ kernel_mean(kernel, a, b).data @ t)
                right = kernel_mean(
                    kernel, SymStack(t.T @ a.data @ t), SymStack(t.T @ b.data @ t)
                )
                scale = max(1.0, op_norm(left)[0])
                assert op_norm(left - right)[0] <= 1e-7 * scale, kernel.id

    def test_order_transfer_and_mean_sandwich(self):
        # kernel dominance transfers to the Loewner order of the means;
        # in particular harmonic <= every catalog mean <= arithmetic
        for seed in range(4):
            a = spd(3, derive_seed(61, seed))
            b = spd(3, derive_seed(62, seed))
            lo = harmonic(a, b)
            hi = arithmetic(a, b)
            for kernel in kernel_catalog():
                mid = kernel_mean(kernel, a, b)
                assert loewner_compare(lo, mid).relation in ("LE", "EQ"), kernel.id
                assert loewner_compare(mid, hi).relation in ("LE", "EQ"), kernel.id
        assert kernel_dominance(HARMONIC, GEOMETRIC).holds

    def test_geometric_self_duality(self):
        for seed in range(4):
            a = spd(3, derive_seed(71, seed))
            b = spd(3, derive_seed(72, seed))
            left = spectral_inverse(geometric(a, b))
            right = geometric(spectral_inverse(a), spectral_inverse(b))
            assert op_norm(left - right)[0] <= 1e-8 * max(1.0, op_norm(left)[0])

    def test_mean_context_validation(self):
        with pytest.raises(ValueError):
            MeanContext(GEOMETRIC, cond_cap=0.5)
