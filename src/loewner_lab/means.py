"""Binary operator means on positive definite matrices.

A mean is realized from its representing kernel k through congruence with
the first argument:  A^(1/2) k(A^(-1/2) B A^(-1/2)) A^(1/2).  Symmetry of the
result in (A, B) is therefore a *testable property* of the kernel, never an
assumption of the implementation.

Every mean takes two SymStacks and works slice by slice, with one LAPACK
call per solve and one BLAS call per product for the whole stack; kernels
and contexts may vary by slice, and a single pair is a stack of one slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionCapError, NotPositiveDefiniteError
from .kernels import GEOMETRIC, ScalarKernel
from .spectral import (
    SymStack,
    decompose,
    inner_matrix,
    matrix_function,
    per_slice,
    require_same_shape,
    spectrum,
    twinned,
)

# A^(-1/2) amplifies eigensolver error, so ill-conditioned first arguments
# are refused outright rather than silently degrading.
DEFAULT_COND_CAP = 1e8


@dataclass(frozen=True)
class MeanContext:
    """A representing kernel plus the condition-number cap for the congruence."""

    kernel: ScalarKernel
    cond_cap: float = DEFAULT_COND_CAP

    def __post_init__(self):
        if self.cond_cap <= 1.0:
            raise ValueError("cond_cap must exceed 1")


def _require_pd(name: str, lam_min: np.ndarray) -> None:
    """``lam_min`` holds the smallest eigenvalue of each slice."""
    for lam in lam_min.tolist():
        if lam <= 0.0:
            raise NotPositiveDefiniteError(
                f"{name} must be positive definite (lambda_min = {lam:.3e})"
            )


def mean(ctx: MeanContext, A: SymStack, B: SymStack) -> SymStack:
    """Kernel-driven mean of two stacks of positive definite matrices, slice
    by slice, with ``ctx`` one context or one per slice."""
    ctxs = per_slice(ctx, A)
    return _mean(A, B, [c.kernel.fn for c in ctxs], [c.cond_cap for c in ctxs])


def _mean(A: SymStack, B: SymStack, kernels: list, caps: list) -> SymStack:
    require_same_shape(A, B)
    dec = decompose(A)
    w = dec.eigenvalues
    _require_pd("first argument", w[:, 0])
    for cond, cap in zip((w[:, -1] / w[:, 0]).tolist(), caps):
        if cond > cap:
            raise ConditionCapError(f"condition number {cond:.3e} exceeds cap {cap:.3e}")
    _require_pd("second argument", spectrum(B)[:, 0])
    transformed = matrix_function(inner_matrix(A, B), kernels)
    return SymStack(dec.root @ transformed.data @ dec.root)


def kernel_mean(kernel: ScalarKernel, A: SymStack, B: SymStack) -> SymStack:
    """The mean of ``kernel`` under the default condition cap; ``kernel`` is
    one kernel or one per slice."""
    kernels = per_slice(kernel, A)
    return _mean(A, B, [k.fn for k in kernels], [DEFAULT_COND_CAP] * len(kernels))


def arithmetic(A: SymStack, B: SymStack) -> SymStack:
    """(A + B) / 2."""
    require_same_shape(A, B)
    return SymStack(0.5 * (A.data + B.data))


_reciprocal = twinned(lambda lam: 1.0 / lam)


def spectral_inverse(X: SymStack) -> SymStack:
    _require_pd("matrix to invert", spectrum(X)[:, 0])
    return matrix_function(X, _reciprocal)


def harmonic(A: SymStack, B: SymStack) -> SymStack:
    """((A^-1 + B^-1) / 2)^-1 for positive definite A, B."""
    return spectral_inverse(arithmetic(spectral_inverse(A), spectral_inverse(B)))


def geometric(A: SymStack, B: SymStack) -> SymStack:
    """A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2)."""
    return kernel_mean(GEOMETRIC, A, B)


__all__ = [
    "MeanContext",
    "mean",
    "kernel_mean",
    "arithmetic",
    "harmonic",
    "geometric",
    "spectral_inverse",
    "DEFAULT_COND_CAP",
]
