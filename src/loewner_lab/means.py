"""Binary operator means on positive definite matrices.

A mean is realized from its representing kernel k through congruence with
the first argument:  A^(1/2) k(A^(-1/2) B A^(-1/2)) A^(1/2).  Symmetry of the
result in (A, B) is therefore a *testable property* of the kernel, never an
assumption of the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConditionCapError, DimensionMismatchError, NotPositiveDefiniteError
from .kernels import GEOMETRIC, ScalarKernel
from .spectral import SymMatrix, as_sym, decompose, matrix_function, spectrum

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


def _require_pd(name: str, lam_min: float) -> None:
    if lam_min <= 0.0:
        raise NotPositiveDefiniteError(
            f"{name} must be positive definite (lambda_min = {lam_min:.3e})"
        )


def mean(ctx: MeanContext, A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """Kernel-driven mean of two positive definite matrices."""
    A, B = as_sym(A), as_sym(B)
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch: {A.dim} vs {B.dim}")
    dec = decompose(A)
    w = dec.eigenvalues
    _require_pd("first argument", float(w[0]))
    cond = float(w[-1] / w[0])
    if cond > ctx.cond_cap:
        raise ConditionCapError(
            f"condition number {cond:.3e} exceeds cap {ctx.cond_cap:.3e}"
        )
    _require_pd("second argument", float(spectrum(B)[0]))
    inner = SymMatrix(dec.inv_root @ B.data @ dec.inv_root)
    transformed = matrix_function(inner, ctx.kernel.fn)
    return SymMatrix(dec.root @ transformed.data @ dec.root)


def kernel_mean(kernel: ScalarKernel, A: SymMatrix, B: SymMatrix) -> SymMatrix:
    return mean(MeanContext(kernel), A, B)


def arithmetic(A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """(A + B) / 2."""
    A, B = as_sym(A), as_sym(B)
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return SymMatrix(0.5 * (A.data + B.data))


def spectral_inverse(X: SymMatrix) -> SymMatrix:
    X = as_sym(X)
    _require_pd("matrix to invert", float(spectrum(X)[0]))
    return matrix_function(X, lambda lam: 1.0 / lam)


def harmonic(A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """((A^-1 + B^-1) / 2)^-1 for positive definite A, B."""
    return spectral_inverse(arithmetic(spectral_inverse(A), spectral_inverse(B)))


def geometric(A: SymMatrix, B: SymMatrix) -> SymMatrix:
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
