"""Dense real symmetric matrix algebra.

Eigendecomposition with an explicit accuracy contract, spectral matrix
functions, Loewner-order comparison, and the unitarily invariant norms
(operator, trace, Frobenius, Ky Fan, Schatten).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, EigenSolverError

# Accuracy contract of `decompose`, relative to max(1, ||A||_F).
RECONSTRUCTION_RTOL = 1e-12
ORTHONORMALITY_RTOL = 1e-12

# Default Loewner tolerance: slack >= -tol_rel * max(1, ||X||_op + ||Y||_op).
# Absolute tolerances fail across the generators' eigenvalue range.
LOEWNER_TOL_REL = 1e-9


class SymMatrix:
    """Dense real symmetric matrix.

    Entries are averaged with their transpose and frozen at construction,
    so instances are exactly symmetric, finite, and immutable.  Spectral
    results are remembered in write-once slots: ``decompose`` fills ``_dec``
    once its contract passes, ``spectrum`` fills ``_evals``, and
    ``generate.estimate_sandwich`` fills ``_sandwich`` for one partner B.
    """

    __slots__ = ("data", "_dec", "_evals", "_sandwich")

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
        self._fill(sym_entries(a))

    def _fill(self, data: np.ndarray) -> None:
        object.__setattr__(self, "data", data)
        for slot in ("_dec", "_evals", "_sandwich"):
            object.__setattr__(self, slot, None)

    @classmethod
    def stack(cls, data: np.ndarray) -> list["SymMatrix"]:
        """One matrix per slice of a stack that ``sym_entries`` returned."""
        out = [cls.__new__(cls) for _ in range(len(data))]
        for m, a in zip(out, data):
            m._fill(a)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        _same_dim(self, other)
        return SymMatrix(self.data + other.data)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        _same_dim(self, other)
        return SymMatrix(self.data - other.data)

    def __mul__(self, scalar: float) -> "SymMatrix":
        return SymMatrix(self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(-self.data)

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def sym_entries(a: np.ndarray) -> np.ndarray:
    """The read-only entries SymMatrix stores for a matrix or each matrix of
    a stack: finite, averaged with the transpose."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    a = 0.5 * (a + a.swapaxes(-1, -2))
    a.setflags(write=False)
    return a


def as_sym(x) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix) to SymMatrix."""
    if isinstance(x, SymMatrix):
        return x
    return SymMatrix(x)


def _same_dim(x: SymMatrix, y: SymMatrix) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _fro(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack; one BLAS dot each."""
    if a.ndim == 2:
        flat = a.ravel()
        return math.sqrt(float(flat.dot(flat)))
    flat = a.reshape(len(a), 1, a.shape[1] * a.shape[2])
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    return _frozen(np.eye(n))


def _root(w: np.ndarray, q: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Q diag(w^(1/2)) Q^T, or Q diag(w^(-1/2)) Q^T, for one eigenpair set or a stack."""
    r = np.sqrt(w)
    if inverse:
        r = 1.0 / r
    return _frozen((q * r[..., None, :]) @ q.swapaxes(-1, -2))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenbasis (columns), read-only."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    @cached_property
    def root(self) -> np.ndarray:
        """A^(1/2) = Q diag(sqrt(w)) Q^T, for a positive semidefinite A."""
        return _root(self.eigenvalues, self.basis)

    @cached_property
    def inv_root(self) -> np.ndarray:
        """A^(-1/2) = Q diag(1/sqrt(w)) Q^T, for a positive definite A."""
        return _root(self.eigenvalues, self.basis, inverse=True)


def _eigh(a: np.ndarray):
    """np.linalg.eigh of a matrix or a stack, with the contract's figures per matrix:
    (w, q, residual, scale, orth)."""
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigendecomposition did not converge: {exc}") from exc
    stack, qt = a.ndim == 3, q.swapaxes(-1, -2)
    residual = _fro((q * (w[:, None, :] if stack else w)) @ qt - a)
    orth = _fro(qt @ q - _eye(a.shape[-1]))
    norm = _fro(a)
    return w, q, residual, np.maximum(1.0, norm) if stack else max(1.0, norm), orth


def _misses_contract(residual, scale, orth, dim: int):
    return (residual > RECONSTRUCTION_RTOL * scale) | (orth > ORTHONORMALITY_RTOL * dim)


def decompose(A: SymMatrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix, enforcing the accuracy contract.

    The reconstruction error ||Q diag(w) Q^T - A||_F must stay below
    ``RECONSTRUCTION_RTOL * max(1, ||A||_F)`` and the basis must be
    orthonormal to ``ORTHONORMALITY_RTOL * dim``; otherwise an
    EigenSolverError carrying the residual is raised.  A decomposition
    that passes is remembered on A, so each matrix is solved once; a
    failed one is not.
    """
    A = as_sym(A)
    dec = A._dec  # read the slot once; it only ever holds a decomposition that passed
    if dec is not None:
        return dec
    w, q, residual, scale, orth = _eigh(A.data)
    if _misses_contract(residual, scale, orth, A.dim):
        if residual > RECONSTRUCTION_RTOL * scale:
            raise EigenSolverError(
                f"reconstruction residual {residual:.3e} exceeds contract "
                f"({RECONSTRUCTION_RTOL:.1e} * {scale:.3e})",
                residual=residual,
            )
        raise EigenSolverError(
            f"basis orthonormality defect {orth:.3e} exceeds contract", residual=orth
        )
    dec = SpectralDecomposition(eigenvalues=_frozen(w), basis=_frozen(q))
    object.__setattr__(A, "_dec", dec)
    return dec


def decompose_stack(mats: Sequence[SymMatrix], data: np.ndarray):
    """Eigendecompose the stack ``data`` of the matrices' entries with one LAPACK call.

    Each matrix whose own contract passes remembers its decomposition, as
    ``decompose`` would; one that fails is left to ``decompose``, which
    solves it again and raises.  Returns the stacked eigenvalues and bases.
    """
    w, q, residual, scale, orth = _eigh(data)
    missed = _misses_contract(residual, scale, orth, data.shape[-1]).tolist()
    _frozen(w), _frozen(q)
    for m, miss, wk, qk in zip(mats, missed, w, q):
        if not miss:
            object.__setattr__(m, "_dec", SpectralDecomposition(eigenvalues=wk, basis=qk))
    return w, q


def stack_root(decs, w: np.ndarray, q: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``root`` (``inv_root``) of each decomposition of a stack, computed at once
    and remembered on each as its cached property would be."""
    roots = _root(w, q, inverse)
    name = "inv_root" if inverse else "root"
    for dec, r in zip(decs, roots):
        dec.__dict__[name] = r  # where cached_property keeps its value
    return roots


def spectrum(X: SymMatrix) -> np.ndarray:
    """Ascending eigenvalues from the eigenvalue-only solver, remembered on X.

    Kept apart from ``decompose``: the two LAPACK routines can differ in the
    last ulp, and each caller keeps the solver it has always used.
    """
    X = as_sym(X)
    w = X._evals
    if w is None:
        w = _frozen(np.linalg.eigvalsh(X.data))
        object.__setattr__(X, "_evals", w)
    return w


def matrix_function(A: SymMatrix, fn: Callable[[float], float]) -> SymMatrix:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Raises DomainError naming the offending eigenvalue if ``fn`` is
    undefined (raises, overflows, or returns a non-finite value) there.
    """
    A = as_sym(A)
    dec = decompose(A)
    values = np.empty(A.dim)
    for i, lam in enumerate(dec.eigenvalues):
        lam = float(lam)
        try:
            val = float(fn(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        if not np.isfinite(val):
            raise DomainError(f"function not finite at eigenvalue {lam!r} (got {val!r})")
        values[i] = val
    q = dec.basis
    return SymMatrix((q * values) @ q.T)


_RELATIONS = ("LE", "GE", "EQ", "INCOMPARABLE")


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order comparison of two symmetric matrices.

    ``slack_le`` is the smallest eigenvalue of Y - X; ``slack_ge`` of X - Y.
    EQ wins over LE/GE when both slacks clear the tolerance, so verdicts
    are deterministic.
    """

    relation: str
    slack_le: float
    slack_ge: float


def default_loewner_tol(X: SymMatrix, Y: SymMatrix) -> float:
    return LOEWNER_TOL_REL * max(1.0, op_norm(X) + op_norm(Y))


def loewner_compare(X: SymMatrix, Y: SymMatrix, tol: float | None = None) -> LoewnerVerdict:
    """Compare X and Y in the Loewner order up to a nonnegative tolerance."""
    X, Y = as_sym(X), as_sym(Y)
    _same_dim(X, Y)
    if tol is None:
        tol = default_loewner_tol(X, Y)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    diff = decompose(Y - X).eigenvalues
    slack_le = float(diff[0])
    slack_ge = float(-diff[-1])
    if slack_le >= -tol and slack_ge >= -tol:
        relation = "EQ"
    elif slack_le >= -tol:
        relation = "LE"
    elif slack_ge >= -tol:
        relation = "GE"
    else:
        relation = "INCOMPARABLE"
    return LoewnerVerdict(relation=relation, slack_le=slack_le, slack_ge=slack_ge)


def loewner_slack(X: SymMatrix, Y: SymMatrix) -> float:
    """Smallest eigenvalue of Y - X (nonnegative iff X <= Y)."""
    X, Y = as_sym(X), as_sym(Y)
    _same_dim(X, Y)
    return float(decompose(Y - X).eigenvalues[0])


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: operator, trace, frobenius, kyfan, schatten."""

    variant: str
    param: float | None = None

    def __post_init__(self):
        if self.variant not in ("operator", "trace", "frobenius", "kyfan", "schatten"):
            raise ValueError(f"unknown norm variant {self.variant!r}")
        if self.variant == "kyfan":
            if self.param is None or int(self.param) < 1 or self.param != int(self.param):
                raise ValueError("kyfan norm needs an integer order k >= 1")
        if self.variant == "schatten":
            if self.param is None or self.param < 1:
                raise ValueError("schatten norm needs p >= 1")

    @property
    def label(self) -> str:
        if self.param is None:
            return self.variant
        return f"{self.variant}:{self.param:g}"


OPERATOR = NormKind("operator")
TRACE = NormKind("trace")
FROBENIUS = NormKind("frobenius")


def ky_fan(k: int) -> NormKind:
    return NormKind("kyfan", float(k))


def schatten(p: float) -> NormKind:
    return NormKind("schatten", float(p))


def parse_norm(spec: str) -> NormKind:
    """Parse a norm identifier such as 'operator' or 'kyfan:2'."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name in ("operator", "op"):
        return OPERATOR
    if name in ("trace", "nuclear"):
        return TRACE
    if name in ("frobenius", "fro"):
        return FROBENIUS
    if name == "kyfan":
        return ky_fan(int(arg))
    if name == "schatten":
        return schatten(float(arg))
    raise ValueError(f"unknown norm {spec!r}")


def singular_values(X: SymMatrix) -> np.ndarray:
    """Singular values of a symmetric matrix (absolute eigenvalues), descending."""
    X = as_sym(X)
    return np.sort(np.abs(spectrum(X)))[::-1]


def ui_norm(X: SymMatrix, kind: NormKind) -> float:
    """Evaluate a unitarily invariant norm from the singular values."""
    sv = singular_values(X)
    if kind.variant == "operator":
        return float(sv[0])
    if kind.variant == "trace":
        return float(sv.sum())
    if kind.variant == "frobenius":
        return float(np.sqrt((sv**2).sum()))
    if kind.variant == "kyfan":
        k = int(kind.param)
        if not 1 <= k <= sv.size:
            raise ValueError(f"kyfan order {k} out of range 1..{sv.size}")
        return float(sv[:k].sum())
    if kind.variant == "schatten":
        p = float(kind.param)
        return float((sv**p).sum() ** (1.0 / p))
    raise ValueError(f"unknown norm variant {kind.variant!r}")


def op_norm(X: SymMatrix) -> float:
    return ui_norm(X, OPERATOR)


def spectrum_bounds(X: SymMatrix) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a symmetric matrix."""
    w = decompose(as_sym(X)).eigenvalues
    return float(w[0]), float(w[-1])
