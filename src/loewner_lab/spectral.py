"""Dense real symmetric matrix algebra on stacks of matrices.

Eigendecomposition with an explicit accuracy contract, spectral matrix
functions, Loewner-order comparison, and the unitarily invariant norms
(operator, trace, Frobenius, Ky Fan, Schatten).

Every function takes SymStacks: a stack is solved with one LAPACK call and
multiplied with one BLAS call per product, slice by slice bit for bit as if
each matrix were alone, and a single matrix is a stack of one slice.
Scalar results come as one array entry per slice.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, DomainError, EigenSolverError

# Accuracy contract of `decompose`, relative to max(1, ||A||_F).
RECONSTRUCTION_RTOL = 1e-12
ORTHONORMALITY_RTOL = 1e-12

# Default Loewner tolerance: slack >= -tol_rel * max(1, ||X||_op + ||Y||_op).
# Absolute tolerances fail across the generators' eigenvalue range.
LOEWNER_TOL_REL = 1e-9


class SymStack:
    """k real symmetric matrices of one dimension, as one read-only (k, n, n)
    array; a single matrix is a stack of one slice.

    Entries are averaged with their transpose and frozen at construction,
    so instances are exactly symmetric, finite, and immutable.  Spectral
    results are remembered in write-once slots: ``decompose`` fills ``_dec``
    once its contract passes, ``spectrum`` fills ``_evals``, and
    ``inner_matrix`` fills ``_inner`` with A^(-1/2) B A^(-1/2) for one partner B.
    Arguments that vary by slice (scalar functions, kernels, constants) are
    passed as sequences with one entry per slice.
    """

    __slots__ = ("data", "_dec", "_evals", "_inner")

    def __init__(self, entries) -> None:
        a = np.asarray(entries, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2] or 0 in a.shape:
            raise ValueError(f"expected a nonempty stack of square matrices, got shape {a.shape}")
        self._fill(sym_entries(a))

    def _fill(self, data: np.ndarray) -> "SymStack":
        object.__setattr__(self, "data", data)
        for slot in ("_dec", "_evals", "_inner"):
            object.__setattr__(self, slot, None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SymStack is immutable")

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def identity(cls, dim: int) -> "SymStack":
        """The identity of dimension ``dim``, as a stack of one slice."""
        return cls(np.eye(dim)[None])

    def __add__(self, other: "SymStack") -> "SymStack":
        require_same_shape(self, other)
        return SymStack(self.data + other.data)

    def __sub__(self, other: "SymStack") -> "SymStack":
        require_same_shape(self, other)
        return SymStack(self.data - other.data)

    def __mul__(self, scalar) -> "SymStack":
        """Each slice times one number or its own.  When every factor is
        exactly 1.0 and the product keeps the operand's shape, that is the
        operand itself, with what it remembers, since x * 1.0 == x bit for bit."""
        scalar = np.asarray(scalar, dtype=float)
        if scalar.ndim:  # one factor per slice
            scalar = scalar[:, None, None]
        if (scalar == 1.0).all() and np.broadcast(scalar, self.data).shape == self.data.shape:
            return self
        with np.errstate(over="ignore"):  # sym_entries refuses an overflowing product
            return SymStack(self.data * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SymStack(k={len(self)}, dim={self.dim})"


SymMatrix = SymStack  # kept: the benchmark's tracer wraps SymMatrix.__init__ by this name


# Entries up to half the largest double are finite and cannot overflow in a + a^T.
_HALF_MAX = float(np.finfo(float).max) / 2


def sym_entries(a: np.ndarray) -> np.ndarray:
    """The read-only entries SymStack stores for each matrix of a stack:
    averaged with the transpose, and finite once averaged, so that
    entries whose average overflows are refused like inf and nan."""
    if np.abs(a).max(initial=0.0) <= _HALF_MAX:  # an empty stack has nothing to check
        a = 0.5 * (a + a.swapaxes(-1, -2))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            a = 0.5 * (a + a.swapaxes(-1, -2))
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite, and so must their average "
                             "with the transpose (entries above about 9e307 overflow)")
    a.setflags(write=False)
    return a


def per_slice(value, X: SymStack) -> list:
    """``value`` once per slice of X: a list or tuple is taken to hold one
    entry per slice already, anything else is repeated."""
    count = len(X)
    if not isinstance(value, (list, tuple)):
        return [value] * count
    if len(value) != count:
        raise ValueError(f"expected one value per slice ({count}), got {len(value)}")
    return value


def require_same_shape(x: SymStack, y: SymStack) -> None:
    """Two stacks of as many slices of one dimension."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.data.shape != y.data.shape:
        raise DimensionMismatchError(f"stack size mismatch: {x.data.shape} vs {y.data.shape}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _fro(a: np.ndarray):
    """Frobenius norm of each matrix of a stack; one BLAS dot each.  Where
    that sum of squares overflows, the matrix is scaled by its largest entry
    first."""
    flat = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    norm = np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    if np.isfinite(norm).all():
        return norm
    # a slice below 1 is not scaled, so an all-zero slice gives no 0/0
    big = np.maximum(np.abs(a).max(axis=(-2, -1), keepdims=True), 1.0)
    scaled = big[..., 0, 0] * _fro(a / big)
    return np.where(np.isfinite(norm), norm, scaled)


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    return _frozen(np.eye(n))


def _root(w: np.ndarray, q: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Q diag(w^(1/2)) Q^T, or Q diag(w^(-1/2)) Q^T, for each eigenpair set of a stack."""
    r = np.sqrt(w)
    if inverse:
        r = 1.0 / r
    return _frozen((q * r[..., None, :]) @ q.swapaxes(-1, -2))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenbasis (columns) of
    each slice, read-only: (k, n) and (k, n, n)."""

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
    """np.linalg.eigh of a stack, with the contract's figures per matrix:
    (w, q, residual, scale, orth)."""
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigendecomposition did not converge: {exc}") from exc
    qt = q.swapaxes(-1, -2)
    # No entry exceeds ||A||_op, so below 1e150 no sum of squares can overflow.
    big = np.abs(w).max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore") if big > 1e150 else nullcontext():
        residual = _fro((q * w[..., None, :]) @ qt - a)
        orth = _fro(qt @ q - _eye(a.shape[-1]))
        norm = _fro(a)
    return w, q, residual, np.maximum(1.0, norm), orth


def _misses_contract(residual, scale, orth, dim: int):
    return (residual > RECONSTRUCTION_RTOL * scale) | (orth > ORTHONORMALITY_RTOL * dim)


def decompose(A: SymStack) -> SpectralDecomposition:
    """Eigendecompose each slice of a stack, enforcing the accuracy contract.

    The reconstruction error ||Q diag(w) Q^T - A||_F must stay below
    ``RECONSTRUCTION_RTOL * max(1, ||A||_F)`` and the basis must be
    orthonormal to ``ORTHONORMALITY_RTOL * dim``; otherwise an
    EigenSolverError carrying the residual of the first failing slice is
    raised.  A decomposition that passes is remembered on A, so each matrix
    is solved once; a failed one is not.
    """
    dec = A._dec  # read the slot once; it only ever holds a decomposition that passed
    if dec is not None:
        return dec
    w, q, residual, scale, orth = _eigh(A.data)
    missed = _misses_contract(residual, scale, orth, A.dim)
    if missed.any():
        k = int(missed.argmax())
        residual, scale, orth = (float(x[k]) for x in (residual, scale, orth))
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


def spectrum(X: SymStack) -> np.ndarray:
    """Ascending eigenvalues of each slice from the eigenvalue-only solver,
    remembered on X.

    Kept apart from ``decompose``: the two LAPACK routines can differ in the
    last ulp, and each caller keeps the solver it has always used.
    """
    w = X._evals
    if w is None:
        w = _frozen(np.linalg.eigvalsh(X.data))
        object.__setattr__(X, "_evals", w)
    return w


def inner_matrix(A: SymStack, B: SymStack) -> SymStack:
    """A^(-1/2) B A^(-1/2) of each slice of two stacks, A positive definite.

    It is remembered on A for A's first partner B, and keeps its own
    decomposition once solved, so that the means of (A, B) and
    ``generate.estimate_sandwich`` build and solve it once between them.
    """
    memo = A._inner  # read once: the slot is written at most once
    if memo is not None and memo[0] is B:
        return memo[1]
    inv_root = decompose(A).inv_root
    X = SymStack(inv_root @ B.data @ inv_root)
    if memo is None:
        object.__setattr__(A, "_inner", (B, X))
    return X


def twinned(fn, twin=None):
    """Mark the scalar function ``fn`` with its numpy twin, which
    ``matrix_function`` applies to all the eigenvalues at once.

    A twin must give fn's bits on every float.  Plain IEEE arithmetic and
    np.sqrt do, being correctly rounded; libm's other functions (pow, log,
    exp) may not.  By default fn, plain arithmetic, is its own twin.
    """
    fn.twin = fn if twin is None else twin
    return fn


def matrix_function(A: SymStack, fn) -> SymStack:
    """Apply a scalar function to each slice of a stack through its
    spectrum; ``fn`` is one function or one per slice.

    Each distinct function is applied once to the eigenvalues of the slices
    that take it: through its numpy twin (see ``twinned``), or else by one
    ``map`` over them.  If that raises or gives a value that is not finite,
    ``fn`` is called on each eigenvalue in turn, which raises DomainError
    naming the first offending one: ``fn`` is undefined there (raises or
    overflows) or not finite.
    """
    dec = decompose(A)
    lams = dec.eigenvalues
    fns = per_slice(fn, A)
    try:
        values = by_distinct(fns, _apply, lams)
        finite = np.isfinite(values).all()
    except Exception:  # the walk below meets the same error at its own eigenvalue
        finite = False
    if not finite:
        values = _walk(fns, lams)
    q = dec.basis
    return SymStack((q * values[:, None, :]) @ q.swapaxes(-1, -2))


def by_distinct(items: list, apply, data: np.ndarray) -> np.ndarray:
    """``apply(item, rows)`` for each distinct item of ``items`` (one per row of
    ``data``, told apart by identity), once over the rows that hold it, with
    the results put back in row order."""
    distinct = {id(item): item for item in items}
    if len(distinct) == 1:
        return apply(items[0], data)
    which, out = np.array([id(item) for item in items]), None
    for key, item in distinct.items():
        rows = which == key
        part = apply(item, data[rows])
        if out is None:
            out = np.empty((len(items), *part.shape[1:]))
        elif part.shape[1:] != out.shape[1:]:  # which would broadcast into out
            raise DimensionMismatchError(f"results of distinct items must share one shape, "
                                         f"got {out.shape[1:]} and {part.shape[1:]}")
        out[rows] = part
    return out


def _apply(f, lams: np.ndarray) -> np.ndarray:
    twin = getattr(f, "twin", None)
    if twin is not None:
        with np.errstate(all="ignore"):  # a value that is not finite goes to _walk
            return twin(lams)
    return np.fromiter(map(f, lams.ravel().tolist()), float, lams.size).reshape(lams.shape)


def _walk(fns: list, lams: np.ndarray) -> np.ndarray:
    """f(lam) for each slice's function and eigenvalues, one call at a time."""
    rows = []
    for f, row in zip(fns, lams.tolist()):
        values = []
        for lam in row:
            try:
                val = float(f(lam))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
            if not math.isfinite(val):
                raise DomainError(f"function not finite at eigenvalue {lam!r} (got {val!r})")
            values.append(val)
        rows.append(values)
    return np.array(rows)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order comparison of two symmetric matrices, each
    a stack of one slice.

    ``slack_le`` is the smallest eigenvalue of Y - X; ``slack_ge`` of X - Y.
    EQ wins over LE/GE when both slacks clear the tolerance, so verdicts
    are deterministic.
    """

    relation: str
    slack_le: float
    slack_ge: float


def loewner_compare(X: SymStack, Y: SymStack, tol: float | None = None) -> LoewnerVerdict:
    """Compare two matrices, each a stack of one slice, in the Loewner order
    up to a nonnegative tolerance."""
    require_same_shape(X, Y)
    if len(X) != 1:
        raise ValueError(f"loewner_compare takes two one-slice stacks, got {len(X)} slices")
    if tol is None:
        tol = LOEWNER_TOL_REL * max(1.0, float(op_norm(X)[0] + op_norm(Y)[0]))
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    diff = decompose(Y - X).eigenvalues[0]
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


def loewner_slack(X: SymStack, Y: SymStack) -> np.ndarray:
    """Smallest eigenvalue of Y - X (nonnegative iff X <= Y) of each slice."""
    return decompose(Y - X).eigenvalues[:, 0]


def parse_spec(kind: str, spec: str, table: dict, *context):
    """The object that a ``name:arg`` spec names in ``table`` by its stripped,
    lower-cased name: the entry itself, or a constructor's result on ``arg``
    and ``context``.  A name the table lacks is refused as an unknown ``kind``."""
    name, _, arg = spec.partition(":")
    entry = table.get(name.strip().lower())
    if entry is None:
        raise ValueError(f"unknown {kind} {spec!r}")
    return entry(arg, *context) if callable(entry) else entry


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: one variant of ``_NORMS`` and its parameter."""

    variant: str
    param: float | None = None

    def __post_init__(self):
        if self.variant not in _NORMS:
            raise ValueError(f"unknown norm variant {self.variant!r}")
        rule = _NORMS[self.variant][2]
        if rule is not None and not rule[0](self.param):
            finite = not isinstance(self.param, numbers.Real) or math.isfinite(self.param)
            raise ValueError(rule[1] if finite else
                             f"{self.variant} norm needs a finite parameter, got {self.param!r}")

    @property
    def label(self) -> str:
        if self.param is None:
            return self.variant
        return f"{self.variant}:{self.param:g}"

    def fit(self, dim: int) -> "NormKind":
        """The norm as it applies at dimension ``dim``, by its variant's fit, if any."""
        fit = _NORMS[self.variant][4]
        return self if fit is None else NormKind(self.variant, float(fit(self.param, dim)))


def _ky_fan_sum(sv: np.ndarray, k) -> float:
    k = int(k)
    if not 1 <= k <= sv.size:
        raise ValueError(f"kyfan order {k} out of range 1..{sv.size}")
    return sv[:k].sum()


# Each norm variant once, as (names, parse, rule, value, fit): its spec names
# and its norm from a spec's argument; the rule its parameter must meet, as a
# test and the refusal when the test fails (None: any parameter); its
# value(sv, param) on the descending singular values sv; and its parameter's
# fit(param, dim) to a dimension (None: the norm applies at every dimension).
_NORMS = {
    "operator": (("operator", "op"), lambda arg: OPERATOR, None, lambda sv, _: sv[0], None),
    "trace": (("trace", "nuclear"), lambda arg: TRACE, None, lambda sv, _: sv.sum(), None),
    "frobenius": (("frobenius", "fro"), lambda arg: FROBENIUS, None,
                  lambda sv, _: np.sqrt((sv**2).sum()), None),
    "kyfan": (("kyfan",), lambda arg: ky_fan(int(arg)),
              (lambda k: isinstance(k, numbers.Real) and 1 <= k < math.inf and k == int(k),
               "kyfan norm needs an integer order k >= 1"), _ky_fan_sum, min),
    "schatten": (("schatten",), lambda arg: schatten(float(arg)),
                 (lambda p: p is not None and 1 <= p < math.inf, "schatten norm needs p >= 1"),
                 lambda sv, p: (sv ** float(p)).sum() ** (1.0 / float(p)), None),
}
_NORM_SPECS = {name: parse for names, parse, *_ in _NORMS.values() for name in names}
# The default norm pool, as the specs that parse_norm reads.
DEFAULT_NORM_SPECS = ("operator", "trace", "frobenius", "kyfan:2", "schatten:3")

OPERATOR = NormKind("operator")
TRACE = NormKind("trace")
FROBENIUS = NormKind("frobenius")


def ky_fan(k: int) -> NormKind:
    return NormKind("kyfan", float(k))


def schatten(p: float) -> NormKind:
    return NormKind("schatten", float(p))


def parse_norm(spec: str) -> NormKind:
    """Parse a norm identifier such as 'operator' or 'kyfan:2'."""
    return parse_spec("norm", spec, _NORM_SPECS)


def singular_values(X: SymStack) -> np.ndarray:
    """Singular values (absolute eigenvalues), descending, one row per slice."""
    return np.sort(np.abs(spectrum(X)), axis=-1)[..., ::-1]


def ui_norm(X: SymStack, kind: NormKind) -> np.ndarray:
    """A unitarily invariant norm of each slice, from its singular values;
    ``kind`` is one norm or one per slice."""
    kinds = per_slice(kind, X)
    return np.array([float(_NORMS[k.variant][3](row, k.param))
                     for row, k in zip(singular_values(X), kinds)])


def op_norm(X: SymStack) -> np.ndarray:
    """Largest absolute eigenvalue of each slice."""
    return np.abs(spectrum(X)).max(axis=-1)


def spectrum_bounds(X: SymStack) -> tuple:
    """The arrays of extreme eigenvalues (lambda_min, lambda_max) over the slices."""
    w = decompose(X).eigenvalues
    return w[:, 0], w[:, -1]
