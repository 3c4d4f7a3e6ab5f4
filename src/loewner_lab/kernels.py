"""Scalar side of the theory.

Representing functions of operator means, the catalog of operator monotone /
operator monotone decreasing / convex-vanishing-at-zero functions, Specht's
ratio, and the scalar-level tests (dominance, symmetry, Loewner-matrix PSD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

# Grid-based checks are necessary-condition tests, not proofs; they exist so
# user-supplied kernels can be screened against the mean hypotheses.
DOMINANCE_TOL = 1e-12
SYMMETRY_RTOL = 1e-10
LOEWNER_PSD_SLACK = -1e-8

_GRID_POINTS = 400
_GRID_LO = 1e-4
_GRID_HI = 1e4


@lru_cache(maxsize=None)
def default_grid() -> tuple[float, ...]:
    """400 logarithmically spaced points in [1e-4, 1e4], computed once."""
    return tuple(float(t) for t in np.geomspace(_GRID_LO, _GRID_HI, _GRID_POINTS))


@dataclass(frozen=True)
class ScalarKernel:
    """Representing function of a binary operator mean.

    Normalized so that ``fn(1) == 1`` and positive on (0, inf).  The ``id``
    doubles as the CLI selection token and must uniquely identify the
    function (it keys internal caches).
    """

    id: str
    fn: Callable[[float], float]
    claims_symmetric: bool = True


def eval_kernel(kernel: ScalarKernel, t: float) -> float:
    """Evaluate a kernel at t > 0."""
    t = float(t)
    if t <= 0:
        raise DomainError(f"kernel {kernel.id!r} requires t > 0, got {t!r}")
    return float(kernel.fn(t))


def _arithmetic(t: float) -> float:
    return 0.5 * (1.0 + t)


def _geometric(t: float) -> float:
    return math.sqrt(t)


def _harmonic(t: float) -> float:
    return 2.0 * t / (1.0 + t)


def _logarithmic(t: float) -> float:
    # Removable singularity at t = 1; the quadratic error of the midpoint
    # surrogate is ~(t-1)^2/12, far below double precision at this cutoff.
    if abs(t - 1.0) < 1e-8:
        return 0.5 * (1.0 + t)
    return (t - 1.0) / math.log(t)


ARITHMETIC = ScalarKernel("arithmetic", _arithmetic)
GEOMETRIC = ScalarKernel("geometric", _geometric)
HARMONIC = ScalarKernel("harmonic", _harmonic)
LOGARITHMIC = ScalarKernel("logarithmic", _logarithmic)


def heinz(nu: float) -> ScalarKernel:
    """Heinz-family kernel (t^nu + t^(1-nu))/2 for nu in [0, 1]."""
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"heinz parameter must lie in [0, 1], got {nu!r}")
    return ScalarKernel(f"heinz:{nu:g}", lambda t: 0.5 * (t**nu + t ** (1.0 - nu)))


def kernel_catalog() -> tuple[ScalarKernel, ...]:
    return (ARITHMETIC, GEOMETRIC, HARMONIC, LOGARITHMIC, heinz(0.25))


def parse_kernel(spec: str) -> ScalarKernel:
    """Parse a kernel identifier such as 'geometric' or 'heinz:0.25'."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "arithmetic":
        return ARITHMETIC
    if name == "geometric":
        return GEOMETRIC
    if name == "harmonic":
        return HARMONIC
    if name == "logarithmic":
        return LOGARITHMIC
    if name == "heinz":
        return heinz(float(arg))
    raise ValueError(f"unknown kernel {spec!r}")


# Function classes used by the inequality checks.
OPERATOR_MONOTONE = "operator_monotone"
OPERATOR_MONOTONE_DECREASING = "operator_monotone_decreasing"
OPERATOR_CONVEX_ZERO = "operator_convex_zero"

_CLASSES = (OPERATOR_MONOTONE, OPERATOR_MONOTONE_DECREASING, OPERATOR_CONVEX_ZERO)


@dataclass(frozen=True)
class MonotoneFunction:
    """A cataloged scalar function together with its operator-order class."""

    id: str
    fn: Callable[[float], float]
    klass: str

    def __post_init__(self):
        if self.klass not in _CLASSES:
            raise ValueError(f"unknown function class {self.klass!r}")


def power(p: float) -> MonotoneFunction:
    """t^p: operator monotone for p in (0, 1], convex with value 0 at 0 for p in (1, 2]."""
    p = float(p)
    if not 0.0 < p <= 2.0:
        raise ValueError(f"power exponent must lie in (0, 2], got {p!r}")
    klass = OPERATOR_MONOTONE if p <= 1.0 else OPERATOR_CONVEX_ZERO
    return MonotoneFunction(f"power:{p:g}", lambda t: t**p, klass)


def inv_power(p: float) -> MonotoneFunction:
    """t^(-p) for p in (0, 1]: operator monotone decreasing on (0, inf)."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"inv_power exponent must lie in (0, 1], got {p!r}")
    return MonotoneFunction(f"inv_power:{p:g}", lambda t: t ** (-p), OPERATOR_MONOTONE_DECREASING)


def rational(c: float) -> MonotoneFunction:
    """t / (t + c) for c > 0: operator monotone."""
    c = float(c)
    if c <= 0:
        raise ValueError(f"rational shift must be positive, got {c!r}")
    return MonotoneFunction(f"rational:{c:g}", lambda t: t / (t + c), OPERATOR_MONOTONE)


def shifted_inverse(c: float) -> MonotoneFunction:
    """1 / (t + c) for c >= 0: operator monotone decreasing."""
    c = float(c)
    if c < 0:
        raise ValueError(f"shifted_inverse shift must be nonnegative, got {c!r}")
    return MonotoneFunction(f"shifted_inverse:{c:g}", lambda t: 1.0 / (t + c), OPERATOR_MONOTONE_DECREASING)


LOG1P = MonotoneFunction("log1p", math.log1p, OPERATOR_MONOTONE)
SQUARE = MonotoneFunction("square", lambda t: t * t, OPERATOR_CONVEX_ZERO)
IDENTITY_FN = power(1.0)


def monotone_catalog() -> tuple[MonotoneFunction, ...]:
    return (power(0.5), IDENTITY_FN, LOG1P, rational(1.0))


def decreasing_catalog() -> tuple[MonotoneFunction, ...]:
    return (inv_power(1.0), inv_power(0.5), shifted_inverse(1.0))


def convex_zero_catalog() -> tuple[MonotoneFunction, ...]:
    return (SQUARE, power(1.5))


def parse_function(spec: str) -> MonotoneFunction:
    """Parse a function identifier such as 'power:0.5' or 'inv_power:1'."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name in ("id", "identity"):
        return IDENTITY_FN
    if name == "power":
        return power(float(arg))
    if name == "inv_power":
        return inv_power(float(arg))
    if name == "rational":
        return rational(float(arg))
    if name == "shifted_inverse":
        return shifted_inverse(float(arg))
    if name == "log1p":
        return LOG1P
    if name == "square":
        return SQUARE
    raise ValueError(f"unknown function {spec!r}")


@dataclass(frozen=True)
class DominanceVerdict:
    """Grid verdict for k1 <= k2: worst point and worst margin of k2 - k1."""

    holds: bool
    worst_t: float
    margin: float


def kernel_dominance(
    k1: ScalarKernel, k2: ScalarKernel, grid: Sequence[float] | None = None
) -> DominanceVerdict:
    """Check k1(t) <= k2(t) + tol on a grid, reporting the argmin of k2 - k1.

    On the default grid the verdict is cached per kernel pair, as
    ``mean_kernel_gaps`` is; an explicit grid is walked on every call.
    """
    if grid is None:
        return _default_dominance(k1, k2)
    points = tuple(grid)
    if not points:
        raise ValueError("grid must be nonempty")
    worst_t = points[0]
    margin = math.inf
    for t in points:
        gap = eval_kernel(k2, t) - eval_kernel(k1, t)
        if gap < margin:
            margin = gap
            worst_t = t
    return DominanceVerdict(holds=margin >= -DOMINANCE_TOL, worst_t=float(worst_t), margin=float(margin))


@lru_cache(maxsize=128)
def _default_dominance(k1: ScalarKernel, k2: ScalarKernel) -> DominanceVerdict:
    return kernel_dominance(k1, k2, default_grid())


def is_symmetric_kernel(kernel: ScalarKernel, grid: Sequence[float] | None = None) -> bool:
    """True iff k(t) == t * k(1/t) within tolerance on the grid."""
    points = grid if grid is not None else default_grid()
    for t in points:
        kt = eval_kernel(kernel, t)
        if abs(kt - t * eval_kernel(kernel, 1.0 / t)) > SYMMETRY_RTOL * (1.0 + kt):
            return False
    return True


def divided_difference_matrix(fn: Callable[[float], float], points: Sequence[float]) -> np.ndarray:
    """Divided-difference (Loewner) matrix of fn at pairwise distinct points.

    Diagonal entries use a symmetric difference quotient with step 1e-6 * x.
    """
    xs = [float(x) for x in points]
    if len(set(xs)) != len(xs):
        raise ValueError("points must be pairwise distinct")
    n = len(xs)
    out = np.empty((n, n))
    vals = [float(fn(x)) for x in xs]
    for i in range(n):
        h = 1e-6 * abs(xs[i]) if xs[i] != 0 else 1e-6
        out[i, i] = (fn(xs[i] + h) - fn(xs[i] - h)) / (2.0 * h)
        for j in range(i + 1, n):
            d = (vals[i] - vals[j]) / (xs[i] - xs[j])
            out[i, j] = d
            out[j, i] = d
    return out


def loewner_matrix_psd_test(fn: MonotoneFunction, points: Sequence[float]) -> bool:
    """Necessary-condition screen for operator monotonicity.

    True iff the divided-difference matrix at the given points is PSD with
    eigenvalue slack above ``LOEWNER_PSD_SLACK``.
    """
    mat = divided_difference_matrix(fn.fn, points)
    return float(np.linalg.eigvalsh(mat)[0]) >= LOEWNER_PSD_SLACK


def specht_ratio(h: float) -> float:
    """Specht's ratio S(h) = h^(1/(h-1)) / (e * ln h^(1/(h-1))), S(1) = 1.

    Evaluated as exp(u - 1)/u with u = ln(h)/(h - 1), which is stable across
    the removable singularity at h = 1.
    """
    h = float(h)
    if h <= 0:
        raise DomainError(f"Specht ratio requires h > 0, got {h!r}")
    if abs(h - 1.0) < 1e-8:
        u = 1.0 - 0.5 * (h - 1.0)
    else:
        u = math.log(h) / (h - 1.0)
    return math.exp(u - 1.0) / u


def sandwich_constant(s: float, t: float) -> float:
    """Reversal constant for the sandwich condition with scalars 0 < s <= t.

    ((sqrt(s)+sqrt(t))/2)^2 when s*t >= 1 and ((sqrt(s)+sqrt(t))/(2*sqrt(s*t)))^2
    when s*t <= 1; the branches agree at s*t = 1.
    """
    s, t = float(s), float(t)
    if not 0.0 < s <= t:
        raise ValueError(f"need 0 < s <= t, got s={s!r}, t={t!r}")
    half_sum = 0.5 * (math.sqrt(s) + math.sqrt(t))
    if s * t >= 1.0:
        return half_sum**2
    return half_sum**2 / (s * t)


@lru_cache(maxsize=128)
def mean_kernel_gaps(kernel: ScalarKernel) -> tuple[float, float]:
    """Worst margins of (harmonic <= kernel, kernel <= arithmetic) on the default grid.

    Cached per kernel instance; the certificate layer uses this to vet the
    mean hypotheses without re-walking the grid on every trial.
    """
    lower = kernel_dominance(HARMONIC, kernel)
    upper = kernel_dominance(kernel, ARITHMETIC)
    return lower.margin, upper.margin
