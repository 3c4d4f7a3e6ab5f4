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
from .spectral import _apply, _frozen, by_distinct, param_id, parse_spec, twinned

# Grid-based checks are necessary-condition tests, not proofs; they exist so
# user-supplied kernels can be screened against the mean hypotheses.
DOMINANCE_TOL = 1e-12
SYMMETRY_RTOL = 1e-10
LOEWNER_PSD_SLACK = -1e-8

_GRID_POINTS = 400
_GRID_LO = 1e-4
_GRID_HI = 1e4


@lru_cache(maxsize=None)
def default_grid() -> np.ndarray:
    """400 logarithmically spaced points in [1e-4, 1e4], as one read-only
    array computed once."""
    return _frozen(np.geomspace(_GRID_LO, _GRID_HI, _GRID_POINTS))


# Function classes used by the inequality checks.
OPERATOR_MONOTONE = "operator_monotone"
OPERATOR_MONOTONE_DECREASING = "operator_monotone_decreasing"
OPERATOR_CONVEX_ZERO = "operator_convex_zero"

_CLASSES = (OPERATOR_MONOTONE, OPERATOR_MONOTONE_DECREASING, OPERATOR_CONVEX_ZERO)


@dataclass(frozen=True)
class MonotoneFunction:
    """A cataloged scalar function together with its operator-order class.

    A mean's kernel is one of class ``OPERATOR_MONOTONE``, positive on
    (0, inf) and normalized so that ``fn(1) == 1``: by Kubo-Ando (Math. Ann.
    246, 1980) each operator mean is its representing function.  The ``id``
    is the CLI selection token and unique to the function (it keys caches).
    """

    id: str
    fn: Callable[[float], float]
    klass: str

    def __post_init__(self):
        if self.klass not in _CLASSES:
            raise ValueError(f"unknown function class {self.klass!r}")


def on_points(fns: Sequence[MonotoneFunction], t: np.ndarray) -> np.ndarray:
    """fn(t) along each row of ``t`` for the row's function, by the twin-or-map
    rule of ``spectral._apply``; where a value is not finite, each row is
    evaluated point by point, so a point where fn raises raises fn's own
    error, and one where fn is nan or infinite keeps that value."""
    values = by_distinct([fn.fn for fn in fns], _apply, t)
    if np.isfinite(values).all():
        return values
    return np.array([[float(fn.fn(p)) for p in row] for fn, row in zip(fns, t.tolist())])


@lru_cache(maxsize=32)  # the default pools hold 14 kernels and functions, of 400 floats each
def on_grid(fn: MonotoneFunction) -> np.ndarray:
    """fn(t) at every point of ``default_grid()``, as one read-only array
    computed once per function."""
    return _frozen(on_points([fn], default_grid()[None])[0])


def _logarithmic(t: float) -> float:
    # Removable singularity at t = 1; the quadratic error of the midpoint
    # surrogate is ~(t-1)^2/12, far below double precision at this cutoff.
    if abs(t - 1.0) < 1e-8:
        return 0.5 * (1.0 + t)
    return (t - 1.0) / math.log(t)


ARITHMETIC = MonotoneFunction("arithmetic", twinned(lambda t: 0.5 * (1.0 + t)), OPERATOR_MONOTONE)
GEOMETRIC = MonotoneFunction("geometric", twinned(lambda t: math.sqrt(t), np.sqrt),
                             OPERATOR_MONOTONE)
HARMONIC = MonotoneFunction("harmonic", twinned(lambda t: 2.0 * t / (1.0 + t)), OPERATOR_MONOTONE)
LOGARITHMIC = MonotoneFunction("logarithmic", _logarithmic, OPERATOR_MONOTONE)


def heinz(nu: float) -> MonotoneFunction:
    """Heinz-family kernel (t^nu + t^(1-nu))/2 for nu in [0, 1]."""
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"heinz parameter must lie in [0, 1], got {nu!r}")
    return MonotoneFunction(f"heinz:{param_id(nu)}",
                            lambda t: 0.5 * (t**nu + t ** (1.0 - nu)), OPERATOR_MONOTONE)


# The default pools, as the specs that parse_kernel and parse_function read.
DEFAULT_KERNEL_SPECS = ("arithmetic", "geometric", "harmonic", "logarithmic", "heinz:0.25")
DEFAULT_MONOTONE_SPECS = ("power:0.5", "power:1", "log1p", "rational:1")
DEFAULT_DECREASING_SPECS = ("inv_power:1", "inv_power:0.5", "shifted_inverse:1")
DEFAULT_CONVEX_SPECS = ("square", "power:1.5")


def kernel_catalog() -> tuple[MonotoneFunction, ...]:
    return tuple(map(parse_kernel, DEFAULT_KERNEL_SPECS))


_KERNEL_SPECS = {"arithmetic": ARITHMETIC, "geometric": GEOMETRIC, "harmonic": HARMONIC,
                 "logarithmic": LOGARITHMIC, "heinz": heinz}


def parse_kernel(spec: str) -> MonotoneFunction:
    """Parse a kernel identifier such as 'geometric' or 'heinz:0.25'."""
    return parse_spec("kernel", spec, _KERNEL_SPECS)


def power(p: float) -> MonotoneFunction:
    """t^p: operator monotone for p in (0, 1], convex with value 0 at 0 for p
    in (1, 2]; power(1) is ``IDENTITY_FN``."""
    p = float(p)
    if not 0.0 < p <= 2.0:
        raise ValueError(f"power exponent must lie in (0, 2], got {p!r}")
    if p == 1.0:
        return IDENTITY_FN
    klass = OPERATOR_MONOTONE if p <= 1.0 else OPERATOR_CONVEX_ZERO
    return MonotoneFunction(f"power:{param_id(p)}", lambda t: t**p, klass)


def inv_power(p: float) -> MonotoneFunction:
    """t^(-p) for p in (0, 1]: operator monotone decreasing on (0, inf)."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"inv_power exponent must lie in (0, 1], got {p!r}")
    return MonotoneFunction(f"inv_power:{param_id(p)}", lambda t: t ** (-p),
                            OPERATOR_MONOTONE_DECREASING)


def rational(c: float) -> MonotoneFunction:
    """t / (t + c) for c > 0: operator monotone."""
    c = float(c)
    if not 0 < c < math.inf:
        need = "positive" if math.isfinite(c) else "a finite number"
        raise ValueError(f"rational shift must be {need}, got {c!r}")
    return MonotoneFunction(f"rational:{param_id(c)}", twinned(lambda t: t / (t + c)),
                            OPERATOR_MONOTONE)


def shifted_inverse(c: float) -> MonotoneFunction:
    """1 / (t + c) for c >= 0: operator monotone decreasing."""
    c = float(c)
    if not 0 <= c < math.inf:
        need = "nonnegative" if math.isfinite(c) else "a finite number"
        raise ValueError(f"shifted_inverse shift must be {need}, got {c!r}")
    return MonotoneFunction(f"shifted_inverse:{param_id(c)}", twinned(lambda t: 1.0 / (t + c)),
                            OPERATOR_MONOTONE_DECREASING)


LOG1P = MonotoneFunction("log1p", math.log1p, OPERATOR_MONOTONE)
SQUARE = MonotoneFunction("square", twinned(lambda t: t * t), OPERATOR_CONVEX_ZERO)
# t**1.0 is t exactly, so its twin is itself; other powers go through libm's pow.
IDENTITY_FN = MonotoneFunction("power:1", twinned(lambda t: t**1.0), OPERATOR_MONOTONE)


def monotone_catalog() -> tuple[MonotoneFunction, ...]:
    return tuple(map(parse_function, DEFAULT_MONOTONE_SPECS))


_FUNCTION_SPECS = {"id": IDENTITY_FN, "identity": IDENTITY_FN, "power": power,
                   "inv_power": inv_power, "rational": rational,
                   "shifted_inverse": shifted_inverse, "log1p": LOG1P, "square": SQUARE}


def parse_function(spec: str) -> MonotoneFunction:
    """Parse a function identifier such as 'power:0.5' or 'inv_power:1'."""
    return parse_spec("function", spec, _FUNCTION_SPECS)


@dataclass(frozen=True)
class DominanceVerdict:
    """Grid verdict for k1 <= k2: worst point and worst margin of k2 - k1."""

    holds: bool
    worst_t: float
    margin: float


@lru_cache(maxsize=128)
def kernel_dominance(k1: MonotoneFunction, k2: MonotoneFunction) -> DominanceVerdict:
    """Check k1(t) <= k2(t) + tol on the default grid, reporting the first
    argmin of k2 - k1, where a nan comes first and fails; the verdict is
    cached per kernel pair."""
    gap = on_grid(k2) - on_grid(k1)
    i = int(gap.argmin())
    margin = float(gap[i])
    return DominanceVerdict(holds=margin >= -DOMINANCE_TOL, worst_t=float(default_grid()[i]),
                            margin=margin)


def is_symmetric_kernel(kernel: MonotoneFunction) -> bool:
    """True iff k(t) == t * k(1/t) within tolerance at every point of the
    default grid; a nan fails."""
    t = default_grid()
    kt, k_inv = on_points([kernel] * 2, np.stack([t, 1.0 / t]))
    return bool((abs(kt - t * k_inv) <= SYMMETRY_RTOL * (1.0 + kt)).all())


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


def mean_kernel_gaps(kernel: MonotoneFunction) -> tuple[float, float]:
    """Worst margins of (harmonic <= kernel, kernel <= arithmetic) on the
    default grid; a kernel with a nan value there has nan margins."""
    lower = kernel_dominance(HARMONIC, kernel)
    upper = kernel_dominance(kernel, ARITHMETIC)
    return lower.margin, upper.margin
