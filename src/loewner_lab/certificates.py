"""One checkable predicate per audited inequality.

Every check evaluates both sides, the constant, the Loewner slack (or the
scalar gap), a dimensionless ratio diagnostic, and a verdict, packaged with
the full parameter context.  Inequality failure is data (``holds=False``);
only *hypothesis* violations raise.

The norm-ratio family is audit-class: verdicts may legitimately be negative
and are reported, never asserted.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import HypothesisError, NotUnitalError
from .generate import BoundedPair, SandwichPair, verify_spectrum
from .kernels import (
    GEOMETRIC,
    OPERATOR_CONVEX_ZERO,
    OPERATOR_MONOTONE,
    OPERATOR_MONOTONE_DECREASING,
    SQUARE,
    MonotoneFunction,
    ScalarKernel,
    default_grid,
    kernel_dominance,
    mean_kernel_gaps,
    sandwich_constant,
    specht_ratio,
)
from .maps import MapSpec, check_unital
from .means import arithmetic, geometric, harmonic, kernel_mean, spectral_inverse
from .spectral import (
    OPERATOR,
    NormKind,
    SymMatrix,
    SymStack,
    _frozen,
    loewner_slack,
    matrix_function,
    op_norm,
    per_slice,
    spectrum,
    twinned,
    ui_norm,
)

DEFAULT_TOL_REL = 1e-9

NON_AUDIT_INEQUALITIES = (
    "ando",
    "polya-szego",
    "kantorovich-f",
    "sandwich-lemma",
    "alpha-scaling",
    "main-monotone",
    "main-decreasing",
    "gruss-f",
    "gruss-g",
    "squared",
    "squared-consequence-f",
    "squared-consequence-g",
    "midpoint",
    "diaz-metcalf",
    "klamkin-mclenaghan",
    "specht-bound",
    "strengthened-remark",
)
AUDIT_INEQUALITIES = (
    "norm-ratio-tau",
    "norm-ratio-sharp",
    "norm-ratio-power4",
    "norm-ratio-eq15",
)
ALL_INEQUALITIES = NON_AUDIT_INEQUALITIES + AUDIT_INEQUALITIES


@dataclass(frozen=True)
class Certificate:
    """One evaluated inequality instance.

    ``slack`` is lambda_min(RHS - LHS) for operator inequalities and
    RHS - LHS for scalar ones; ``holds`` iff slack clears -tol, where tol
    scales with the magnitudes involved.
    """

    inequality_id: str
    params: dict
    lhs: SymMatrix | float
    rhs: SymMatrix | float
    constant: float
    slack: float
    ratio: float
    holds: bool
    tol: float

    def to_json(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "params": dict(self.params),
            "lhs": _side_to_json(self.lhs),
            "rhs": _side_to_json(self.rhs),
            "constant": self.constant,
            "slack": self.slack,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "holds": self.holds,
            "tol": self.tol,
        }


def _side_to_json(side):
    if isinstance(side, SymMatrix):
        return {"dim": side.dim, "data": side.data.ravel().tolist()}
    return float(side)


def _matrix_certificate(
    inequality_id: str,
    params: list,
    lhs: SymStack,
    rhs: SymStack,
    constant: list,
    ratio: list,
    tol_rel: float,
) -> list[Certificate]:
    """One certificate of lhs <= rhs per slice; ``params``, ``constant`` and
    ``ratio`` hold one entry per slice."""
    slack = loewner_slack(lhs, rhs).tolist()
    scale = _sums(op_norm(lhs), op_norm(rhs))
    out = []
    for p, l, r, c, q, sl, sc in zip(params, lhs.matrices(), rhs.matrices(), constant, ratio,
                                     slack, scale):
        tol = tol_rel * max(1.0, sc)
        out.append(Certificate(inequality_id=inequality_id, params=p, lhs=l, rhs=r,
                               constant=float(c), slack=sl, ratio=float(q), holds=sl >= -tol,
                               tol=tol))
    return out


def _sums(*terms) -> list:
    """Per slice, the sum of the terms' entries in Python floats, left to right,
    as one trial's sum is taken: an overflow gives inf without a numpy warning."""
    return [sum(values[1:], values[0]) for values in zip(*(t.tolist() for t in terms))]


def _scalar_certificate(
    inequality_id: str,
    params: dict,
    lhs: float,
    rhs: float,
    constant: float,
    ratio: float,
    tol_rel: float,
) -> Certificate:
    slack = float(rhs) - float(lhs)
    tol = tol_rel * max(1.0, abs(lhs) + abs(rhs))
    return Certificate(
        inequality_id=inequality_id,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        constant=float(constant),
        slack=slack,
        ratio=float(ratio),
        holds=slack >= -tol,
        tol=tol,
    )


def _stacked(*per_trial: str):
    """Write a check once, over stacks, and let it take one instance too.

    The check's matrices A and B and its arguments named in ``per_trial``
    carry one value per trial.  Called with A a SymStack, those arguments
    are sequences with one entry per slice, and the check returns a list
    with one result per slice.  Called with one instance (single matrices
    and values), it runs as a stack of one and returns that one result.
    """
    def wrap(check):
        params = inspect.signature(check).parameters
        slots = {name: (list(params).index(name), params[name].default)
                 for name in ("A", "B", *per_trial)}
        a_slot = slots["A"][0]

        @functools.wraps(check)
        def run(*args, **kwargs):
            A = args[a_slot] if a_slot < len(args) else kwargs.get("A")
            if isinstance(A, SymStack):
                return check(*args, **kwargs)
            args = list(args)
            for name, (slot, default) in slots.items():
                if slot < len(args):
                    args[slot] = _stack_of_one(name, args[slot])
                elif name in kwargs or default is not inspect.Parameter.empty:
                    kwargs[name] = _stack_of_one(name, kwargs.get(name, default))
            return check(*args, **kwargs)[0]

        return run

    return wrap


def _stack_of_one(name: str, value):
    if value is None:
        return None
    return SymStack.of([value]) if name in ("A", "B") else [value]


def _hyp(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisError(message)


def _norm_ratio_diag(lhs_norm: float, base_norm: float) -> float:
    # Degenerate 0/0 cases (exact equality witnesses) read as ratio 1.
    if base_norm <= 1e-300:
        return 1.0 if lhs_norm <= 1e-300 else math.inf
    return lhs_norm / base_norm


@lru_cache(maxsize=128)
def _vet_mean_kernel(kernel: ScalarKernel) -> None:
    lower, upper = mean_kernel_gaps(kernel)
    _hyp(
        lower >= -1e-12 and upper >= -1e-12,
        f"kernel {kernel.id!r} is not between the harmonic and arithmetic kernels "
        f"(margins {lower:.3e}, {upper:.3e})",
    )


@lru_cache(maxsize=128)
def _vet_nonnegative(fn: MonotoneFunction) -> None:
    worst = min(_on_default_grid(fn))
    _hyp(worst >= -1e-12, f"function {fn.id!r} must be nonnegative on (0, inf)")


# The per-slice checks below raise HypothesisError themselves rather than
# through _hyp, so that a message is formatted only for a slice that fails.
def _vet_class(fn: MonotoneFunction, *classes: str) -> None:
    if fn.klass not in classes:
        raise HypothesisError(
            f"function {fn.id!r} has class {fn.klass!r}, expected one of {classes}")


def _vet_reversal(tau: list, sigma: list, f: list) -> None:
    """Hypotheses of the monotone reversals, per slice: two means and a
    nonnegative monotone f."""
    for tau_k, sigma_k, f_k in zip(tau, sigma, f):
        _vet_mean_kernel(tau_k)
        _vet_mean_kernel(sigma_k)
        _vet_class(f_k, OPERATOR_MONOTONE)
        _vet_nonnegative(f_k)


def _vet_st(s: list, t: list) -> None:
    for s_k, t_k in zip(s, t):
        if not 0 < s_k <= t_k:
            raise HypothesisError(f"need 0 < s <= t, got s={s_k!r}, t={t_k!r}")


def _vet_sandwich(A: SymStack, B: SymStack, s: list, t: list, tol_rel: float) -> None:
    _vet_st(s, t)
    SandwichPair(A, B, s, t).verify(tol_rel)


def _vet_bounded(A: SymStack, B: SymStack, m: list, M: list, tol_rel: float) -> None:
    for m_k, M_k in zip(m, M):
        if not 0 < m_k < M_k:
            raise HypothesisError(f"need 0 < m < M, got m={m_k!r}, M={M_k!r}")
    BoundedPair(A, B, m, M).verify(tol_rel)


def _worst_on_grid(points, lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """(point, lhs, rhs, largest ratio) at the first smallest rhs - lhs of a
    scalar bound checked at each of ``points`` (a point may repeat)."""
    slack = rhs - lhs
    candidates = slack < math.inf  # a nan or +inf slack is never the worst
    if candidates.any():
        i = int(np.where(candidates, slack, math.inf).argmin())
        worst = (points[i], float(lhs[i]), float(rhs[i]))
    else:
        worst = (points[0], 0.0, 0.0)
    with np.errstate(all="ignore"):  # _norm_ratio_diag at each point
        ratio = np.where(rhs <= 1e-300, np.where(lhs <= 1e-300, 1.0, math.inf), lhs / rhs)
    return (*worst, max(0.0, float(np.fmax.reduce(ratio))))  # a nan ratio is never the largest


@lru_cache(maxsize=None)
def _default_points() -> np.ndarray:
    return _frozen(np.array(default_grid()))


@lru_cache(maxsize=16)  # the pools of one dim hold 7 functions; each entry holds 400 floats
def _on_default_grid(fn: MonotoneFunction) -> np.ndarray:
    """fn(t) at every point of ``default_grid()``, computed once per function."""
    return _frozen(_mapped(fn, default_grid()))


def _mapped(fn: MonotoneFunction, points) -> np.ndarray:
    """fn(t) at each of ``points``, by one map of the scalar function."""
    return np.fromiter(map(fn.fn, points), float, len(points))


def _fn_of(X: SymStack, fn: list) -> SymStack:
    return matrix_function(X, [f.fn for f in fn])


def _ratios(lhs: SymStack, base: SymStack) -> list:
    """The diagnostic ratio ||lhs||_op / ||base||_op of each slice."""
    return list(map(_norm_ratio_diag, op_norm(lhs).tolist(), op_norm(base).tolist()))


def _reversal_params(phi: MapSpec, tau: list, sigma: list, key: str, fn: list, A: SymStack,
                     **cell) -> list:
    """Parameters of a map-mean reversal per slice; ``key`` names the function
    slot and each ``cell`` value holds one entry per slice."""
    return [{"map": phi.label, "tau": tau_k.id, "sigma": sigma_k.id, key: f_k.id,
             **dict(zip(cell, values)), "dim": A.dim}
            for tau_k, sigma_k, f_k, *values in zip(tau, sigma, fn, *cell.values())]


def _reversal_certificate(inequality_id: str, params: list, lhs: SymStack, base: SymStack,
                          constant: list, tol_rel: float) -> list:
    """lhs <= constant * base per slice, with the diagnostic ratio ||lhs||_op / ||base||_op."""
    ratio = _ratios(lhs, base)
    return _matrix_certificate(inequality_id, params, lhs, base * constant, constant, ratio,
                               tol_rel)


@_stacked("sigma")
def ando_check(
    phi: MapSpec,
    sigma: ScalarKernel,
    A: SymMatrix,
    B: SymMatrix,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Map-mean exchange: phi(A sigma B) <= phi(A) sigma phi(B)."""
    lhs = phi.apply(kernel_mean(sigma, A, B))
    rhs_base = kernel_mean(sigma, phi.apply(A), phi.apply(B))
    constant = [constant_multiplier] * len(A)
    rhs = rhs_base * constant
    params = [{"map": phi.label, "sigma": sigma_k.id, "dim": A.dim} for sigma_k in sigma]
    return _matrix_certificate("ando", params, lhs, rhs, constant, _ratios(lhs, rhs), tol_rel)


@_stacked("m", "M")
def check_polya_szego(
    phi: MapSpec,
    A: SymMatrix,
    B: SymMatrix,
    m: float,
    M: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Geometric-mean reversal: phi(A) # phi(B) <= (M+m)/(2 sqrt(Mm)) phi(A # B)."""
    _vet_bounded(A, B, m, M, tol_rel)
    lhs = geometric(phi.apply(A), phi.apply(B))
    mid = phi.apply(geometric(A, B))
    constant = _per_cell(polya_szego_constant, m, M, constant_multiplier)
    params = [{"map": phi.label, "m": m_k, "M": M_k, "dim": A.dim} for m_k, M_k in zip(m, M)]
    return _reversal_certificate("polya-szego", params, lhs, mid, constant, tol_rel)


def polya_szego_constant(m: float, M: float) -> float:
    product = M * m
    if product == 0.0 or product == math.inf:  # under- or overflow: take the roots apart
        return (M + m) / (2.0 * (math.sqrt(M) * math.sqrt(m)))
    return (M + m) / (2.0 * math.sqrt(product))


def kantorovich_constant(m: float, M: float) -> float:
    return (M + m) ** 2 / (4.0 * M * m)


def gruss_constant(m: float, M: float) -> float:
    """The Grüss bound's factor (M-m)^2/(4Mm), before f(M) or g(m)."""
    return (M - m) ** 2 / (4.0 * M * m)


def eq15_constant(m: float, M: float) -> float:
    return 2.0 * polya_szego_constant(m, M) ** 2


def _per_cell(constant, lo: list, hi: list, multiplier: float = 1.0) -> list:
    """``constant(lo, hi) * multiplier`` for each slice's cell bounds."""
    return [constant(lo_k, hi_k) * multiplier for lo_k, hi_k in zip(lo, hi)]


@_stacked("tau", "sigma", "f", "m", "M")
def check_kantorovich_f(
    phi: MapSpec,
    tau: ScalarKernel,
    sigma: ScalarKernel,
    f: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    m: float,
    M: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Kantorovich-constant reversal with the function outside the map:
    f(phi(A)) tau f(phi(B)) <= (M+m)^2/(4Mm) * f(phi(A sigma B))."""
    _vet_bounded(A, B, m, M, tol_rel)
    _vet_reversal(tau, sigma, f)
    lhs = kernel_mean(tau, _fn_of(phi.apply(A), f), _fn_of(phi.apply(B), f))
    base = _fn_of(phi.apply(kernel_mean(sigma, A, B)), f)
    constant = _per_cell(kantorovich_constant, m, M, constant_multiplier)
    params = _reversal_params(phi, tau, sigma, "f", f, A, m=m, M=M)
    return _reversal_certificate("kantorovich-f", params, lhs, base, constant, tol_rel)


def sandwich_lemma_constants(s: float, t: float) -> tuple[float, float]:
    half_sum = 0.5 * (math.sqrt(s) + math.sqrt(t))
    if s * t >= 1.0:
        return 1.0 / half_sum, half_sum
    root_st = math.sqrt(s * t)
    return root_st / half_sum, half_sum / root_st


@_stacked("s", "t")
def check_sandwich_lemma(
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    mode: str = "matrix",
    grid_points: int = 200,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
):
    """Two-sided mean comparison under the sandwich condition.

    Matrix mode returns the certificate pair for
    c1 * (A nabla B) <= A # B  and  A # B <= c2 * (A ! B); scalar mode checks
    the underlying scalar bounds for (x+1)/2 and (1/x+1)/2 on a grid in [s, t]
    and ignores A and B.
    """
    _vet_st(s, t)
    c1, c2 = (list(c) for c in zip(*map(sandwich_lemma_constants, s, t)))
    if mode == "scalar":
        return [_scalar_sandwich(s_k, t_k, c2_k, grid_points, constant_multiplier, tol_rel)
                for s_k, t_k, c2_k in zip(s, t, c2)]
    if mode != "matrix":
        raise ValueError(f"unknown mode {mode!r}")
    _vet_sandwich(A, B, s, t, tol_rel)
    sharp = geometric(A, B)
    nabla = arithmetic(A, B)
    harm = harmonic(A, B)
    c1 = [c * constant_multiplier for c in c1]
    c2 = [c * constant_multiplier for c in c2]
    params = lambda side: [{"mode": "matrix", "side": side, "s": s_k, "t": t_k, "dim": A.dim}
                           for s_k, t_k in zip(s, t)]
    lower_lhs = nabla * c1
    lower = _matrix_certificate("sandwich-lemma", params("nabla_lower"), lower_lhs, sharp, c1,
                                _ratios(lower_lhs, sharp), tol_rel)
    upper = _matrix_certificate("sandwich-lemma", params("harmonic_upper"), sharp, harm * c2, c2,
                                _ratios(sharp, harm), tol_rel)
    return list(zip(lower, upper))


def _scalar_sandwich(s: float, t: float, c2: float, grid_points: int,
                     constant_multiplier: float, tol_rel: float) -> Certificate:
    """The scalar bounds (x+1)/2 <= c2 sqrt(x) and (1/x+1)/2 <= c2/sqrt(x) on a grid."""
    xs = np.geomspace(s, t, grid_points).tolist()
    worst_x, lhs_at_worst, rhs_at_worst, worst_ratio = _worst_on_grid(
        [x for x in xs for _ in range(2)],
        np.array([v for x in xs for v in (0.5 * (x + 1.0), 0.5 * (1.0 / x + 1.0))]),
        np.array([v for x in xs for v in (c2 * math.sqrt(x), c2 / math.sqrt(x))]),
    )
    params = {"mode": "scalar", "s": s, "t": t, "grid_points": grid_points, "worst_x": worst_x}
    return _scalar_certificate("sandwich-lemma", params, lhs_at_worst, rhs_at_worst,
                               c2 * constant_multiplier, worst_ratio, tol_rel)


def check_alpha_scaling(
    fn: MonotoneFunction,
    alpha: float,
    grid: Sequence[float] | None = None,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Scaling bounds for alpha >= 1: f(alpha t) <= alpha f(t) for monotone
    increasing f, and g(alpha t) >= g(t)/alpha for monotone decreasing g."""
    _hyp(alpha >= 1.0, f"need alpha >= 1, got {alpha!r}")
    _vet_class(fn, OPERATOR_MONOTONE, OPERATOR_MONOTONE_DECREASING)
    points = tuple(grid) if grid is not None else default_grid()
    at_t = _on_default_grid(fn) if grid is None else _mapped(fn, points)
    grid_array = _default_points() if grid is None else np.array(points, dtype=float)
    at_alpha_t = _mapped(fn, (alpha * grid_array).tolist())
    if fn.klass == OPERATOR_MONOTONE:
        lhs, rhs = at_alpha_t, (constant_multiplier * alpha) * at_t
    else:
        lhs, rhs = at_t / alpha, constant_multiplier * at_alpha_t
    worst_t, lhs_at_worst, rhs_at_worst, worst_ratio = _worst_on_grid(points, lhs, rhs)
    params = {"f": fn.id, "alpha": alpha, "grid_points": len(points), "worst_t": worst_t}
    return _scalar_certificate(
        "alpha-scaling",
        params,
        lhs_at_worst,
        rhs_at_worst,
        alpha * constant_multiplier,
        worst_ratio,
        tol_rel,
    )


@_stacked("tau", "sigma", "f", "s", "t")
def check_main_monotone(
    phi: MapSpec,
    tau: ScalarKernel,
    sigma: ScalarKernel,
    f: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Sandwich-parameterized reversal for monotone increasing f:
    phi(f(A)) tau phi(f(B)) <= C(s,t) * phi(f(A sigma B))."""
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_reversal(tau, sigma, f)
    lhs = kernel_mean(tau, phi.apply(_fn_of(A, f)), phi.apply(_fn_of(B, f)))
    base = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    constant = _per_cell(sandwich_constant, s, t, constant_multiplier)
    params = _reversal_params(phi, tau, sigma, "f", f, A, s=s, t=t)
    return _reversal_certificate("main-monotone", params, lhs, base, constant, tol_rel)


@_stacked("tau", "sigma", "g", "s", "t")
def check_main_decreasing(
    phi: MapSpec,
    tau: ScalarKernel,
    sigma: ScalarKernel,
    g: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Sandwich-parameterized reversal for monotone decreasing g:
    phi(g(A tau B)) <= C(s,t) * (phi(g(A)) sigma phi(g(B)))."""
    _vet_sandwich(A, B, s, t, tol_rel)
    for tau_k, sigma_k, g_k in zip(tau, sigma, g):
        _vet_mean_kernel(tau_k)
        _vet_mean_kernel(sigma_k)
        _vet_class(g_k, OPERATOR_MONOTONE_DECREASING)
    lhs = phi.apply(_fn_of(kernel_mean(tau, A, B), g))
    base = kernel_mean(sigma, phi.apply(_fn_of(A, g)), phi.apply(_fn_of(B, g)))
    constant = _per_cell(sandwich_constant, s, t, constant_multiplier)
    params = _reversal_params(phi, tau, sigma, "g", g, A, s=s, t=t)
    return _reversal_certificate("main-decreasing", params, lhs, base, constant, tol_rel)


@_stacked("tau", "sigma", "fn", "m", "M")
def check_gruss(
    phi: MapSpec,
    tau: ScalarKernel,
    sigma: ScalarKernel,
    fn: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    m: float,
    M: float,
    family: str,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Difference bounds under two-sided scalar bounds.

    monotone family:   phi(f(A)) tau phi(f(B)) - phi(f(A sigma B)) <= (M-m)^2/(4Mm) f(M)
    decreasing family: phi(g(A tau B)) - phi(g(A)) sigma phi(g(B)) <= (M-m)^2/(4Mm) g(m)

    The scalar bound on the right presumes phi(I) = I, so a unital map is
    required; non-unital maps are refused with an explanatory error.
    """
    verdict = check_unital(phi)
    if not verdict.is_unital:
        raise NotUnitalError(
            f"map {phi.label!r} is not unital (||phi(I) - I||_op = "
            f"{verdict.deviation:.3e}); the scalar bound needs phi(I) = I"
        )
    _vet_bounded(A, B, m, M, tol_rel)
    for tau_k, sigma_k in zip(tau, sigma):
        _vet_mean_kernel(tau_k)
        _vet_mean_kernel(sigma_k)
    if family == "monotone":
        for f_k in fn:
            _vet_class(f_k, OPERATOR_MONOTONE)
            _vet_nonnegative(f_k)
        diff = kernel_mean(tau, phi.apply(_fn_of(A, fn)), phi.apply(_fn_of(B, fn))) - phi.apply(
            _fn_of(kernel_mean(sigma, A, B), fn)
        )
        bound_value = [f_k.fn(M_k) for f_k, M_k in zip(fn, M)]
        inequality_id = "gruss-f"
    elif family == "decreasing":
        for f_k in fn:
            _vet_class(f_k, OPERATOR_MONOTONE_DECREASING)
        diff = phi.apply(_fn_of(kernel_mean(tau, A, B), fn)) - kernel_mean(
            sigma, phi.apply(_fn_of(A, fn)), phi.apply(_fn_of(B, fn))
        )
        bound_value = [f_k.fn(m_k) for f_k, m_k in zip(fn, m)]
        inequality_id = "gruss-g"
    else:
        raise ValueError(f"unknown family {family!r}")
    constant = [gruss_constant(m_k, M_k) * b_k * constant_multiplier
                for m_k, M_k, b_k in zip(m, M, bound_value)]
    rhs = SymStack(np.array(constant)[:, None, None] * np.eye(phi.output_dim))
    params = _reversal_params(phi, tau, sigma, "fn", fn, A, m=m, M=M, family=[family] * len(A))
    ratio = [lam_max / c if c > 0 else (1.0 if abs(lam_max) < 1e-300 else math.inf)
             for lam_max, c in zip(spectrum(diff)[:, -1].tolist(), constant)]
    return _matrix_certificate(inequality_id, params, diff, rhs, constant, ratio, tol_rel)


_NORM_RATIO_MODES = ("tau_side", "sharp_side", "power4", "eq15")
_NORM_RATIO_IDS = {
    "tau_side": "norm-ratio-tau",
    "sharp_side": "norm-ratio-sharp",
    "power4": "norm-ratio-power4",
    "eq15": "norm-ratio-eq15",
}


@_stacked("kernel", "g", "s", "t", "m", "M", "norm")
def check_norm_ratio(
    mode: str,
    kernel: ScalarKernel,
    g: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    s: float | None = None,
    t: float | None = None,
    m: float | None = None,
    M: float | None = None,
    norm: NormKind = OPERATOR,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """AUDIT: norm-ratio bounds for convex g with g(0) = 0.

    tau_side:   ||g(A) tau g(B)||/||A tau B|| vs C(s,t)   * ||g(Y)/Y||, Y = A # B, needs tau >= #
    sharp_side: ||g(A) # g(B)||/||A # B||     vs C(s,t)   * ||g(Y)/Y||, Y = A sigma B, needs sigma <= #
    power4:     ||g(A) tau g(B)||/||A tau B|| vs C(s,t)^2 * ||g(Y)/Y||, Y = A # B
    eq15:       ||g(A) # g(B)||/||A # B||     vs 2 K^2    * ||g(Y)/Y||, Y = A # B, K = (M+m)/(2 sqrt(Mm))

    Verdicts may be negative; they are recorded, never asserted, and are
    excluded from the exit-code gate.
    """
    _hyp(mode in _NORM_RATIO_MODES, f"unknown norm-ratio mode {mode!r}")
    for g_k in g:
        _vet_class(g_k, OPERATOR_CONVEX_ZERO)
        _hyp(abs(g_k.fn(0.0)) <= 1e-12, f"function {g_k.id!r} must vanish at 0")
    if mode == "eq15":
        _hyp(m is not None and M is not None, "eq15 mode needs m and M")
        _vet_bounded(A, B, m, M, tol_rel)
        s_eff, t_eff = [m_k / M_k for m_k, M_k in zip(m, M)], [M_k / m_k for m_k, M_k in zip(m, M)]
        constant = _per_cell(eq15_constant, m, M)
        lhs_kernel = rhs_kernel = GEOMETRIC
    else:
        _hyp(s is not None and t is not None, f"{mode} mode needs s and t")
        _vet_sandwich(A, B, s, t, tol_rel)
        s_eff, t_eff = s, t
        constant = _per_cell(sandwich_constant, s, t)
        if mode == "tau_side":
            for k in kernel:
                _hyp(kernel_dominance(GEOMETRIC, k).holds,
                     f"tau_side needs a kernel dominating the geometric one, got {k.id!r}")
            lhs_kernel, rhs_kernel = kernel, GEOMETRIC
        elif mode == "sharp_side":
            for k in kernel:
                _hyp(kernel_dominance(k, GEOMETRIC).holds,
                     f"sharp_side needs a kernel dominated by the geometric one, got {k.id!r}")
            lhs_kernel, rhs_kernel = GEOMETRIC, kernel
        else:  # power4; the right-hand mean is pinned to the geometric one
            for k in kernel:
                _vet_mean_kernel(k)
            lhs_kernel, rhs_kernel = kernel, GEOMETRIC
            constant = [c**2 for c in constant]
    constant = [c * constant_multiplier for c in constant]
    num = ui_norm(kernel_mean(lhs_kernel, _fn_of(A, g), _fn_of(B, g)), norm).tolist()
    den = ui_norm(kernel_mean(lhs_kernel, A, B), norm).tolist()
    lhs_value = [n / d for n, d in zip(num, den)]
    target = kernel_mean(rhs_kernel, A, B)
    base = ui_norm(matrix_function(target, [lambda x, g_k=g_k: g_k.fn(x) / x for g_k in g]),
                   norm).tolist()
    out = []
    for k, (kernel_k, g_k, norm_k) in enumerate(zip(kernel, g, per_slice(norm, A))):
        params = {"mode": mode, "kernel": kernel_k.id, "g": g_k.id, "norm": norm_k.label,
                  "s": s_eff[k], "t": t_eff[k], "dim": A.dim}
        if mode == "eq15":
            params.update({"m": m[k], "M": M[k]})
        out.append(_scalar_certificate(_NORM_RATIO_IDS[mode], params, lhs_value[k],
                                       constant[k] * base[k], constant[k],
                                       _norm_ratio_diag(lhs_value[k], base[k]), tol_rel))
    return out


@_stacked("m", "M")
def check_squared(
    A: SymMatrix,
    B: SymMatrix,
    m: float,
    M: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Squaring an operator inequality: A <= B with m I <= A <= M I gives
    A^2 <= (M+m)^2/(4Mm) B^2."""
    for m_k, M_k in zip(m, M):
        if not 0 < m_k <= M_k:
            raise HypothesisError(f"need 0 < m <= M, got m={m_k!r}, M={M_k!r}")
    order_slack = loewner_slack(A, B).tolist()
    for slack_k, scale_k in zip(order_slack, _sums(op_norm(A), op_norm(B))):
        if not slack_k >= -max(1e-12, tol_rel * max(1.0, scale_k)):
            raise HypothesisError(f"order hypothesis A <= B fails (slack {slack_k:.3e})")
    verify_spectrum("A", A, m, M, tol_rel)
    lhs = matrix_function(A, SQUARE.fn)
    base = matrix_function(B, SQUARE.fn)
    constant = _per_cell(kantorovich_constant, m, M, constant_multiplier)
    params = [{"m": m_k, "M": M_k, "dim": A.dim} for m_k, M_k in zip(m, M)]
    return _reversal_certificate("squared", params, lhs, base, constant, tol_rel)


@_stacked("fn", "m", "M")
def check_squared_consequences(
    fn: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    m: float,
    M: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Squared forms of the geometric-mean reversal, with K = (M+m)^2/(4Mm):

    monotone f:   (f(A) # f(B))^2 <= K^2 f(A # B)^2
    decreasing g: g(A # B)^2      <= K^2 (g(A) # g(B))^2
    """
    _vet_bounded(A, B, m, M, tol_rel)
    for f_k in fn:
        _vet_class(f_k, OPERATOR_MONOTONE, OPERATOR_MONOTONE_DECREASING)
    if len({f_k.klass for f_k in fn}) > 1:
        raise ValueError("the functions of one stack must share their class")
    sharp = geometric(A, B)
    square = lambda X: matrix_function(X, SQUARE.fn)
    if fn[0].klass == OPERATOR_MONOTONE:
        for f_k in fn:
            _vet_nonnegative(f_k)
        lhs = square(geometric(_fn_of(A, fn), _fn_of(B, fn)))
        base = square(_fn_of(sharp, fn))
        inequality_id = "squared-consequence-f"
        key = "f"
    else:
        lhs = square(_fn_of(sharp, fn))
        base = square(geometric(_fn_of(A, fn), _fn_of(B, fn)))
        inequality_id = "squared-consequence-g"
        key = "g"
    constant = [K**2 * constant_multiplier for K in _per_cell(kantorovich_constant, m, M)]
    params = [{key: f_k.id, "m": m_k, "M": M_k, "dim": A.dim} for f_k, m_k, M_k in zip(fn, m, M)]
    return _reversal_certificate(inequality_id, params, lhs, base, constant, tol_rel)


@_stacked("s", "t")
def check_midpoint(
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Midpoint bound under the sandwich condition:
    (sqrt(st) A + B)/2 <= (sqrt(s)+sqrt(t))/2 * (A # B)."""
    _vet_sandwich(A, B, s, t, tol_rel)
    lhs = 0.5 * (A * _root_st(s, t) + B)
    base = geometric(A, B)
    constant = _per_cell(midpoint_constant, s, t, constant_multiplier)
    params = [{"s": s_k, "t": t_k, "dim": A.dim} for s_k, t_k in zip(s, t)]
    return _reversal_certificate("midpoint", params, lhs, base, constant, tol_rel)


def midpoint_constant(s: float, t: float) -> float:
    return 0.5 * (math.sqrt(s) + math.sqrt(t))


def _root_st(s: list, t: list) -> list:
    return [math.sqrt(s_k * t_k) for s_k, t_k in zip(s, t)]


def diaz_metcalf_constant(s: float, t: float) -> float:
    # This family branches on sqrt(st) vs 1, not on st vs 1.
    half_sum_sq = (0.5 * (math.sqrt(s) + math.sqrt(t))) ** 2
    root_st = math.sqrt(s * t)
    if root_st >= 1.0:
        return half_sum_sq
    return half_sum_sq / root_st


@_stacked("tau", "sigma", "f", "s", "t")
def check_diaz_metcalf(
    phi: MapSpec,
    tau: ScalarKernel,
    sigma: ScalarKernel,
    f: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Diaz-Metcalf type bound:
    phi(f(sqrt(st) A)) tau phi(f(B)) <= C * phi(f(A sigma B))."""
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_reversal(tau, sigma, f)
    scaled = A * _root_st(s, t)
    lhs = kernel_mean(tau, phi.apply(_fn_of(scaled, f)), phi.apply(_fn_of(B, f)))
    base = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    constant = _per_cell(diaz_metcalf_constant, s, t, constant_multiplier)
    params = _reversal_params(phi, tau, sigma, "f", f, A, s=s, t=t)
    return _reversal_certificate("diaz-metcalf", params, lhs, base, constant, tol_rel)


# x^(1/2), the geometric kernel, and x^(-1/2), each with np.sqrt in its numpy twin
_sqrt = GEOMETRIC.fn
_inv_sqrt = twinned(lambda x: 1.0 / math.sqrt(x), lambda x: 1.0 / np.sqrt(x))


@_stacked("sigma", "f", "s", "t")
def check_klamkin_mclenaghan(
    phi: MapSpec,
    sigma: ScalarKernel,
    f: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Klamkin-McLenaghan type bound.

    With P = phi(f(A sigma B)), F = phi(f(sqrt(st) A)), G = phi(f(B)),
    T = P^(-1/2) F P^(-1/2):

        P^(-1/2) G P^(-1/2) - P^(1/2) F^(-1) P^(1/2)
            <= c I - 2 I - (T^(1/2) - T^(-1/2))^2

    where c = (sqrt(s)+sqrt(t))^2/2 when sqrt(st) >= 1 and
    (sqrt(s)+sqrt(t))^2/(2 sqrt(st)) otherwise, twice the Diaz-Metcalf constant.
    """
    _vet_sandwich(A, B, s, t, tol_rel)
    for sigma_k, f_k in zip(sigma, f):
        _vet_mean_kernel(sigma_k)
        _vet_class(f_k, OPERATOR_MONOTONE)
        _vet_nonnegative(f_k)
    P = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    F = phi.apply(_fn_of(A * _root_st(s, t), f))
    G = phi.apply(_fn_of(B, f))
    p_root = matrix_function(P, _sqrt)
    p_inv_root = matrix_function(P, _inv_sqrt)
    f_inv = spectral_inverse(F)
    lhs = SymStack(
        p_inv_root.data @ G.data @ p_inv_root.data
        - p_root.data @ f_inv.data @ p_root.data
    )
    T = SymStack(p_inv_root.data @ F.data @ p_inv_root.data)
    t_root = matrix_function(T, _sqrt)
    t_inv_root = matrix_function(T, _inv_sqrt)
    swing = t_root - t_inv_root
    c = [2.0 * diaz_metcalf_constant(s_k, t_k) * constant_multiplier for s_k, t_k in zip(s, t)]
    n_out = phi.output_dim
    rhs = SymStack((np.array(c) - 2.0)[:, None, None] * np.eye(n_out) - swing.data @ swing.data)
    params = [{"map": phi.label, "sigma": sigma_k.id, "f": f_k.id, "s": s_k, "t": t_k,
               "dim": A.dim} for sigma_k, f_k, s_k, t_k in zip(sigma, f, s, t)]
    return _matrix_certificate("klamkin-mclenaghan", params, lhs, rhs, c, _ratios(lhs, rhs),
                               tol_rel)


def check_specht_bound(
    m: float,
    M: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Arithmetic-geometric comparison via Specht's ratio:
    (M+m)/2 <= S(M/m) sqrt(Mm)."""
    _hyp(0 < m <= M, f"need 0 < m <= M, got m={m!r}, M={M!r}")
    lhs = 0.5 * (M + m)
    constant = specht_ratio(M / m) * constant_multiplier
    rhs = constant * math.sqrt(M * m)
    params = {"m": m, "M": M}
    ratio = _norm_ratio_diag(lhs, rhs)
    return _scalar_certificate("specht-bound", params, lhs, rhs, constant, ratio, tol_rel)


@_stacked("tau", "sigma", "f", "s", "t")
def check_strengthened_remark(
    phi: MapSpec,
    tau: ScalarKernel,
    sigma: ScalarKernel,
    f: MonotoneFunction,
    A: SymMatrix,
    B: SymMatrix,
    s: float,
    t: float,
    *,
    constant_multiplier: float = 1.0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Certificate:
    """Two-link strengthening, valid when sqrt(st) >= 1:

    phi(f(A)) tau phi(f(B)) <= phi(f(sqrt(st) A)) tau phi(f(B))
                            <= ((sqrt(s)+sqrt(t))/2)^2 phi(f(A sigma B))
    """
    for s_k, t_k in zip(s, t):
        if not math.sqrt(s_k * t_k) >= 1.0:
            raise HypothesisError(f"refused: needs sqrt(s*t) >= 1, got s={s_k!r}, t={t_k!r}")
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_reversal(tau, sigma, f)
    fb = phi.apply(_fn_of(B, f))
    left = kernel_mean(tau, phi.apply(_fn_of(A, f)), fb)
    middle = kernel_mean(tau, phi.apply(_fn_of(A * _root_st(s, t), f)), fb)
    base = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    # sqrt(st) >= 1 puts sandwich_constant on its s*t >= 1 branch, ((sqrt(s)+sqrt(t))/2)^2.
    constant = _per_cell(sandwich_constant, s, t, constant_multiplier)
    rhs = base * constant
    slack_link1 = loewner_slack(left, middle).tolist()
    slack_link2 = loewner_slack(middle, rhs).tolist()
    scale = _sums(op_norm(left), op_norm(middle), op_norm(rhs))
    params = _reversal_params(phi, tau, sigma, "f", f, A, s=s, t=t,
                              slack_link1=slack_link1, slack_link2=slack_link2)
    out = []
    for p, l, r, c, q, link1, link2, sc in zip(params, left.matrices(), rhs.matrices(), constant,
                                               _ratios(left, base), slack_link1, slack_link2,
                                               scale):
        tol = tol_rel * max(1.0, sc)
        slack = min(link1, link2)
        out.append(Certificate(inequality_id="strengthened-remark", params=p, lhs=l, rhs=r,
                               constant=c, slack=float(slack), ratio=float(q),
                               holds=slack >= -tol, tol=tol))
    return out
