"""One checkable predicate per audited inequality.

Every check evaluates both sides, the constant, the Loewner slack (or the
scalar gap), a dimensionless ratio diagnostic, and a verdict, packaged with
the full parameter context.  Inequality failure is data (``holds=False``);
only *hypothesis* violations raise.

The norm-ratio family is audit-class: verdicts may legitimately be negative
and are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import HypothesisError, NotUnitalError
from .generate import estimate_sandwich
from .kernels import (
    GEOMETRIC,
    OPERATOR_CONVEX_ZERO,
    OPERATOR_MONOTONE,
    OPERATOR_MONOTONE_DECREASING,
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
    as_sym,
    loewner_slack,
    matrix_function,
    op_norm,
    spectrum,
    spectrum_bounds,
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
    params: dict,
    lhs: SymMatrix,
    rhs: SymMatrix,
    constant: float,
    ratio: float,
    tol_rel: float,
) -> Certificate:
    slack = loewner_slack(lhs, rhs)
    tol = tol_rel * max(1.0, op_norm(lhs) + op_norm(rhs))
    return Certificate(
        inequality_id=inequality_id,
        params=params,
        lhs=lhs,
        rhs=rhs,
        constant=float(constant),
        slack=float(slack),
        ratio=float(ratio),
        holds=slack >= -tol,
        tol=tol,
    )


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
    worst = min(fn.fn(t) for t in default_grid())
    _hyp(worst >= -1e-12, f"function {fn.id!r} must be nonnegative on (0, inf)")


def _vet_class(fn: MonotoneFunction, *classes: str) -> None:
    _hyp(
        fn.klass in classes,
        f"function {fn.id!r} has class {fn.klass!r}, expected one of {classes}",
    )


def _vet_reversal(tau: ScalarKernel, sigma: ScalarKernel, f: MonotoneFunction) -> None:
    """Hypotheses of the monotone reversals: two means and a nonnegative monotone f."""
    _vet_mean_kernel(tau)
    _vet_mean_kernel(sigma)
    _vet_class(f, OPERATOR_MONOTONE)
    _vet_nonnegative(f)


def _vet_sandwich(A: SymMatrix, B: SymMatrix, s: float, t: float, tol_rel: float) -> None:
    _hyp(0 < s <= t, f"need 0 < s <= t, got s={s!r}, t={t!r}")
    s_star, t_star = estimate_sandwich(A, B)
    tol = max(1e-12, tol_rel * max(1.0, t))
    _hyp(
        s_star >= s - tol and t_star <= t + tol,
        f"sandwich hypothesis fails: tightest [{s_star:.6g}, {t_star:.6g}] "
        f"outside [{s:.6g}, {t:.6g}]",
    )


def _vet_bounded(A: SymMatrix, B: SymMatrix, m: float, M: float, tol_rel: float) -> None:
    _hyp(0 < m < M, f"need 0 < m < M, got m={m!r}, M={M!r}")
    tol = max(1e-12, tol_rel * max(1.0, M))
    for name, X in (("A", A), ("B", B)):
        lo, hi = spectrum_bounds(X)
        _hyp(
            lo >= m - tol and hi <= M + tol,
            f"bound hypothesis fails for {name}: spectrum [{lo:.6g}, {hi:.6g}] "
            f"outside [{m:.6g}, {M:.6g}]",
        )


def _worst_on_grid(points, sides) -> tuple:
    """(x, lhs, rhs, largest ratio) at the smallest rhs - lhs of a scalar bound;
    ``sides(x)`` gives the (lhs, rhs) pairs checked at the grid point x."""
    worst_slack, worst, worst_ratio = math.inf, (points[0], 0.0, 0.0), 0.0
    for x in points:
        for lhs_val, rhs_val in sides(x):
            if rhs_val - lhs_val < worst_slack:
                worst_slack, worst = rhs_val - lhs_val, (x, lhs_val, rhs_val)
            worst_ratio = max(worst_ratio, _norm_ratio_diag(lhs_val, rhs_val))
    return (*worst, worst_ratio)


def _fn_of(X: SymMatrix, fn: MonotoneFunction) -> SymMatrix:
    return matrix_function(X, fn.fn)


def _reversal_params(phi: MapSpec, tau: ScalarKernel, sigma: ScalarKernel, key: str,
                     fn: MonotoneFunction, A: SymMatrix, **cell) -> dict:
    """Parameters of a map-mean reversal; ``key`` names the function slot."""
    return {"map": phi.label, "tau": tau.id, "sigma": sigma.id, key: fn.id, **cell, "dim": A.dim}


def _reversal_certificate(inequality_id: str, params: dict, lhs: SymMatrix, base: SymMatrix,
                          constant: float, tol_rel: float) -> Certificate:
    """lhs <= constant * base, with the diagnostic ratio ||lhs||_op / ||base||_op."""
    ratio = _norm_ratio_diag(op_norm(lhs), op_norm(base))
    return _matrix_certificate(inequality_id, params, lhs, constant * base, constant, ratio,
                               tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    lhs = phi.apply(kernel_mean(sigma, A, B))
    rhs_base = kernel_mean(sigma, phi.apply(A), phi.apply(B))
    constant = constant_multiplier
    rhs = constant * rhs_base
    params = {"map": phi.label, "sigma": sigma.id, "dim": A.dim}
    ratio = _norm_ratio_diag(op_norm(lhs), op_norm(rhs))
    return _matrix_certificate("ando", params, lhs, rhs, constant, ratio, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _vet_bounded(A, B, m, M, tol_rel)
    lhs = geometric(phi.apply(A), phi.apply(B))
    mid = phi.apply(geometric(A, B))
    constant = (M + m) / (2.0 * math.sqrt(M * m)) * constant_multiplier
    params = {"map": phi.label, "m": m, "M": M, "dim": A.dim}
    return _reversal_certificate("polya-szego", params, lhs, mid, constant, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _vet_bounded(A, B, m, M, tol_rel)
    _vet_reversal(tau, sigma, f)
    lhs = kernel_mean(tau, _fn_of(phi.apply(A), f), _fn_of(phi.apply(B), f))
    base = _fn_of(phi.apply(kernel_mean(sigma, A, B)), f)
    constant = (M + m) ** 2 / (4.0 * M * m) * constant_multiplier
    params = _reversal_params(phi, tau, sigma, "f", f, A, m=m, M=M)
    return _reversal_certificate("kantorovich-f", params, lhs, base, constant, tol_rel)


def _sandwich_lemma_constants(s: float, t: float) -> tuple[float, float]:
    half_sum = 0.5 * (math.sqrt(s) + math.sqrt(t))
    if s * t >= 1.0:
        return 1.0 / half_sum, half_sum
    root_st = math.sqrt(s * t)
    return root_st / half_sum, half_sum / root_st


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
    _hyp(0 < s <= t, f"need 0 < s <= t, got s={s!r}, t={t!r}")
    c1, c2 = _sandwich_lemma_constants(s, t)
    if mode == "scalar":
        worst_x, lhs_at_worst, rhs_at_worst, worst_ratio = _worst_on_grid(
            np.geomspace(s, t, grid_points).tolist(),
            lambda x: ((0.5 * (x + 1.0), c2 * math.sqrt(x)),
                       (0.5 * (1.0 / x + 1.0), c2 / math.sqrt(x))),
        )
        params = {"mode": "scalar", "s": s, "t": t, "grid_points": grid_points, "worst_x": worst_x}
        return _scalar_certificate(
            "sandwich-lemma",
            params,
            lhs_at_worst,
            rhs_at_worst,
            c2 * constant_multiplier,
            worst_ratio,
            tol_rel,
        )
    if mode != "matrix":
        raise ValueError(f"unknown mode {mode!r}")
    A, B = as_sym(A), as_sym(B)
    _vet_sandwich(A, B, s, t, tol_rel)
    sharp = geometric(A, B)
    nabla = arithmetic(A, B)
    harm = harmonic(A, B)
    lower_lhs = (c1 * constant_multiplier) * nabla
    lower = _matrix_certificate(
        "sandwich-lemma",
        {"mode": "matrix", "side": "nabla_lower", "s": s, "t": t, "dim": A.dim},
        lower_lhs,
        sharp,
        c1 * constant_multiplier,
        _norm_ratio_diag(op_norm(lower_lhs), op_norm(sharp)),
        tol_rel,
    )
    upper_rhs = (c2 * constant_multiplier) * harm
    upper = _matrix_certificate(
        "sandwich-lemma",
        {"mode": "matrix", "side": "harmonic_upper", "s": s, "t": t, "dim": A.dim},
        sharp,
        upper_rhs,
        c2 * constant_multiplier,
        _norm_ratio_diag(op_norm(sharp), op_norm(harm)),
        tol_rel,
    )
    return lower, upper


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
    if fn.klass == OPERATOR_MONOTONE:
        sides = lambda t: ((fn.fn(alpha * t), constant_multiplier * alpha * fn.fn(t)),)
    else:
        sides = lambda t: ((fn.fn(t) / alpha, constant_multiplier * fn.fn(alpha * t)),)
    worst_t, lhs_at_worst, rhs_at_worst, worst_ratio = _worst_on_grid(points, sides)
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
    A, B = as_sym(A), as_sym(B)
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_reversal(tau, sigma, f)
    lhs = kernel_mean(tau, phi.apply(_fn_of(A, f)), phi.apply(_fn_of(B, f)))
    base = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    constant = sandwich_constant(s, t) * constant_multiplier
    params = _reversal_params(phi, tau, sigma, "f", f, A, s=s, t=t)
    return _reversal_certificate("main-monotone", params, lhs, base, constant, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_mean_kernel(tau)
    _vet_mean_kernel(sigma)
    _vet_class(g, OPERATOR_MONOTONE_DECREASING)
    lhs = phi.apply(_fn_of(kernel_mean(tau, A, B), g))
    base = kernel_mean(sigma, phi.apply(_fn_of(A, g)), phi.apply(_fn_of(B, g)))
    constant = sandwich_constant(s, t) * constant_multiplier
    params = _reversal_params(phi, tau, sigma, "g", g, A, s=s, t=t)
    return _reversal_certificate("main-decreasing", params, lhs, base, constant, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    verdict = check_unital(phi)
    if not verdict.is_unital:
        raise NotUnitalError(
            f"map {phi.label!r} is not unital (||phi(I) - I||_op = "
            f"{verdict.deviation:.3e}); the scalar bound needs phi(I) = I"
        )
    _vet_bounded(A, B, m, M, tol_rel)
    _vet_mean_kernel(tau)
    _vet_mean_kernel(sigma)
    if family == "monotone":
        _vet_class(fn, OPERATOR_MONOTONE)
        _vet_nonnegative(fn)
        diff = kernel_mean(tau, phi.apply(_fn_of(A, fn)), phi.apply(_fn_of(B, fn))) - phi.apply(
            _fn_of(kernel_mean(sigma, A, B), fn)
        )
        bound_value = fn.fn(M)
        inequality_id = "gruss-f"
    elif family == "decreasing":
        _vet_class(fn, OPERATOR_MONOTONE_DECREASING)
        diff = phi.apply(_fn_of(kernel_mean(tau, A, B), fn)) - kernel_mean(
            sigma, phi.apply(_fn_of(A, fn)), phi.apply(_fn_of(B, fn))
        )
        bound_value = fn.fn(m)
        inequality_id = "gruss-g"
    else:
        raise ValueError(f"unknown family {family!r}")
    constant = (M - m) ** 2 / (4.0 * M * m) * bound_value * constant_multiplier
    rhs = SymMatrix(constant * np.eye(phi.output_dim))
    params = _reversal_params(phi, tau, sigma, "fn", fn, A, m=m, M=M, family=family)
    lam_max = float(spectrum(diff)[-1])
    ratio = lam_max / constant if constant > 0 else (1.0 if abs(lam_max) < 1e-300 else math.inf)
    return _matrix_certificate(inequality_id, params, diff, rhs, constant, ratio, tol_rel)


_NORM_RATIO_MODES = ("tau_side", "sharp_side", "power4", "eq15")
_NORM_RATIO_IDS = {
    "tau_side": "norm-ratio-tau",
    "sharp_side": "norm-ratio-sharp",
    "power4": "norm-ratio-power4",
    "eq15": "norm-ratio-eq15",
}


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
    _vet_class(g, OPERATOR_CONVEX_ZERO)
    _hyp(abs(g.fn(0.0)) <= 1e-12, f"function {g.id!r} must vanish at 0")
    A, B = as_sym(A), as_sym(B)
    if mode == "eq15":
        _hyp(m is not None and M is not None, "eq15 mode needs m and M")
        _vet_bounded(A, B, m, M, tol_rel)
        s_eff, t_eff = m / M, M / m
        constant = 2.0 * ((M + m) / (2.0 * math.sqrt(M * m))) ** 2
        lhs_kernel = GEOMETRIC
        rhs_kernel = GEOMETRIC
    else:
        _hyp(s is not None and t is not None, f"{mode} mode needs s and t")
        _vet_sandwich(A, B, s, t, tol_rel)
        s_eff, t_eff = s, t
        if mode == "tau_side":
            _hyp(
                kernel_dominance(GEOMETRIC, kernel).holds,
                f"tau_side needs a kernel dominating the geometric one, got {kernel.id!r}",
            )
            lhs_kernel, rhs_kernel = kernel, GEOMETRIC
            constant = sandwich_constant(s, t)
        elif mode == "sharp_side":
            _hyp(
                kernel_dominance(kernel, GEOMETRIC).holds,
                f"sharp_side needs a kernel dominated by the geometric one, got {kernel.id!r}",
            )
            lhs_kernel, rhs_kernel = GEOMETRIC, kernel
            constant = sandwich_constant(s, t)
        else:  # power4; the right-hand mean is pinned to the geometric one
            _vet_mean_kernel(kernel)
            lhs_kernel, rhs_kernel = kernel, GEOMETRIC
            constant = sandwich_constant(s, t) ** 2
    constant *= constant_multiplier
    num = ui_norm(kernel_mean(lhs_kernel, _fn_of(A, g), _fn_of(B, g)), norm)
    den = ui_norm(kernel_mean(lhs_kernel, A, B), norm)
    lhs_value = num / den
    target = kernel_mean(rhs_kernel, A, B)
    base = ui_norm(matrix_function(target, lambda x: g.fn(x) / x), norm)
    rhs_value = constant * base
    params = {
        "mode": mode,
        "kernel": kernel.id,
        "g": g.id,
        "norm": norm.label,
        "s": s_eff,
        "t": t_eff,
        "dim": A.dim,
    }
    if mode == "eq15":
        params.update({"m": m, "M": M})
    ratio = _norm_ratio_diag(lhs_value, base)
    return _scalar_certificate(
        _NORM_RATIO_IDS[mode], params, lhs_value, rhs_value, constant, ratio, tol_rel
    )


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
    A, B = as_sym(A), as_sym(B)
    _hyp(0 < m <= M, f"need 0 < m <= M, got m={m!r}, M={M!r}")
    order_slack = loewner_slack(A, B)
    _hyp(
        order_slack >= -max(1e-12, tol_rel * max(1.0, op_norm(A) + op_norm(B))),
        f"order hypothesis A <= B fails (slack {order_slack:.3e})",
    )
    lo, hi = spectrum_bounds(A)
    tol = max(1e-12, tol_rel * max(1.0, M))
    _hyp(
        lo >= m - tol and hi <= M + tol,
        f"bound hypothesis fails for A: spectrum [{lo:.6g}, {hi:.6g}] outside [{m:.6g}, {M:.6g}]",
    )
    lhs = matrix_function(A, lambda x: x * x)
    base = matrix_function(B, lambda x: x * x)
    constant = (M + m) ** 2 / (4.0 * M * m) * constant_multiplier
    return _reversal_certificate("squared", {"m": m, "M": M, "dim": A.dim}, lhs, base, constant,
                                 tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _vet_bounded(A, B, m, M, tol_rel)
    _vet_class(fn, OPERATOR_MONOTONE, OPERATOR_MONOTONE_DECREASING)
    sharp = geometric(A, B)
    square = lambda X: matrix_function(X, lambda x: x * x)
    if fn.klass == OPERATOR_MONOTONE:
        _vet_nonnegative(fn)
        lhs = square(geometric(_fn_of(A, fn), _fn_of(B, fn)))
        base = square(_fn_of(sharp, fn))
        inequality_id = "squared-consequence-f"
        key = "f"
    else:
        lhs = square(_fn_of(sharp, fn))
        base = square(geometric(_fn_of(A, fn), _fn_of(B, fn)))
        inequality_id = "squared-consequence-g"
        key = "g"
    constant = ((M + m) ** 2 / (4.0 * M * m)) ** 2 * constant_multiplier
    params = {key: fn.id, "m": m, "M": M, "dim": A.dim}
    return _reversal_certificate(inequality_id, params, lhs, base, constant, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _vet_sandwich(A, B, s, t, tol_rel)
    lhs = 0.5 * (math.sqrt(s * t) * A + B)
    base = geometric(A, B)
    constant = 0.5 * (math.sqrt(s) + math.sqrt(t)) * constant_multiplier
    params = {"s": s, "t": t, "dim": A.dim}
    return _reversal_certificate("midpoint", params, lhs, base, constant, tol_rel)


def _diaz_metcalf_constant(s: float, t: float) -> float:
    # This family branches on sqrt(st) vs 1, not on st vs 1.
    half_sum_sq = (0.5 * (math.sqrt(s) + math.sqrt(t))) ** 2
    root_st = math.sqrt(s * t)
    if root_st >= 1.0:
        return half_sum_sq
    return half_sum_sq / root_st


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
    A, B = as_sym(A), as_sym(B)
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_reversal(tau, sigma, f)
    scaled = math.sqrt(s * t) * A
    lhs = kernel_mean(tau, phi.apply(_fn_of(scaled, f)), phi.apply(_fn_of(B, f)))
    base = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    constant = _diaz_metcalf_constant(s, t) * constant_multiplier
    params = _reversal_params(phi, tau, sigma, "f", f, A, s=s, t=t)
    return _reversal_certificate("diaz-metcalf", params, lhs, base, constant, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_mean_kernel(sigma)
    _vet_class(f, OPERATOR_MONOTONE)
    _vet_nonnegative(f)
    P = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    F = phi.apply(_fn_of(math.sqrt(s * t) * A, f))
    G = phi.apply(_fn_of(B, f))
    p_root = matrix_function(P, math.sqrt)
    p_inv_root = matrix_function(P, lambda x: 1.0 / math.sqrt(x))
    f_inv = spectral_inverse(F)
    lhs = SymMatrix(
        p_inv_root.data @ G.data @ p_inv_root.data
        - p_root.data @ f_inv.data @ p_root.data
    )
    T = SymMatrix(p_inv_root.data @ F.data @ p_inv_root.data)
    t_root = matrix_function(T, math.sqrt)
    t_inv_root = matrix_function(T, lambda x: 1.0 / math.sqrt(x))
    swing = t_root - t_inv_root
    c = 2.0 * _diaz_metcalf_constant(s, t) * constant_multiplier
    n_out = phi.output_dim
    rhs = SymMatrix((c - 2.0) * np.eye(n_out) - swing.data @ swing.data)
    params = {
        "map": phi.label,
        "sigma": sigma.id,
        "f": f.id,
        "s": s,
        "t": t,
        "dim": A.dim,
    }
    ratio = _norm_ratio_diag(op_norm(lhs), op_norm(rhs))
    return _matrix_certificate("klamkin-mclenaghan", params, lhs, rhs, c, ratio, tol_rel)


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
    A, B = as_sym(A), as_sym(B)
    _hyp(math.sqrt(s * t) >= 1.0, f"refused: needs sqrt(s*t) >= 1, got s={s!r}, t={t!r}")
    _vet_sandwich(A, B, s, t, tol_rel)
    _vet_reversal(tau, sigma, f)
    fb = phi.apply(_fn_of(B, f))
    left = kernel_mean(tau, phi.apply(_fn_of(A, f)), fb)
    middle = kernel_mean(tau, phi.apply(_fn_of(math.sqrt(s * t) * A, f)), fb)
    base = phi.apply(_fn_of(kernel_mean(sigma, A, B), f))
    # sqrt(st) >= 1 puts sandwich_constant on its s*t >= 1 branch, ((sqrt(s)+sqrt(t))/2)^2.
    constant = sandwich_constant(s, t) * constant_multiplier
    rhs = constant * base
    slack_link1 = loewner_slack(left, middle)
    slack_link2 = loewner_slack(middle, rhs)
    scale = max(1.0, op_norm(left) + op_norm(middle) + op_norm(rhs))
    tol = tol_rel * scale
    slack = min(slack_link1, slack_link2)
    params = _reversal_params(phi, tau, sigma, "f", f, A, s=s, t=t,
                              slack_link1=slack_link1, slack_link2=slack_link2)
    ratio = _norm_ratio_diag(op_norm(left), op_norm(base))
    return Certificate(
        inequality_id="strengthened-remark",
        params=params,
        lhs=left,
        rhs=rhs,
        constant=constant,
        slack=float(slack),
        ratio=float(ratio),
        holds=slack >= -tol,
        tol=tol,
    )
