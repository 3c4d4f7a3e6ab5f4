"""Every audited inequality, declared once as a row, the hypothesis cells
the rows hold, and the one evaluator that turns a row and a stack of trials
into certificates.

Each statement has the shape lhs <= c * base on a hypothesis cell, with the
constant c a function of the cell's bounds (m, M) or (s, t).  A ``Cell``
holds its bound names, its ordering rule, its draw of a stack of trials, the
check of its hypothesis and probe's default bounds; each cell is one object,
told apart by identity.  A row holds what verify, hunt, probe and recheck
need: its cell and pools, its own hypotheses, the sides and the constant.
``check_stack``, the one entry point to a certificate, checks a stack
once, evaluates a row on it and returns one ``StackResult``, its results
as columns; a ``Certificate`` with matrix sides is built only for the
slices that are asked for.  Inequality failure is data (``holds`` is
False); only *hypothesis* violations raise.

The norm-ratio family is audit-class: verdicts may legitimately be negative
and are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import HypothesisError, NotUnitalError
from .generate import (
    A_SPECTRUM,
    BoundedPair,
    SandwichPair,
    _bounded_pair,
    _sandwich_pair,
    _spd,
    log_uniform_rows,
    verify_spectrum,
)
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
from .maps import apply_each, check_unital
from .means import arithmetic, geometric, harmonic, kernel_mean, spectral_inverse
from .spectral import (
    LOEWNER_TOL_REL,
    SymStack,
    _apply,
    _eye,
    _frozen,
    by_distinct,
    loewner_slack,
    matrix_function,
    op_norm,
    spectrum,
    twinned,
    ui_norm,
)


@dataclass(frozen=True)
class Certificate:
    """One evaluated inequality instance.

    ``slack`` is lambda_min(RHS - LHS) for operator inequalities and
    RHS - LHS for scalar ones; ``holds`` iff slack clears -tol, where tol
    scales with the magnitudes involved.
    """

    inequality_id: str
    params: dict
    lhs: SymStack | float
    rhs: SymStack | float
    constant: float
    slack: float
    ratio: float
    holds: bool
    tol: float

    def to_json(self) -> dict:
        return {**vars(self), "params": dict(self.params), "lhs": _side_to_json(self.lhs),
                "rhs": _side_to_json(self.rhs),
                "ratio": self.ratio if math.isfinite(self.ratio) else None}


def _side_to_json(side):
    if isinstance(side, SymStack):
        return {"dim": side.dim, "data": side.data.ravel().tolist()}
    return float(side)


@dataclass(frozen=True)
class Sides:
    """One certificate per slice of a stack, as columns.

    ``lhs`` and ``rhs`` are SymStacks for an operator inequality, whose
    slack is lambda_min(rhs - lhs), and float arrays for a scalar one,
    whose slack is rhs - lhs.  ``constant``, ``slack``, ``ratio``, ``tol``
    and ``holds`` are arrays with one entry per slice, and ``params`` maps
    each parameter name to its list of per-slice values.
    """

    inequality_id: str
    params: dict
    lhs: SymStack | np.ndarray
    rhs: SymStack | np.ndarray
    constant: np.ndarray
    slack: np.ndarray
    ratio: np.ndarray
    tol: np.ndarray
    holds: np.ndarray

    def certificate(self, k: int) -> Certificate:
        """Slice k's certificate; its matrix sides are one-slice views of the stacks."""
        return Certificate(self.inequality_id, {name: col[k] for name, col in self.params.items()},
                           _slice(self.lhs, k), _slice(self.rhs, k), float(self.constant[k]),
                           float(self.slack[k]), float(self.ratio[k]), bool(self.holds[k]),
                           float(self.tol[k]))


def _slice(side, k: int):
    if isinstance(side, SymStack):
        return SymStack.__new__(SymStack)._fill(side.data[k:k + 1])
    return float(side[k])


class StackResult:
    """A row evaluated on a stack of trials: one Sides per certificate of a
    trial, the stacks A and B (None for a scalar row), and, as lists, each
    trial's ``slack``, ``holds`` and ``ratio``, the minimum, conjunction and
    maximum over its certificates as Python's min, all and max take them (a
    nan is kept only where it comes first)."""

    def __init__(self, sides: list, A: SymStack | None, B: SymStack | None):
        self.sides, self.A, self.B = sides, A, B
        slack, holds, ratio = sides[0].slack, sides[0].holds, sides[0].ratio
        for more in sides[1:]:
            slack = np.where(more.slack < slack, more.slack, slack)
            holds = holds & more.holds
            ratio = np.where(more.ratio > ratio, more.ratio, ratio)
        self.slack, self.holds, self.ratio = slack.tolist(), holds.tolist(), ratio.tolist()

    def certificates(self, k: int) -> list:
        """Trial k's certificates, with their sides."""
        return [side.certificate(k) for side in self.sides]


@dataclass(frozen=True, eq=False)
class Cell:
    """One hypothesis cell, told apart from the others by identity.

    ``bounds`` names the bounds that the trials' cells hold; two (lo, hi)
    need 0 < lo < hi when ``strict``, else 0 < lo <= hi.  ``sample(rngs,
    config)`` draws each stream's bounds where the config does not fix
    them, ``reflect(*bounds)`` moves those bounds into the cell (probe's
    too), and ``pair(rngs, dim, cells, corner)`` draws the stacks ``(A, B,
    cells)`` in them (None for a cell without matrices).  ``check(x)``
    raises for the stack x where a slice breaks the cell's hypothesis, by
    the ordering rule first (None: no hypothesis).  ``probe`` holds probe's
    default bounds, or None where probe does not search the cell.
    """

    bounds: tuple
    sample: Callable | None = None
    pair: Callable | None = None
    check: Callable | None = None
    strict: bool = False
    probe: tuple | None = None
    reflect: Callable = lambda *bounds: bounds

    def fixed(self, config) -> tuple | None:
        """The config's values of the bounds when it fixes them, else None."""
        values = tuple(getattr(config, name, None) for name in self.bounds)
        return None if None in values else values

    def draw(self, rngs: list, dim: int, config, corner: bool = False) -> tuple:
        """The stacks ``(A, B, cells)`` of the trial streams ``rngs``;
        ``corner`` makes the first trial the commuting boundary instance."""
        values = self.fixed(config)
        cells = [self.reflect(*cell) for cell in (
            self.sample(rngs, config) if values is None
            else [tuple(float(v) for v in values)] * len(rngs))]
        return (None, None, cells) if self.pair is None else self.pair(rngs, dim, cells, corner)

    def vet_order(self, lo: list, hi: list) -> None:
        """Raise for the first slice whose bounds break the ordering rule."""
        for lo_k, hi_k in zip(lo, hi):
            if not ((0 < lo_k < hi_k) if self.strict else (0 < lo_k <= hi_k)):
                a, b = self.bounds
                raise HypothesisError(f"need 0 < {a} {'<' if self.strict else '<='} {b}, "
                                      f"got {a}={lo_k!r}, {b}={hi_k!r}")


@dataclass(frozen=True)
class Row:
    """One inequality id, declared once, with its ``statement`` as documentation.

    ``cell`` is the row's hypothesis ``Cell``, which names the bounds of the
    trials' cells, draws the row's stacks and checks them.  ``pool`` names
    the map pool, or None: trial i takes map i, and a stack's maps share
    their output dimension.  Each of ``picks`` is ``(name, pool, offset)``:
    trial i takes item ``i + offset`` of the pool, cyclically.  A pool is
    named by the SuiteConfig field of its specs, or by the pool the suite
    derives from one (``unital_maps``, for instance).  ``vets``
    check the row's own hypotheses on the stack in order, after the cell's
    check.  ``sides(x)`` evaluates the sides on the stack ``x`` (lhs and
    base, unless the form reads more) and ``form(row, x)`` turns them into
    Sides.  ``constant(*bounds)`` is the constant at multiplier 1 on one
    cell's bounds, or None when the row takes none; ``carry`` gives a
    factor per slice that the constant carries, and ``params`` holds
    parameters shared by every slice, or computed from ``x``.
    """

    id: str
    statement: str
    cell: Cell
    sides: Callable | None = None
    constant: Callable | None = None
    carry: Callable | None = None
    pool: str | None = None
    picks: tuple = ()
    vets: tuple = ()
    form: Callable | None = None
    params: dict = field(default_factory=dict)
    audit: bool = False


def check_stack(row: Row, A: SymStack | None, B: SymStack | None, cells: list, picks: dict, *,
                constant_multiplier: float = 1.0,
                tol_rel: float = LOEWNER_TOL_REL) -> StackResult:
    """Evaluate ``row`` on a stack of trials.

    A and B hold one slice per trial (None for a scalar row), ``cells``
    holds each trial's cell bounds, and ``picks`` the maps ``phi`` (when the
    row takes them) and each pick's values, one per trial; the sides read
    ``x.phi(X)``, each slice of X under its own map.  The cell's check and
    then the row's vets run once, at ``tol_rel``: a violated hypothesis
    raises.  Returns the stack's one result.
    """
    x = SimpleNamespace(**{"A": A, "B": B, "phi": None, "n": len(cells),
                           "mult": constant_multiplier, "tol_rel": tol_rel,
                           "cell": row.cell, **dict(zip(row.cell.bounds, _cols(cells))),
                           **picks})
    if x.phi is not None:
        x.maps, x.phi = x.phi, partial(apply_each, x.phi)
    for vet in (row.cell.check, *row.vets) if row.cell.check else row.vets:
        vet(x)
    return StackResult((row.form or _plain)(row, x), A, B)


def _cols(cells: list) -> list:
    """The trials' cell tuples as one list per cell field."""
    return [list(col) for col in zip(*cells)]


def _constants(row: Row, x) -> list:
    """Each slice's constant times the multiplier; a row's constant may be a tuple."""
    if row.constant is None:
        return [x.mult] * x.n
    raw = [row.constant(*cell) for cell in zip(*(getattr(x, name) for name in row.cell.bounds))]
    if row.carry is not None:
        raw = [c * factor for c, factor in zip(raw, row.carry(x))]
    return [tuple(v * x.mult for v in c) if isinstance(c, tuple) else c * x.mult for c in raw]


def _columns(row: Row, x, lhs, rhs, c, ratio, slack=None, scale=None, **params) -> Sides:
    """The Sides of lhs <= rhs, one slice per trial; ``params`` adds per-slice columns."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf, as in floats
        if not isinstance(lhs, SymStack):
            slack, scale = rhs - lhs, np.abs(lhs) + np.abs(rhs)
        if slack is None:
            slack = loewner_slack(lhs, rhs)
        if scale is None:
            scale = op_norm(lhs) + op_norm(rhs)
    tol = x.tol_rel * np.fmax(1.0, scale)  # fmax reads a nan scale as 1.0, as max() does
    cols = {} if x.phi is None else {"map": [phi.label for phi in x.maps]}
    for name, *_ in row.picks:
        cols[name] = [v.label if hasattr(v, "label") else v.id for v in getattr(x, name)]
    cols.update((name, getattr(x, name)) for name in row.cell.bounds)
    for name, value in row.params.items():
        cols[name] = value(x) if callable(value) else [value] * x.n
    if row.cell.pair is not None:  # the dimension of the matrices the cell holds
        cols["dim"] = [x.A.dim] * x.n
    cols.update(params)
    return Sides(row.id, cols, lhs, rhs, np.asarray(c, dtype=float), slack,
                 np.asarray(ratio, dtype=float), tol, slack >= -tol)


def _norm_ratio_diag(lhs, base):
    """lhs / base per entry; degenerate 0/0 cases (exact equality witnesses)
    read as ratio 1, and x/0 as inf."""
    lhs, base = np.asarray(lhs, dtype=float), np.asarray(base, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(base <= 1e-300, np.where(lhs <= 1e-300, 1.0, math.inf), lhs / base)


def _ratio(lhs, base):
    """The diagnostic ratio ||lhs||_op / ||base||_op per slice, or lhs / base for scalars."""
    if isinstance(lhs, SymStack):
        lhs, base = op_norm(lhs), op_norm(base)
    return _norm_ratio_diag(lhs, base)


# The evaluator's forms: each turns a row's sides on the stack x into Sides.

def _plain(row: Row, x, against_rhs: bool = False) -> list[Sides]:
    """lhs <= c * base, with the ratio of lhs to base, or to c * base."""
    lhs, base = row.sides(x)
    c = _constants(row, x)
    with np.errstate(over="ignore"):  # an overflow gives inf, as in floats
        rhs = base * np.asarray(c)
    return [_columns(row, x, lhs, rhs, c, _ratio(lhs, rhs if against_rhs else base))]


_against_rhs = partial(_plain, against_rhs=True)


def _top(row: Row, x) -> list[Sides]:
    """lhs <= c * I (the base is the identity), with the ratio of lambda_max(lhs) to c."""
    lhs = row.sides(x)
    c = _constants(row, x)
    top, cs = spectrum(lhs)[:, -1], np.asarray(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cs > 0, top / cs, np.where(np.abs(top) < 1e-300, 1.0, math.inf))
    eye = SymStack(np.broadcast_to(_eye(lhs.dim), lhs.data.shape))
    return [_columns(row, x, lhs, eye * c, c, ratio)]


def _klamkin(row: Row, x) -> list[Sides]:
    """lhs <= (c - 2) I - S with S = (T^(1/2) - T^(-1/2))^2, a right side
    that is not c times a base; the ratio is of lhs to the right side."""
    lhs, swing_sq = row.sides(x)
    c = _constants(row, x)
    rhs = SymStack((np.array(c) - 2.0)[:, None, None] * np.eye(lhs.dim) - swing_sq)
    return [_columns(row, x, lhs, rhs, c, _ratio(lhs, rhs))]


def _two_sided(row: Row, x) -> list[Sides]:
    """c1 * nabla <= sharp <= c2 * harm, as two certificates per trial."""
    sharp, nabla, harm = row.sides(x)
    c1, c2 = (list(col) for col in zip(*_constants(row, x)))
    lower = nabla * c1
    return [_columns(row, x, lower, sharp, c1, _ratio(lower, sharp), side=["nabla_lower"] * x.n),
            _columns(row, x, sharp, harm * c2, c2, _ratio(sharp, harm),
                     side=["harmonic_upper"] * x.n)]


def _links(row: Row, x) -> list[Sides]:
    """left <= middle <= c * base: the slack is the smaller link's, and the
    ratio is of left to base."""
    left, middle, base = row.sides(x)
    c = _constants(row, x)
    rhs = base * c
    link1, link2 = loewner_slack(left, middle), loewner_slack(middle, rhs)
    with np.errstate(over="ignore"):
        scale = op_norm(left) + op_norm(middle) + op_norm(rhs)
    return [_columns(row, x, left, rhs, c, _ratio(left, base),
                     slack=np.where(link2 < link1, link2, link1), scale=scale,
                     slack_link1=link1.tolist(), slack_link2=link2.tolist())]


def _scaling(row: Row, x) -> list[Sides]:
    """f(alpha t) <= alpha f(t) for increasing f, and g(t)/alpha <= g(alpha t)
    for decreasing g, each at the worst point of ``default_grid()``."""
    c = _constants(row, x)
    points = default_grid()
    # f(t), then f(alpha t), as one (trials, points) block each
    f_t = [_on_default_grid(fn) for fn in x.f]
    f_alpha_t = _on_grid(x.f, np.array(x.alpha, dtype=float)[:, None] * _default_points())
    worst = []
    for fn, alpha, c_k, at_t, at_alpha_t in zip(x.f, x.alpha, c, f_t, f_alpha_t):
        if fn.klass == OPERATOR_MONOTONE:
            worst.append(_worst_on_grid(points, at_alpha_t, c_k * at_t))
        else:
            worst.append(_worst_on_grid(points, at_t / alpha, x.mult * at_alpha_t))
    worst_t, lhs, rhs, ratio = (list(col) for col in zip(*worst))
    return [_columns(row, x, np.array(lhs), np.array(rhs), c, ratio,
                     grid_points=[len(points)] * x.n, worst_t=worst_t)]


def _scalar_sandwich(row: Row, x, grid_points: int = 200) -> list[Sides]:
    """The scalar bounds (x+1)/2 <= c2 sqrt(x) and (1/x+1)/2 <= c2/sqrt(x)
    behind the sandwich lemma, at the worst point of a grid in [s, t]."""
    c = _constants(row, x)
    worst = []
    for s, t, (_, c2) in zip(x.s, x.t, c):
        xs = np.geomspace(s, t, grid_points).tolist()
        worst.append(_worst_on_grid(
            [v for v in xs for _ in range(2)],
            np.array([y for v in xs for y in (0.5 * (v + 1.0), 0.5 * (1.0 / v + 1.0))]),
            np.array([y for v in xs for y in (c2 * math.sqrt(v), c2 / math.sqrt(v))])))
    worst_x, lhs, rhs, ratio = (list(col) for col in zip(*worst))
    return [_columns(row, x, np.array(lhs), np.array(rhs), [c_k[1] for c_k in c], ratio,
                     grid_points=[grid_points] * x.n, worst_x=worst_x)]


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
    ratio = _norm_ratio_diag(lhs, rhs)
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


def _on_grid(fns: list, t: np.ndarray) -> np.ndarray:
    """fn(t) along each row of ``t`` for the row's function, by the twin/map
    rule of ``matrix_function``; where a value is not finite, the rows are mapped
    point by point, so a point where fn is undefined raises fn's own error."""
    values = by_distinct([fn.fn for fn in fns], _apply, t)
    if np.isfinite(values).all():
        return values
    return np.array([_mapped(fn, row) for fn, row in zip(fns, t.tolist())])


# Hypotheses.  The per-slice checks raise HypothesisError themselves rather
# than through _hyp, so that a message is formatted only for a slice that fails.

def _hyp(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisError(message)


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


def _vet_class(fn: MonotoneFunction, *classes: str) -> None:
    if fn.klass not in classes:
        raise HypothesisError(
            f"function {fn.id!r} has class {fn.klass!r}, expected one of {classes}")


def _vet_sandwich(A: SymStack, B: SymStack, s: list, t: list, tol_rel: float) -> None:
    SandwichPair(A, B, s, t).verify(tol_rel)


def _vet_bounded(A: SymStack, B: SymStack, m: list, M: list, tol_rel: float) -> None:
    BoundedPair(A, B, m, M).verify(tol_rel)


# The cells' checks and the rows' vets, each a check of the stack x.  A cell's check
# calls _vet_sandwich and _vet_bounded by name, so a wrapper set on the names sees it.

def _ordered(x) -> None:
    """The bounds of each slice keep the ordering rule of the row's cell."""
    x.cell.vet_order(*(getattr(x, name) for name in x.cell.bounds))


def _sandwich(x) -> None:
    _ordered(x)
    _vet_sandwich(x.A, x.B, x.s, x.t, x.tol_rel)


def _sandwich_st_ge_1(x) -> None:
    _ordered(x)
    for s, t in zip(x.s, x.t):
        if not math.sqrt(s * t) >= 1.0:
            raise HypothesisError(f"refused: needs sqrt(s*t) >= 1, got s={s!r}, t={t!r}")
    _vet_sandwich(x.A, x.B, x.s, x.t, x.tol_rel)


def _bounded(x) -> None:
    _ordered(x)
    _vet_bounded(x.A, x.B, x.m, x.M, x.tol_rel)


def _order(x) -> None:
    """The ordering rule, A <= B up to the tolerance, and the spectrum of A within [m, M]."""
    _ordered(x)
    with np.errstate(over="ignore"):
        scale = (op_norm(x.A) + op_norm(x.B)).tolist()
    for slack, sc in zip(loewner_slack(x.A, x.B).tolist(), scale):
        if not slack >= -max(1e-12, x.tol_rel * max(1.0, sc)):
            raise HypothesisError(f"order hypothesis A <= B fails (slack {slack:.3e})")
    verify_spectrum("A", x.A, x.m, x.M, x.tol_rel)


def _unital(x) -> None:
    """phi(I) = I for each map: the scalar bound on the right of a Grüss bound presumes it."""
    for phi in {id(phi): phi for phi in x.maps}.values():
        verdict = check_unital(phi)
        if not verdict.is_unital:
            raise NotUnitalError(
                f"map {phi.label!r} is not unital (||phi(I) - I||_op = "
                f"{verdict.deviation:.3e}); the scalar bound needs phi(I) = I"
            )


def _means(x) -> None:
    """tau and sigma, those the row picks, are means between ! and nabla."""
    for kernel in (*getattr(x, "tau", ()), *getattr(x, "sigma", ())):
        _vet_mean_kernel(kernel)


def _each(name: str, check: Callable, *args) -> Callable:
    """The vet that calls ``check(value, *args)`` on each slice's value of ``name``."""
    def vet(x) -> None:
        for value in getattr(x, name):
            check(value, *args)
    return vet


def _vet_monotone(fn: MonotoneFunction) -> None:
    _vet_class(fn, OPERATOR_MONOTONE)
    _vet_nonnegative(fn)


def _vet_vanishing_convex(g: MonotoneFunction) -> None:
    _vet_class(g, OPERATOR_CONVEX_ZERO)
    _hyp(abs(g.fn(0.0)) <= 1e-12, f"function {g.id!r} must vanish at 0")


# Constants, at multiplier 1.

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


def sandwich_lemma_constants(s: float, t: float) -> tuple[float, float]:
    half_sum = 0.5 * (math.sqrt(s) + math.sqrt(t))
    if s * t >= 1.0:
        return 1.0 / half_sum, half_sum
    root_st = math.sqrt(s * t)
    return root_st / half_sum, half_sum / root_st


def diaz_metcalf_constant(s: float, t: float) -> float:
    # This family branches on sqrt(st) vs 1, not on st vs 1.
    half_sum_sq = (0.5 * (math.sqrt(s) + math.sqrt(t))) ** 2
    root_st = math.sqrt(s * t)
    if root_st >= 1.0:
        return half_sum_sq
    return half_sum_sq / root_st


def _st_ge_1(s: float, t: float) -> tuple:
    """The cell (s, t), reflected into s*t >= 1 when below it."""
    return (s, t) if s * t >= 1.0 else (1.0 / t, 1.0 / s)


# The cells, with their draws of a stack of trial streams.

def _sorted_st(rngs: list, config) -> list:
    """Two log-uniform draws from ``sandwich_range``, sorted."""
    lo, hi = config.sandwich_range
    return [tuple(sorted(st)) for st in log_uniform_rows(rngs, (lo, hi), (lo, hi)).tolist()]


def _spread_mM(rngs: list, config) -> list:
    """m log-uniform in [0.5, 2] and M = m times a log-uniform draw in [1.5, 8]."""
    return [(m, m * r) for m, r in log_uniform_rows(rngs, (0.5, 2.0), (1.5, 8.0)).tolist()]


def _sandwich_cells(rngs: list, dim: int, cells: list, corner: bool) -> tuple:
    return (*_sandwich_pair(rngs, dim, *_cols(cells), corner=corner), cells)


def _bounded_cells(rngs: list, dim: int, cells: list, corner: bool) -> tuple:
    return (*_bounded_pair(rngs, dim, *_cols(cells), corner=corner), cells)


def _order_cells(rngs: list, dim: int, cells: list, corner: bool) -> tuple:
    """Pairs A <= B with the spectrum of A in [m, M]."""
    A = _spd(rngs, dim, *_cols(cells))
    return A, A + _spd(rngs, dim, 1e-3, [max(1e-2, M - m) for m, M in cells]), cells


def _free_cells(rngs: list, dim: int, cells: list, corner: bool) -> tuple:
    return _spd(rngs, dim, *A_SPECTRUM), _spd(rngs, dim, *A_SPECTRUM), cells


SANDWICH = Cell(("s", "t"), _sorted_st, _sandwich_cells, _sandwich, probe=(0.25, 4.0))
SANDWICH_ST_GE_1 = Cell(("s", "t"), _sorted_st, _sandwich_cells, _sandwich_st_ge_1,
                        probe=(0.25, 4.0), reflect=_st_ge_1)
BOUNDED = Cell(("m", "M"), _spread_mM, _bounded_cells, _bounded, strict=True, probe=(1.0, 4.0))
ORDER = Cell(("m", "M"), _spread_mM, _order_cells, _order)
FREE = Cell((), pair=_free_cells)  # with no bounds, a config always fixes them
ALPHA = Cell(("alpha",), lambda rngs, config: [
    tuple(row) for row in log_uniform_rows(rngs, (1.0, 8.0)).tolist()],
    check=_each("alpha", lambda alpha: _hyp(alpha >= 1.0, f"need alpha >= 1, got {alpha!r}")))
SPECHT = Cell(("m", "M"), lambda rngs, config: [
    (1.0, *row) for row in log_uniform_rows(rngs, (1.0 + 1e-6, 100.0)).tolist()], check=_ordered)
# In the order SuiteConfig checks fixed bounds: (s, t), then 0 < m < M, then 0 < m <= M.
CELLS = (SANDWICH, SANDWICH_ST_GE_1, BOUNDED, ORDER, FREE, ALPHA, SPECHT)


# Building blocks of the sides.

def _fn_of(X: SymStack, fn: list) -> SymStack:
    return matrix_function(X, [f.fn for f in fn])


def _root_st(s: list, t: list) -> list:
    return [math.sqrt(s_k * t_k) for s_k, t_k in zip(s, t)]


def _square(X: SymStack) -> SymStack:
    return matrix_function(X, SQUARE.fn)


def _squared_means(x, fn: list) -> tuple:
    """(f(A) # f(B))^2 and f(A # B)^2."""
    sharp = geometric(x.A, x.B)
    return _square(geometric(_fn_of(x.A, fn), _fn_of(x.B, fn))), _square(_fn_of(sharp, fn))


# x^(1/2), the geometric kernel, and x^(-1/2), each with np.sqrt in its numpy twin
_sqrt = GEOMETRIC.fn
_inv_sqrt = twinned(lambda x: 1.0 / math.sqrt(x), lambda x: 1.0 / np.sqrt(x))


def _klamkin_sides(x) -> tuple:
    """With P = phi(f(A sigma B)), F = phi(f(sqrt(st) A)), G = phi(f(B)) and
    T = P^(-1/2) F P^(-1/2): P^(-1/2) G P^(-1/2) - P^(1/2) F^(-1) P^(1/2), and
    the entries of (T^(1/2) - T^(-1/2))^2."""
    P = x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.f))
    F = x.phi(_fn_of(x.A * _root_st(x.s, x.t), x.f))
    G = x.phi(_fn_of(x.B, x.f))
    p_root = matrix_function(P, _sqrt)
    p_inv_root = matrix_function(P, _inv_sqrt)
    f_inv = spectral_inverse(F)
    lhs = SymStack(p_inv_root.data @ G.data @ p_inv_root.data
                   - p_root.data @ f_inv.data @ p_root.data)
    T = SymStack(p_inv_root.data @ F.data @ p_inv_root.data)
    swing = matrix_function(T, _sqrt) - matrix_function(T, _inv_sqrt)
    return lhs, swing.data @ swing.data


def _link_sides(x) -> tuple:
    """phi(f(A)) tau phi(f(B)), phi(f(sqrt(st) A)) tau phi(f(B)) and phi(f(A sigma B))."""
    fb = x.phi(_fn_of(x.B, x.f))
    left = kernel_mean(x.tau, x.phi(_fn_of(x.A, x.f)), fb)
    middle = kernel_mean(x.tau, x.phi(_fn_of(x.A * _root_st(x.s, x.t), x.f)), fb)
    return left, middle, x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.f))


def _norm_sides(x, lhs_kernel, rhs_kernel) -> tuple:
    """||g(A) k g(B)|| / ||A k B|| with k = lhs_kernel, and ||g(Y)/Y|| with
    Y = A k' B, k' = rhs_kernel, per slice in its norm."""
    num = ui_norm(kernel_mean(lhs_kernel, _fn_of(x.A, x.g), _fn_of(x.B, x.g)), x.norm).tolist()
    den = ui_norm(kernel_mean(lhs_kernel, x.A, x.B), x.norm).tolist()
    target = kernel_mean(rhs_kernel, x.A, x.B)
    base = ui_norm(matrix_function(target, [lambda v, g=g: g.fn(v) / v for g in x.g]), x.norm)
    return np.array([n / d for n, d in zip(num, den)]), base


# The rows, in report order: the 17 checked ids, then the audit family.

ROWS: dict[str, Row] = {}
_KERNELS = (("tau", "kernels", 0), ("sigma", "kernels", 1))
_REVERSAL = _KERNELS + (("f", "monotone_fns", 0),)
_F_MONOTONE, _FN_MONOTONE = _each("f", _vet_monotone), _each("fn", _vet_monotone)
_G_DECREASING, _FN_DECREASING = (_each(name, _vet_class, OPERATOR_MONOTONE_DECREASING)
                                 for name in ("g", "fn"))
_G_CONVEX = _each("g", _vet_vanishing_convex)


def _row(inequality_id: str, statement: str, **fields) -> Row:
    row = ROWS[inequality_id] = Row(inequality_id, statement, **fields)
    return row


_row(
    "ando", "Map-mean exchange: phi(A sigma B) <= phi(A) sigma phi(B).",
    cell=FREE, pool="maps", picks=(("sigma", "kernels", 0),), form=_against_rhs,
    sides=lambda x: (x.phi(kernel_mean(x.sigma, x.A, x.B)),
                     kernel_mean(x.sigma, x.phi(x.A), x.phi(x.B))))

_row(
    "polya-szego",
    "Geometric-mean reversal: phi(A) # phi(B) <= (M+m)/(2 sqrt(Mm)) phi(A # B).",
    cell=BOUNDED, constant=polya_szego_constant, pool="maps",
    sides=lambda x: (geometric(x.phi(x.A), x.phi(x.B)), x.phi(geometric(x.A, x.B))))

_row(
    "kantorovich-f", "Kantorovich-constant reversal with the function outside the map: "
    "f(phi(A)) tau f(phi(B)) <= (M+m)^2/(4Mm) f(phi(A sigma B)).",
    cell=BOUNDED, constant=kantorovich_constant, pool="maps", picks=_REVERSAL,
    vets=(_means, _F_MONOTONE),
    sides=lambda x: (kernel_mean(x.tau, _fn_of(x.phi(x.A), x.f),
                                 _fn_of(x.phi(x.B), x.f)),
                     _fn_of(x.phi(kernel_mean(x.sigma, x.A, x.B)), x.f)))

_SANDWICH_LEMMA = _row(
    "sandwich-lemma", "Two-sided mean comparison under the sandwich condition: "
    "c1 (A nabla B) <= A # B <= c2 (A ! B).",
    cell=SANDWICH, constant=sandwich_lemma_constants,
    form=_two_sided, params={"mode": "matrix"},
    sides=lambda x: (geometric(x.A, x.B), arithmetic(x.A, x.B), harmonic(x.A, x.B)))

_row(
    "alpha-scaling", "Scaling bounds for alpha >= 1: f(alpha t) <= alpha f(t) for monotone "
    "increasing f, and g(alpha t) >= g(t)/alpha for monotone decreasing g.",
    cell=ALPHA, constant=lambda alpha: alpha,
    picks=(("f", "scaling_fns", 0),), form=_scaling,
    vets=(_each("f", _vet_class, OPERATOR_MONOTONE, OPERATOR_MONOTONE_DECREASING),))

_row(
    "main-monotone", "Sandwich-parameterized reversal for monotone increasing f: "
    "phi(f(A)) tau phi(f(B)) <= C(s,t) phi(f(A sigma B)).",
    cell=SANDWICH, constant=sandwich_constant, pool="maps", picks=_REVERSAL,
    vets=(_means, _F_MONOTONE),
    sides=lambda x: (kernel_mean(x.tau, x.phi(_fn_of(x.A, x.f)),
                                 x.phi(_fn_of(x.B, x.f))),
                     x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.f))))

_row(
    "main-decreasing", "Sandwich-parameterized reversal for monotone decreasing g: "
    "phi(g(A tau B)) <= C(s,t) (phi(g(A)) sigma phi(g(B))).",
    cell=SANDWICH, constant=sandwich_constant, pool="maps",
    picks=_KERNELS + (("g", "decreasing_fns", 0),), vets=(_means, _G_DECREASING),
    sides=lambda x: (x.phi(_fn_of(kernel_mean(x.tau, x.A, x.B), x.g)),
                     kernel_mean(x.sigma, x.phi(_fn_of(x.A, x.g)),
                                 x.phi(_fn_of(x.B, x.g)))))

# The Grüss bounds are lhs <= c I on a unital map, where c carries f(M) or g(m);
# their sides are the lhs alone.
_row(
    "gruss-f", "Difference bound: phi(f(A)) tau phi(f(B)) - phi(f(A sigma B)) "
    "<= (M-m)^2/(4Mm) f(M).",
    cell=BOUNDED, constant=gruss_constant, pool="unital_maps",
    picks=_KERNELS + (("fn", "monotone_fns", 0),), vets=(_unital, _means, _FN_MONOTONE),
    carry=lambda x: [f.fn(M) for f, M in zip(x.fn, x.M)], form=_top,
    params={"family": "monotone"},
    sides=lambda x: (kernel_mean(x.tau, x.phi(_fn_of(x.A, x.fn)),
                                 x.phi(_fn_of(x.B, x.fn)))
                     - x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.fn))))

_row(
    "gruss-g", "Difference bound: phi(g(A tau B)) - phi(g(A)) sigma phi(g(B)) "
    "<= (M-m)^2/(4Mm) g(m).",
    cell=BOUNDED, constant=gruss_constant, pool="unital_maps",
    picks=_KERNELS + (("fn", "decreasing_fns", 0),),
    vets=(_unital, _means, _FN_DECREASING),
    carry=lambda x: [g.fn(m) for g, m in zip(x.fn, x.m)], form=_top,
    params={"family": "decreasing"},
    sides=lambda x: (x.phi(_fn_of(kernel_mean(x.tau, x.A, x.B), x.fn))
                     - kernel_mean(x.sigma, x.phi(_fn_of(x.A, x.fn)),
                                   x.phi(_fn_of(x.B, x.fn)))))

_row(
    "squared", "Squaring an operator inequality: A <= B with m I <= A <= M I gives "
    "A^2 <= (M+m)^2/(4Mm) B^2.",
    cell=ORDER, constant=kantorovich_constant,
    sides=lambda x: (_square(x.A), _square(x.B)))

_SQUARED_F = _row(
    "squared-consequence-f", "Squared geometric-mean reversal for monotone f, with "
    "K = (M+m)^2/(4Mm): (f(A) # f(B))^2 <= K^2 f(A # B)^2.",
    cell=BOUNDED, constant=lambda m, M: kantorovich_constant(m, M) ** 2,
    picks=(("f", "monotone_fns", 0),), vets=(_F_MONOTONE,),
    sides=lambda x: _squared_means(x, x.f))

_row(
    "squared-consequence-g", "Squared geometric-mean reversal for decreasing g, with "
    "K = (M+m)^2/(4Mm): g(A # B)^2 <= K^2 (g(A) # g(B))^2.",
    cell=BOUNDED, constant=_SQUARED_F.constant,
    picks=(("g", "decreasing_fns", 0),), vets=(_G_DECREASING,),
    sides=lambda x: _squared_means(x, x.g)[::-1])

_row(
    "midpoint", "Midpoint bound under the sandwich condition: "
    "(sqrt(st) A + B)/2 <= (sqrt(s)+sqrt(t))/2 (A # B).",
    cell=SANDWICH, constant=lambda s, t: 0.5 * (math.sqrt(s) + math.sqrt(t)),
    sides=lambda x: (0.5 * (x.A * _root_st(x.s, x.t) + x.B), geometric(x.A, x.B)))

_row(
    "diaz-metcalf", "Diaz-Metcalf type bound: "
    "phi(f(sqrt(st) A)) tau phi(f(B)) <= C phi(f(A sigma B)).",
    cell=SANDWICH, constant=diaz_metcalf_constant, pool="maps", picks=_REVERSAL,
    vets=(_means, _F_MONOTONE),
    sides=lambda x: (kernel_mean(x.tau, x.phi(_fn_of(x.A * _root_st(x.s, x.t), x.f)),
                                 x.phi(_fn_of(x.B, x.f))),
                     x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.f))))

_row(
    "klamkin-mclenaghan", "Klamkin-McLenaghan type bound, with P = phi(f(A sigma B)), "
    "F = phi(f(sqrt(st) A)), G = phi(f(B)) and T = P^(-1/2) F P^(-1/2): "
    "P^(-1/2) G P^(-1/2) - P^(1/2) F^(-1) P^(1/2) "
    "<= c I - 2 I - (T^(1/2) - T^(-1/2))^2, c twice the Diaz-Metcalf constant.",
    cell=SANDWICH, constant=lambda s, t: 2.0 * diaz_metcalf_constant(s, t),
    pool="maps", picks=(("sigma", "kernels", 0), ("f", "monotone_fns", 0)),
    vets=(_means, _F_MONOTONE), form=_klamkin, sides=_klamkin_sides)

_row(
    "specht-bound", "Arithmetic-geometric comparison via Specht's ratio: "
    "(M+m)/2 <= S(M/m) sqrt(Mm).",
    cell=SPECHT, constant=lambda m, M: specht_ratio(M / m),
    form=_against_rhs,
    sides=lambda x: (np.array([0.5 * (M + m) for m, M in zip(x.m, x.M)]),
                     np.array([math.sqrt(M * m) for m, M in zip(x.m, x.M)])))

# sqrt(st) >= 1 puts sandwich_constant on its s*t >= 1 branch, ((sqrt(s)+sqrt(t))/2)^2.
_row(
    "strengthened-remark", "Two-link strengthening, valid when sqrt(st) >= 1: "
    "phi(f(A)) tau phi(f(B)) <= phi(f(sqrt(st) A)) tau phi(f(B)) "
    "<= ((sqrt(s)+sqrt(t))/2)^2 phi(f(A sigma B)).",
    cell=SANDWICH_ST_GE_1, constant=lambda s, t: sandwich_constant(*_st_ge_1(s, t)),
    pool="maps", picks=_REVERSAL,
    vets=(_means, _F_MONOTONE), form=_links, sides=_link_sides)

# AUDIT: norm-ratio bounds for convex g with g(0) = 0; verdicts may be
# negative, and are recorded, never asserted.
_NORM_PICKS = (("g", "convex_fns", 0), ("norm", "norms", 0))

_row("norm-ratio-tau", "||g(A) tau g(B)||/||A tau B|| <= C(s,t) ||g(Y)/Y||, Y = A # B, "
     "tau >= #.",
     cell=SANDWICH, constant=sandwich_constant, audit=True,
     picks=(("kernel", "tau_ge_sharp", 0),) + _NORM_PICKS,
     vets=(_G_CONVEX, _each("kernel", lambda k: _hyp(
         kernel_dominance(GEOMETRIC, k).holds,
         f"tau_side needs a kernel dominating the geometric one, got {k.id!r}"))),
     params={"mode": "tau_side"}, sides=lambda x: _norm_sides(x, x.kernel, GEOMETRIC))
_row("norm-ratio-sharp", "||g(A) # g(B)||/||A # B|| <= C(s,t) ||g(Y)/Y||, Y = A sigma B, "
     "sigma <= #.",
     cell=SANDWICH, constant=sandwich_constant, audit=True,
     picks=(("kernel", "sigma_le_sharp", 0),) + _NORM_PICKS,
     vets=(_G_CONVEX, _each("kernel", lambda k: _hyp(
         kernel_dominance(k, GEOMETRIC).holds,
         f"sharp_side needs a kernel dominated by the geometric one, got {k.id!r}"))),
     params={"mode": "sharp_side"}, sides=lambda x: _norm_sides(x, GEOMETRIC, x.kernel))
_row("norm-ratio-power4", "||g(A) tau g(B)||/||A tau B|| <= C(s,t)^2 ||g(Y)/Y||, Y = A # B.",
     cell=SANDWICH, constant=lambda s, t: sandwich_constant(s, t) ** 2, audit=True,
     picks=(("kernel", "kernels", 0),) + _NORM_PICKS,
     vets=(_G_CONVEX, _each("kernel", _vet_mean_kernel)),
     params={"mode": "power4"}, sides=lambda x: _norm_sides(x, x.kernel, GEOMETRIC))
_row("norm-ratio-eq15", "||g(A) # g(B)||/||A # B|| <= 2 K^2 ||g(Y)/Y||, Y = A # B, "
     "K = (M+m)/(2 sqrt(Mm)).",
     cell=BOUNDED, constant=lambda m, M: 2.0 * polya_szego_constant(m, M) ** 2,
     audit=True, picks=_NORM_PICKS, vets=(_G_CONVEX,),
     params={"mode": "eq15", "kernel": GEOMETRIC.id,
             "s": lambda x: [m / M for m, M in zip(x.m, x.M)],
             "t": lambda x: [M / m for m, M in zip(x.m, x.M)]},
     sides=lambda x: _norm_sides(x, GEOMETRIC, GEOMETRIC))

ALL_INEQUALITIES = tuple(ROWS)
NON_AUDIT_INEQUALITIES = tuple(i for i, row in ROWS.items() if not row.audit)
AUDIT_INEQUALITIES = tuple(i for i, row in ROWS.items() if row.audit)


# scalarcheck's row: the scalar bounds behind the sandwich lemma, on a grid in
# each cell, with the cell's ordering rule as its one hypothesis.
SCALAR_SANDWICH = replace(_SANDWICH_LEMMA, cell=replace(SANDWICH, pair=None, check=_ordered),
                          form=_scalar_sandwich, params={"mode": "scalar"})
