"""Every audited inequality, declared once as a row, the hypothesis cells
the rows hold, and the one evaluator that turns a row and a stack of trials
into certificates.

Each statement has the shape lhs <= c * base on a hypothesis cell, with the
constant c a function of the cell's bounds (m, M) or (s, t).  A ``Cell``
holds its bound names, its ordering rule, its draw of a stack of trials, the
check of its hypothesis and probe's default bounds; each cell is one object,
told apart by identity.  A row holds what verify, hunt, probe and recheck
need: its cell and picks, its own hypotheses, the sides and the constant.
``check_stack``, the one entry point to a certificate, checks a stack
once, evaluates a row on it and returns one ``StackResult``, its results
as columns: a certificate is one slice of a ``Sides``, which a report
writes straight from the columns.  Inequality failure is data (``holds``
is False); only *hypothesis* violations raise.

The norm-ratio family is audit-class: verdicts may legitimately be negative
and are reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import HypothesisError, NotUnitalError
from .generate import (
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
    default_grid,
    kernel_dominance,
    mean_kernel_gaps,
    on_grid,
    on_points,
    sandwich_constant,
    specht_ratio,
)
from .maps import apply_each, check_unital
from .means import arithmetic, geometric, harmonic, kernel_mean, spectral_inverse
from .spectral import (
    LOEWNER_TOL_REL,
    SymStack,
    _eye,
    loewner_slack,
    matrix_function,
    op_norm,
    spectrum,
    spectrum_bounds,
    twinned,
    ui_norm,
)


def slice_to_json(side, k: int):
    """Slice k of a stack in the report's form, or entry k of a scalar side."""
    if isinstance(side, SymStack):
        return {"dim": side.dim, "data": side.data[k].ravel().tolist()}
    return float(side[k])


@dataclass(frozen=True, eq=False)
class Sides:
    """One certificate per slice of a stack, as columns.

    ``lhs`` and ``rhs`` are SymStacks for an operator inequality, whose
    slack is lambda_min(rhs - lhs), and float arrays for a scalar one,
    whose slack is rhs - lhs.  ``constant``, ``slack``, ``ratio``, ``tol``
    and ``holds`` are arrays with one entry per slice, and ``params`` maps
    each parameter name to its list of per-slice values.  A slice holds iff
    its slack clears -tol, where tol scales with the magnitudes involved.

    ``lhs``, ``constant`` and ``ratio`` are computed with the Sides; the
    verdict columns, ``rhs``, ``slack``, ``tol``, ``holds`` and ``params``,
    are computed by ``verdict()`` on the first read of any of them.
    """

    inequality_id: str
    lhs: SymStack | np.ndarray
    constant: np.ndarray
    ratio: np.ndarray
    verdict: Callable = field(repr=False)
    _VERDICT = ("rhs", "slack", "tol", "holds", "params")

    def __getattr__(self, name: str):  # only for an attribute not yet set
        if name not in self._VERDICT:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(zip(self._VERDICT, self.verdict()))
        return self.__dict__[name]

    def to_json(self, k: int) -> dict:
        """Slice k's certificate in the report's form; a ratio that is not finite is None."""
        ratio = float(self.ratio[k])
        return {"inequality_id": self.inequality_id,
                "params": {name: col[k] for name, col in self.params.items()},
                "lhs": slice_to_json(self.lhs, k), "rhs": slice_to_json(self.rhs, k),
                "constant": float(self.constant[k]), "slack": float(self.slack[k]),
                "ratio": ratio if math.isfinite(ratio) else None,
                "holds": bool(self.holds[k]), "tol": float(self.tol[k])}


class StackResult:
    """A row evaluated on a stack of trials: one Sides per certificate of a
    trial, the stacks A and B (None for a scalar row), and, as lists, each
    trial's ``ratio``, ``slack`` and ``holds``, the maximum, minimum and
    conjunction over its certificates as Python's max, min and all take
    them (a nan is kept only where it comes first); ``slack`` and
    ``holds`` are computed on their first read."""

    def __init__(self, sides: list, A: SymStack | None, B: SymStack | None):
        self.sides, self.A, self.B = sides, A, B
        ratio = sides[0].ratio
        for more in sides[1:]:
            ratio = np.where(more.ratio > ratio, more.ratio, ratio)
        self.ratio = ratio.tolist()

    @cached_property
    def slack(self) -> list:
        slack = self.sides[0].slack
        for more in self.sides[1:]:
            slack = np.where(more.slack < slack, more.slack, slack)
        return slack.tolist()

    @cached_property
    def holds(self) -> list:
        return np.logical_and.reduce([side.holds for side in self.sides]).tolist()

    def to_json(self, k: int) -> list:
        """Trial k's certificates in the report's form."""
        return [side.to_json(k) for side in self.sides]


@dataclass(frozen=True, eq=False)
class Cell:
    """One hypothesis cell, told apart from the others by identity.

    ``bounds`` names the bounds that the trials' cells hold; two (lo, hi)
    need 0 < lo < hi when ``strict``, else 0 < lo <= hi.  ``sample(rngs,
    config)`` draws each stream's bounds where the config does not fix
    them, and ``reflect(*bounds)`` moves those bounds into the cell (probe's
    too).  A cell with matrices declares its instance once, for the draw
    and for probe, as A = Q_a^T diag(lam_a) Q_a and C the same of C's
    coordinates: ``spectra(*bounds)`` gives the (lo, hi) ranges of lam_a
    and of lam_c, ``corner(*bounds)`` the (x, y) patterns x, y, x, ... of
    A and of C at the commuting boundary instance (None: the cell has
    none), and ``pair(A, C)`` the stacks (A, B) (None: the cell holds no
    matrices); each bound is one number, or one per slice in ``spectra``.
    ``check(x)`` raises for the stack x where a slice breaks the cell's
    hypothesis beyond the ordering rule, which ``check_stack`` runs first
    (None: the cell has no more).
    ``probe`` holds probe's default bounds, or None where probe does not
    search the cell.
    """

    bounds: tuple
    sample: Callable | None = None
    spectra: Callable | None = None
    corner: Callable | None = None
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
        """The stacks ``(A, B, cells)`` of the trial streams ``rngs``, A
        drawn first and then C, each with spectra uniform in its range;
        ``corner`` makes the first trial the commuting boundary instance
        where the cell has one."""
        values = self.fixed(config)
        cells = [self.reflect(*cell) for cell in (
            self.sample(rngs, config) if values is None
            else [tuple(float(v) for v in values)] * len(rngs))]
        if self.pair is None:
            return None, None, cells
        pins = self.corner(*cells[0]) if corner and self.corner else (None, None)
        A, C = (_spd(rngs, dim, *spectrum, pin)
                for spectrum, pin in zip(self.spectra(*_cols(cells)), pins))
        return (*self.pair(A, C), cells)

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
    trials' cells, draws the row's stacks and checks them.  Each of
    ``picks`` is ``(name, pool, offset)``: trial i takes item ``i + offset``
    of the pool, cyclically.  A pool is named by the SuiteConfig field of its
    specs, or by the pool the suite derives from one (``unital_maps``, for
    instance).  A row that takes a map picks it first, as ``phi``, and a
    stack's maps share their output dimension.  ``vets``
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
    holds each trial's cell bounds, and ``picks`` each pick's values, one
    per trial; the sides read ``x.phi(X)``, each slice of X under its own
    map, the pick ``phi``.  The cell's ordering rule (a cell with two
    bounds), its check and then the row's vets run once, at ``tol_rel``,
    each vet once per distinct pick value: a violated hypothesis raises.
    Returns the stack's one result, whose verdict columns are solved on
    their first read, which raises where they cannot be.  A pick the row
    does not read, or one that is missing or not one value per trial, is
    refused first.
    """
    reads = {name for name, *_ in row.picks}
    for name in sorted(reads | set(picks)):
        if name not in reads:
            raise ValueError(f"pick {name} of {row.id}: the row does not read it")
        if name not in picks or len(picks[name]) != len(cells):
            raise ValueError(f"pick {name} of {row.id}: {len(picks.get(name, ()))} values "
                             f"for {len(cells)} trials")
    cell = row.cell
    x = SimpleNamespace(**{"A": A, "B": B, "n": len(cells),
                           "mult": constant_multiplier, "tol_rel": tol_rel,
                           **dict(zip(cell.bounds, _cols(cells))), **picks})
    if "phi" in picks:
        x.map, x.phi = x.phi, partial(apply_each, x.phi)
    if len(cell.bounds) == 2:
        cell.vet_order(*(getattr(x, name) for name in cell.bounds))
    for vet in (cell.check, *row.vets) if cell.check else row.vets:
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


def _columns(row: Row, x, lhs, rhs, c, ratio, slack=None, **params) -> Sides:
    """The Sides of lhs <= rhs, one slice per trial; ``params`` adds per-slice
    columns.  ``rhs`` may be a function that makes it, and ``slack(lhs, rhs)``
    may give the slack, the tolerance's scale and more columns: each is
    called on the first read of a verdict column."""
    def verdict() -> tuple:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf, as in floats
            right = rhs() if callable(rhs) else rhs
            if slack is not None:
                low, scale, more = slack(lhs, right)
            elif isinstance(lhs, SymStack):
                low, scale, more = loewner_slack(lhs, right), op_norm(lhs) + op_norm(right), {}
            else:
                low, scale, more = right - lhs, np.abs(lhs) + np.abs(right), {}
        tol = x.tol_rel * np.fmax(1.0, scale)  # fmax reads a nan scale as 1.0, as max() does
        picked = ["map" if name == "phi" else name for name, *_ in row.picks]  # phi is column map
        cols = {name: [v.label if hasattr(v, "label") else v.id for v in getattr(x, name)]
                for name in picked}
        cols.update((name, getattr(x, name)) for name in row.cell.bounds)
        for name, value in row.params.items():
            cols[name] = value(x) if callable(value) else [value] * x.n
        if row.cell.pair is not None:  # the dimension of the matrices the cell holds
            cols["dim"] = [x.A.dim] * x.n
        cols.update(params, **more)
        return right, low, tol, low >= -tol, cols
    return Sides(row.id, lhs, np.asarray(c, dtype=float), np.asarray(ratio, dtype=float), verdict)


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
    if not against_rhs:
        return [_columns(row, x, lhs, lambda: base * np.asarray(c), c, _ratio(lhs, base))]
    with np.errstate(over="ignore"):  # an overflow gives inf, as in floats
        rhs = base * np.asarray(c)
    return [_columns(row, x, lhs, rhs, c, _ratio(lhs, rhs))]


_against_rhs = partial(_plain, against_rhs=True)


def _top(row: Row, x) -> list[Sides]:
    """lhs <= c * I (the base is the identity), with the ratio of lambda_max(lhs) to c."""
    lhs = row.sides(x)
    c = _constants(row, x)
    top, cs = spectrum(lhs)[:, -1], np.asarray(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cs > 0, top / cs, np.where(np.abs(top) < 1e-300, 1.0, math.inf))
    eye = partial(SymStack, np.broadcast_to(_eye(lhs.dim), lhs.data.shape))
    return [_columns(row, x, lhs, lambda: eye() * c, c, ratio)]


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
            _columns(row, x, sharp, lambda: harm * c2, c2, _ratio(sharp, harm),
                     side=["harmonic_upper"] * x.n)]


def _links(row: Row, x) -> list[Sides]:
    """left <= middle <= c * base: the slack is the smaller link's, and the
    ratio is of left to base."""
    left, middle, base = row.sides(x)
    c = _constants(row, x)

    def slack(left, rhs) -> tuple:
        link1, link2 = loewner_slack(left, middle), loewner_slack(middle, rhs)
        return (np.where(link2 < link1, link2, link1),
                op_norm(left) + op_norm(middle) + op_norm(rhs),
                {"slack_link1": link1.tolist(), "slack_link2": link2.tolist()})
    return [_columns(row, x, left, lambda: base * c, c, _ratio(left, base), slack=slack)]


def _scaling(row: Row, x) -> list[Sides]:
    """f(alpha t) <= alpha f(t) for increasing f, and g(t)/alpha <= g(alpha t)
    for decreasing g, each at the worst point of ``default_grid()``."""
    c = _constants(row, x)
    points = default_grid()
    f_t = np.array([on_grid(fn) for fn in x.f])  # (trials, points), as is f(alpha t)
    alpha = np.array(x.alpha, dtype=float)[:, None]
    f_alpha_t = on_points(x.f, alpha * points)
    up = np.array([fn.klass == OPERATOR_MONOTONE for fn in x.f])[:, None]
    lhs, rhs = np.where(up, f_alpha_t, f_t), np.where(up, f_t, f_alpha_t)
    del f_t, f_alpha_t  # a block each: hold no more blocks at once than the bound needs
    lhs /= np.where(up, 1.0, alpha)  # each row takes its own factors: no other product overflows
    rhs *= np.where(up, np.array(c)[:, None], x.mult)
    worst_t, lhs, rhs, ratio = _worst_on_grid(np.broadcast_to(points, lhs.shape), lhs, rhs)
    return [_columns(row, x, lhs, rhs, c, ratio,
                     grid_points=[len(points)] * x.n, worst_t=worst_t.tolist())]


# The number of points of the scalar sandwich's grid in [s, t].
_SANDWICH_GRID_POINTS = 200


def _scalar_sandwich(row: Row, x) -> list[Sides]:
    """The scalar bounds (x+1)/2 <= c2 sqrt(x) and (1/x+1)/2 <= c2/sqrt(x)
    behind the sandwich lemma, at the worst point of a grid in [s, t]."""
    c2 = [c_k[1] for c_k in _constants(row, x)]
    v = np.geomspace(x.s, x.t, _SANDWICH_GRID_POINTS, axis=1)
    root, c2_col = np.sqrt(v), np.array(c2)[:, None]
    with np.errstate(over="ignore"):  # an overflow gives inf, as in floats
        # the two bounds at each point, interleaved: point k is columns 2k and 2k + 1
        lhs, rhs = (np.stack(pair, axis=2).reshape(x.n, -1) for pair in (
            (0.5 * (v + 1.0), 0.5 * (1.0 / v + 1.0)), (c2_col * root, c2_col / root)))
    worst_x, lhs, rhs, ratio = _worst_on_grid(np.repeat(v, 2, axis=1), lhs, rhs)
    return [_columns(row, x, lhs, rhs, c2, ratio,
                     grid_points=[_SANDWICH_GRID_POINTS] * x.n, worst_x=worst_x.tolist())]


def _worst_on_grid(points: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """(point, lhs, rhs, largest ratio) of each row, as one array each, at
    the row's first smallest rhs - lhs of a scalar bound checked at each of
    the row's ``points`` (a point may repeat); a row with no slack below
    +inf reads its first point and zero sides."""
    # fmax reads a nan ratio as never the largest, and a nan maximum as 0.0, as max() does
    ratio = np.fmax(0.0, np.fmax.reduce(_norm_ratio_diag(lhs, rhs), axis=1))
    slack = rhs - lhs
    at = (np.arange(len(slack)), slack.argmin(axis=1))  # a nan slack is the worst
    none = slack[at] == math.inf
    return (np.where(none, points[:, 0], points[at]), np.where(none, 0.0, lhs[at]),
            np.where(none, 0.0, rhs[at]), ratio)


# Hypotheses.  The per-slice checks raise HypothesisError themselves rather
# than through _hyp, so that a message is formatted only for a slice that fails.

def _hyp(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisError(message)


def _vet_mean_kernel(kernel: MonotoneFunction) -> None:
    lower, upper = mean_kernel_gaps(kernel)
    _hyp(
        lower >= -1e-12 and upper >= -1e-12,
        f"kernel {kernel.id!r} is not between the harmonic and arithmetic kernels "
        f"(margins {lower:.3e}, {upper:.3e})",
    )


def _vet_nonnegative(fn: MonotoneFunction) -> None:
    worst = on_grid(fn).min()  # a nan is the minimum, and is refused
    _hyp(worst >= -1e-12, f"function {fn.id!r} must be nonnegative on (0, inf)")


def _vet_class(fn: MonotoneFunction, *classes: str) -> MonotoneFunction:
    if fn.klass not in classes:
        raise HypothesisError(
            f"function {fn.id!r} has class {fn.klass!r}, expected one of {classes}")
    return fn


def _vet_unital(phi) -> None:
    """phi(I) = I: the scalar bound on the right of a Grüss bound presumes it."""
    verdict = check_unital(phi)
    if not verdict.is_unital:
        raise NotUnitalError(f"map {phi.label!r} is not unital (||phi(I) - I||_op = "
                             f"{verdict.deviation:.3e}); the scalar bound needs phi(I) = I")


# The cells' checks and the rows' vets, each a check of the stack x.  A cell's
# check calls _vet_sandwich and _vet_bounded by name, so a wrapper set on the
# names sees it.

def _vet_sandwich(x) -> None:
    SandwichPair(x.A, x.B, x.s, x.t).verify(x.tol_rel)


def _vet_bounded(x) -> None:
    BoundedPair(x.A, x.B, x.m, x.M).verify(x.tol_rel)


def _sandwich_st_ge_1(x) -> None:
    for s, t in zip(x.s, x.t):
        if not math.sqrt(s * t) >= 1.0:
            raise HypothesisError(f"refused: needs sqrt(s*t) >= 1, got s={s!r}, t={t!r}")
    _vet_sandwich(x)


def _order(x) -> None:
    """A <= B up to the tolerance, and the spectrum of A within [m, M]."""
    with np.errstate(over="ignore"):  # the largest absolute eigenvalues of A and B
        scale = sum(np.abs(spectrum_bounds(X)).max(axis=0) for X in (x.A, x.B)).tolist()
    for slack, sc in zip(loewner_slack(x.A, x.B).tolist(), scale):
        if not slack >= -max(1e-12, x.tol_rel * max(1.0, sc)):
            raise HypothesisError(f"order hypothesis A <= B fails (slack {slack:.3e})")
    verify_spectrum("A", x.A, x.m, x.M, x.tol_rel)


def _each(name: str, check: Callable, *args) -> Callable:
    """The vet that calls ``check(value, *args)`` once on each distinct value
    of ``name``, told apart by identity, in the order of the slices."""
    def vet(x) -> None:
        for value in {id(v): v for v in getattr(x, name)}.values():
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


# The spectrum range of A in a sandwich cell and of A and C in the free cell.  A cell's
# draw calls _spd, and its pairing _sandwich_pair or _bounded_pair, by name, so a
# wrapper set on the names sees it.
A_SPECTRUM = (0.25, 4.0)
SANDWICH = Cell(("s", "t"), _sorted_st, spectra=lambda s, t: (A_SPECTRUM, (s, t)),
                corner=lambda s, t: ((1.0, 4.0), (t, s)),
                pair=lambda A, C: _sandwich_pair(A, C), check=lambda x: _vet_sandwich(x),
                probe=(0.25, 4.0))
SANDWICH_ST_GE_1 = replace(SANDWICH, check=_sandwich_st_ge_1, reflect=_st_ge_1)
BOUNDED = Cell(("m", "M"), _spread_mM, spectra=lambda m, M: ((m, M), (m, M)),
               corner=lambda m, M: ((m, M), (M, m)),
               pair=lambda A, C: _bounded_pair(A, C), check=lambda x: _vet_bounded(x),
               strict=True, probe=(1.0, 4.0))
ORDER = Cell(("m", "M"), _spread_mM,  # A <= B = A + C
             spectra=lambda m, M: ((m, M), (1e-3, np.maximum(1e-2, np.subtract(M, m)))),
             pair=lambda A, C: (A, A + C), check=_order)
FREE = Cell((), spectra=lambda: (A_SPECTRUM, A_SPECTRUM),  # no bounds: a config fixes them
            pair=lambda A, C: _bounded_pair(A, C))
ALPHA = Cell(("alpha",), lambda rngs, config: [
    tuple(row) for row in log_uniform_rows(rngs, (1.0, 8.0)).tolist()],
    check=_each("alpha", lambda alpha: _hyp(alpha >= 1.0, f"need alpha >= 1, got {alpha!r}")))
SPECHT = Cell(("m", "M"), lambda rngs, config: [
    (1.0, *row) for row in log_uniform_rows(rngs, (1.0 + 1e-6, 100.0)).tolist()])
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
    # one quotient per distinct g, which matrix_function applies once to its slices
    quotient = {id(g): lambda v, g=g: g.fn(v) / v for g in x.g}
    base = ui_norm(matrix_function(target, [quotient[id(g)] for g in x.g]), x.norm)
    return np.array([n / d for n, d in zip(num, den)]), base


# The rows, in report order: the 17 checked ids, then the audit family.

ROWS: dict[str, Row] = {}
_MAP, _UNITAL_MAP = ("phi", "maps", 0), ("phi", "unital_maps", 0)
_KERNELS = (("tau", "kernels", 0), ("sigma", "kernels", 1))
_REVERSAL = (_MAP, *_KERNELS, ("f", "monotone_fns", 0))
_F_MONOTONE, _FN_MONOTONE = _each("f", _vet_monotone), _each("fn", _vet_monotone)
_G_DECREASING, _FN_DECREASING = (_each(name, _vet_class, OPERATOR_MONOTONE_DECREASING)
                                 for name in ("g", "fn"))
_G_CONVEX = _each("g", _vet_vanishing_convex)
_UNITAL = _each("map", _vet_unital)
_MEANS = tuple(_each(name, _vet_mean_kernel) for name in ("tau", "sigma"))


def _row(inequality_id: str, statement: str, **fields) -> Row:
    row = ROWS[inequality_id] = Row(inequality_id, statement, **fields)
    return row


_row(
    "ando", "Map-mean exchange: phi(A sigma B) <= phi(A) sigma phi(B).",
    cell=FREE, picks=(_MAP, ("sigma", "kernels", 0)), form=_against_rhs,
    sides=lambda x: (x.phi(kernel_mean(x.sigma, x.A, x.B)),
                     kernel_mean(x.sigma, x.phi(x.A), x.phi(x.B))))

_row(
    "polya-szego",
    "Geometric-mean reversal: phi(A) # phi(B) <= (M+m)/(2 sqrt(Mm)) phi(A # B).",
    cell=BOUNDED, constant=polya_szego_constant, picks=(_MAP,),
    sides=lambda x: (geometric(x.phi(x.A), x.phi(x.B)), x.phi(geometric(x.A, x.B))))

_row(
    "kantorovich-f", "Kantorovich-constant reversal with the function outside the map: "
    "f(phi(A)) tau f(phi(B)) <= (M+m)^2/(4Mm) f(phi(A sigma B)).",
    cell=BOUNDED, constant=kantorovich_constant, picks=_REVERSAL,
    vets=(*_MEANS, _F_MONOTONE),
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
    cell=SANDWICH, constant=sandwich_constant, picks=_REVERSAL,
    vets=(*_MEANS, _F_MONOTONE),
    sides=lambda x: (kernel_mean(x.tau, x.phi(_fn_of(x.A, x.f)),
                                 x.phi(_fn_of(x.B, x.f))),
                     x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.f))))

_row(
    "main-decreasing", "Sandwich-parameterized reversal for monotone decreasing g: "
    "phi(g(A tau B)) <= C(s,t) (phi(g(A)) sigma phi(g(B))).",
    cell=SANDWICH, constant=sandwich_constant,
    picks=(_MAP, *_KERNELS, ("g", "decreasing_fns", 0)), vets=(*_MEANS, _G_DECREASING),
    sides=lambda x: (x.phi(_fn_of(kernel_mean(x.tau, x.A, x.B), x.g)),
                     kernel_mean(x.sigma, x.phi(_fn_of(x.A, x.g)),
                                 x.phi(_fn_of(x.B, x.g)))))

# The Grüss bounds are lhs <= c I on a unital map, where c carries f(M) or g(m);
# their sides are the lhs alone.
_row(
    "gruss-f", "Difference bound: phi(f(A)) tau phi(f(B)) - phi(f(A sigma B)) "
    "<= (M-m)^2/(4Mm) f(M).",
    cell=BOUNDED, constant=gruss_constant,
    picks=(_UNITAL_MAP, *_KERNELS, ("fn", "monotone_fns", 0)),
    vets=(_UNITAL, *_MEANS, _FN_MONOTONE),
    carry=lambda x: [f.fn(M) for f, M in zip(x.fn, x.M)], form=_top,
    params={"family": "monotone"},
    sides=lambda x: (kernel_mean(x.tau, x.phi(_fn_of(x.A, x.fn)),
                                 x.phi(_fn_of(x.B, x.fn)))
                     - x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.fn))))

_row(
    "gruss-g", "Difference bound: phi(g(A tau B)) - phi(g(A)) sigma phi(g(B)) "
    "<= (M-m)^2/(4Mm) g(m).",
    cell=BOUNDED, constant=gruss_constant,
    picks=(_UNITAL_MAP, *_KERNELS, ("fn", "decreasing_fns", 0)),
    vets=(_UNITAL, *_MEANS, _FN_DECREASING),
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
    cell=SANDWICH, constant=diaz_metcalf_constant, picks=_REVERSAL,
    vets=(*_MEANS, _F_MONOTONE),
    sides=lambda x: (kernel_mean(x.tau, x.phi(_fn_of(x.A * _root_st(x.s, x.t), x.f)),
                                 x.phi(_fn_of(x.B, x.f))),
                     x.phi(_fn_of(kernel_mean(x.sigma, x.A, x.B), x.f))))

_row(
    "klamkin-mclenaghan", "Klamkin-McLenaghan type bound, with P = phi(f(A sigma B)), "
    "F = phi(f(sqrt(st) A)), G = phi(f(B)) and T = P^(-1/2) F P^(-1/2): "
    "P^(-1/2) G P^(-1/2) - P^(1/2) F^(-1) P^(1/2) "
    "<= c I - 2 I - (T^(1/2) - T^(-1/2))^2, c twice the Diaz-Metcalf constant.",
    cell=SANDWICH, constant=lambda s, t: 2.0 * diaz_metcalf_constant(s, t),
    picks=(_MAP, ("sigma", "kernels", 0), ("f", "monotone_fns", 0)),
    vets=(_each("sigma", _vet_mean_kernel), _F_MONOTONE), form=_klamkin, sides=_klamkin_sides)

_row(
    "specht-bound", "Arithmetic-geometric comparison via Specht's ratio: "
    "(M+m)/2 <= S(M/m) sqrt(Mm).",
    cell=SPECHT, constant=lambda m, M: specht_ratio(M / m),
    form=_against_rhs,
    sides=np.errstate(over="ignore")(  # an overflow gives inf, as in floats
        lambda x: (0.5 * np.add(x.M, x.m), np.sqrt(np.multiply(x.M, x.m)))))

# sqrt(st) >= 1 puts sandwich_constant on its s*t >= 1 branch, ((sqrt(s)+sqrt(t))/2)^2.
_row(
    "strengthened-remark", "Two-link strengthening, valid when sqrt(st) >= 1: "
    "phi(f(A)) tau phi(f(B)) <= phi(f(sqrt(st) A)) tau phi(f(B)) "
    "<= ((sqrt(s)+sqrt(t))/2)^2 phi(f(A sigma B)).",
    cell=SANDWICH_ST_GE_1, constant=lambda s, t: sandwich_constant(*_st_ge_1(s, t)),
    picks=_REVERSAL, vets=(*_MEANS, _F_MONOTONE), form=_links, sides=_link_sides)

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
SCALAR_SANDWICH = replace(_SANDWICH_LEMMA, cell=replace(SANDWICH, pair=None, check=None),
                          form=_scalar_sandwich, params={"mode": "scalar"})
