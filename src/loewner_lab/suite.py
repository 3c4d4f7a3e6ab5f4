"""Randomized verification campaigns, counterexample hunting, tightness
probing, and JSON reporting.

Reports are deterministic functions of their configuration: trial seeds are
derived from the master seed and the trial coordinates, aggregation is
sequential, and timing is kept out of the serialized payload so that two
runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import certificates as certs
from .certificates import ALL_INEQUALITIES, NON_AUDIT_INEQUALITIES, ROWS
from .errors import HypothesisError, LoewnerLabError
from .generate import (
    SplitMix64,
    derive_seed,
    derive_seeds,
    fnv1a64,
    random_orthogonal,
    _box_muller,
    _compose,
    _orthogonal,
    _unit_rows,
)
from .kernels import (
    DEFAULT_CONVEX_SPECS,
    DEFAULT_DECREASING_SPECS,
    DEFAULT_KERNEL_SPECS,
    DEFAULT_MONOTONE_SPECS,
    GEOMETRIC,
    OPERATOR_CONVEX_ZERO,
    OPERATOR_MONOTONE,
    OPERATOR_MONOTONE_DECREASING,
    kernel_dominance,
    parse_function,
    parse_kernel,
)
from .maps import DEFAULT_MAP_SPECS, MAX_DIM, check_unital, parse_map
from .spectral import DEFAULT_NORM_SPECS, LOEWNER_TOL_REL, SymStack, parse_norm

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


def _typed(value, kind, items=None) -> bool:
    """Whether ``value`` is a ``kind`` and, when ``items`` is given, each of
    its items an ``items``; a bool is never taken for a number."""
    return (not isinstance(value, bool) and isinstance(value, kind)
            and (items is None or all(_typed(x, items) for x in value)))


_NUMBER, _OPTIONAL = (int, float), (int, float, type(None))
_COUNT = (int, None, (lambda n: n >= 0, "be an integer >= 0"))
# The ids that name a group of inequalities.
_GROUPS = {"all": ALL_INEQUALITIES, "all-non-audit": NON_AUDIT_INEQUALITIES}


def _functions(klass: str):
    """The parser of a function pool: a function of another class than ``klass`` is refused."""
    return lambda spec, dim, rng: certs._vet_class(parse_function(spec), klass)


# Each spec pool once, by the SuiteConfig field of its specs, in --help's
# order, as (parse, flags, text): parse(spec, dim, rng) is one spec's item at
# the dimension dim, where rng is the dimension's map stream; the CLI flags
# restrict the pool, which their help calls text.  The parsers look up their
# functions when called, so a wrapper set on a module's name sees the call.
SPEC_POOLS = {
    "kernels": (lambda spec, dim, rng: parse_kernel(spec), ("tau", "sigma"), "kernel pool"),
    "monotone_fns": (_functions(OPERATOR_MONOTONE), ("f",), "monotone functions"),
    "decreasing_fns": (_functions(OPERATOR_MONOTONE_DECREASING), ("g",), "decreasing functions"),
    "convex_fns": (_functions(OPERATOR_CONVEX_ZERO), (), "convex functions"),
    "maps": (lambda spec, dim, rng: _with_unitality(parse_map(spec, dim, rng)), ("phi",),
             "map pool"),
    "norms": (lambda spec, dim, rng: parse_norm(spec).fit(dim), ("norm",), "norm pool"),
}

# Each SuiteConfig field once, as (kind, items, *rules): its value is a kind
# (a list is taken as a tuple) whose items, unless items is None, are each an
# items, never a bool; then it passes each rule (test, text).  A refusal reads
# "field <name> must <text>, got <value>", and a value of another type must
# be of the field's annotated type.  A library caller and the config of a
# report (config_from_dict) meet the same checks.
_FIELDS = {
    "inequalities": (tuple, str, (bool, "name at least one inequality id"),
                     (lambda ids: all(i in ROWS or i in _GROUPS for i in ids),
                      "name inequality ids, all or all-non-audit")),
    "dims": (tuple, int, (bool, "name at least one dimension"),
             (lambda dims: all(1 <= d <= MAX_DIM for d in dims), f"stay within [1, {MAX_DIM}]"),
             (lambda dims: len(set(dims)) == len(dims), "name each dimension once")),
    "trials": (int, None, (lambda n: n >= 1, "be >= 1")),
    "seed": (int, None),
    "tol_rel": (_NUMBER, None, (lambda x: 0 <= x < math.inf,  # also refuses nan
                                "be a finite number >= 0")),
    "s": (_OPTIONAL, None),
    "t": (_OPTIONAL, None),
    "sandwich_range": (tuple, _NUMBER, (lambda r: len(r) == 2 and 0 < r[0] <= r[1] < math.inf,
                                        "be two numbers 0 < lo <= hi < inf")),
    "m": (_OPTIONAL, None),
    "M": (_OPTIONAL, None),
    **dict.fromkeys(SPEC_POOLS, (tuple, str)),
    "constant_multiplier": (_NUMBER, None, (lambda x: 0 < x < math.inf, "be a finite number > 0")),
    "max_recorded_violations": _COUNT,
    "probe_refine_steps": _COUNT,
}


@dataclass
class SuiteConfig:
    """Description of a randomized verification campaign; ``_FIELDS`` holds
    each field's checks."""

    inequalities: tuple[str, ...] = NON_AUDIT_INEQUALITIES
    dims: tuple[int, ...] = (2, 3, 4)
    trials: int = 50
    seed: int = 0
    tol_rel: float = LOEWNER_TOL_REL
    # Sandwich scalars: fixed when s/t given, otherwise sampled log-uniformly
    # from sandwich_range (sorted per trial).
    s: float | None = None
    t: float | None = None
    sandwich_range: tuple[float, float] = (0.25, 4.0)
    # Two-sided bounds: fixed when m/M given, otherwise sampled with a
    # moderate spread to keep the means well conditioned.
    m: float | None = None
    M: float | None = None
    kernels: tuple[str, ...] = DEFAULT_KERNEL_SPECS
    monotone_fns: tuple[str, ...] = DEFAULT_MONOTONE_SPECS
    decreasing_fns: tuple[str, ...] = DEFAULT_DECREASING_SPECS
    convex_fns: tuple[str, ...] = DEFAULT_CONVEX_SPECS
    maps: tuple[str, ...] = DEFAULT_MAP_SPECS
    norms: tuple[str, ...] = DEFAULT_NORM_SPECS
    constant_multiplier: float = 1.0
    max_recorded_violations: int = 10
    probe_refine_steps: int = 200

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, (kind, items, *rules) = getattr(self, f.name), _FIELDS[f.name]
            if isinstance(value, list):  # as a report's JSON gives a tuple back
                value = tuple(value)
            if not _typed(value, kind, items):
                raise ValueError(f"field {f.name} must be of type {f.type}, got {value!r}")
            for test, text in rules:
                if not test(value):
                    raise ValueError(f"field {f.name} must {text}, got {value!r}")
            setattr(self, f.name, value)
        self.inequalities = tuple(dict.fromkeys(
            ineq for item in self.inequalities for ineq in _GROUPS.get(item, (item,))))
        for lo, hi in (("s", "t"), ("m", "M")):
            if (getattr(self, lo) is None) != (getattr(self, hi) is None):
                raise ValueError(f"fields {lo}, {hi}: provide both or neither, got "
                                 f"{lo}={getattr(self, lo)!r}, {hi}={getattr(self, hi)!r}")
        # Fixed bounds of the requested cells, by each cell's ordering rule.
        used = {ROWS[ineq].cell for ineq in self.inequalities}
        for cell in certs.CELLS:
            try:
                if cell in used and (fixed := cell.fixed(self)):
                    cell.vet_order([fixed[0]], [fixed[1]])
            except HypothesisError as exc:
                raise ValueError(f"fields {', '.join(cell.bounds)} {exc}") from None
        for ineq in self.inequalities:
            _vet_constant(ineq, self)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _vet_constant(ineq: str, config: SuiteConfig) -> None:
    """Refuse fixed cell bounds at which ``ineq``'s constant is not a finite
    number: the row's constant, which its certificates multiply."""
    row = ROWS[ineq]
    names, values = row.cell.bounds, row.cell.fixed(config)
    if row.constant is None or values is None:
        return
    try:
        ok = all(map(math.isfinite, np.atleast_1d(row.constant(*values))))
    except ArithmeticError:  # a Python float overflow or a division by zero
        ok = False
    if not ok:
        raise ValueError(f"fields {', '.join(names)}: the constant of {ineq} is not a finite "
                         f"number at " + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)))


def config_from_dict(data: dict) -> SuiteConfig:
    """The SuiteConfig of a report's ``config``: a field SuiteConfig lacks is
    refused by name, and every value meets the checks of its field."""
    for name in _object(data, "config"):
        if name not in _FIELDS:
            raise ValueError(f"field config.{name} is not a configuration field")
    return SuiteConfig(**data)


def _with_unitality(phi) -> tuple:
    """``(phi, whether phi is unital)``.  SymStack refuses an image of the
    identity that is not finite, and ``_build_pools`` names the map's spec."""
    with np.errstate(over="ignore"):  # the refusal, not numpy's warning, reports an overflow
        return phi, check_unital(phi).is_unital


def _build_pools(config: SuiteConfig, dim: int, inequalities=()) -> dict:
    """The pools of one dimension, by name, vetted for ``inequalities``
    (``_vet_pools``): each spec pool of the config, parsed in the order of
    ``SPEC_POOLS`` (a refusal names the field and the spec), and the pools
    the rows derive from them (the unital maps, the kernels above and below
    the geometric mean, and alpha-scaling's monotone then decreasing
    functions)."""
    rng = SplitMix64(derive_seed(config.seed, fnv1a64("map-pool"), dim))
    pools: dict = {}
    for name, (parse, *_) in SPEC_POOLS.items():
        pools[name] = []
        for spec in getattr(config, name):
            try:
                pools[name].append(parse(spec, dim, rng))
            except (ValueError, ArithmeticError, LoewnerLabError) as exc:
                raise _in_context(exc, f"field {name}: {spec}") from exc
    kernels, maps = pools["kernels"], pools["maps"]
    pools.update(
        maps=[phi for phi, _ in maps],
        unital_maps=[phi for phi, unital in maps if unital],
        tau_ge_sharp=[k for k in kernels if kernel_dominance(GEOMETRIC, k).holds] or [GEOMETRIC],
        sigma_le_sharp=[k for k in kernels if kernel_dominance(k, GEOMETRIC).holds] or [GEOMETRIC],
        scaling_fns=pools["monotone_fns"] + pools["decreasing_fns"],
    )
    for ineq in inequalities:
        _vet_pools(ineq, pools)
    return pools


def _instance_blob(k: int, **stacks) -> dict:
    """Slice k of each named stack, in the report's form; None names no matrix."""
    return {name: certs.slice_to_json(X, k) for name, X in stacks.items() if X is not None}


def _picked(row: certs.Row, trials: list, pools: dict) -> dict:
    """Each of the row's picks, one per trial of ``trials``."""
    return {name: [items[(trial + offset) % len(items)] for trial in trials]
            for name, pool, offset in row.picks for items in (pools[pool],)}


def _trial_seed(config: SuiteConfig, ineq: str, dim: int, trial: int) -> int:
    return derive_seed(config.seed, fnv1a64(ineq), dim, trial)


# The config fields behind each derived pool that can be empty (the kernels
# above and below the geometric mean fall back to it).
_SOURCES = {"unital_maps": "maps", "scaling_fns": "monotone_fns or decreasing_fns"}


def _vet_pools(ineq: str, pools: dict) -> None:
    """Refuse an empty pool that the row of ``ineq`` reads, by the config
    field or fields behind it, before any trial picks from it."""
    for _, pool, _ in ROWS[ineq].picks:
        if pools[pool]:
            continue
        if pool == "unital_maps" and pools["maps"]:
            raise ValueError(f"field maps: {ineq} needs at least one unital map in the pool")
        raise ValueError(f"field {_SOURCES.get(pool, pool)} must name at least one spec for {ineq}")


def _draw(ineq: str, dim: int, trials, config: SuiteConfig) -> tuple:
    """The stacks ``(A, B, cells)`` of the given trials of one cell.

    The audit family pins its known boundary instance as trial 0, so its
    documented violation is reported (never asserted) by every campaign
    that covers the matching cell.
    """
    rngs = [SplitMix64(x) for x in derive_seeds(config.seed, (fnv1a64(ineq), dim), trials)]
    corner = trials[0] == 0 and ROWS[ineq].audit
    return ROWS[ineq].cell.draw(rngs, dim, config, corner)


# Matrix entries per stack at most (trials times dim^2), which 200 trials of dim 8 and 60 of
# dim 16 fit: larger stacks run little faster per trial and hold more memory.
_STACK_ENTRIES = 2**15


def _chunks(items: list, dim: int) -> list[list]:
    """``items`` in consecutive stacks of nearly equal size, each of at most
    ``_STACK_ENTRIES`` matrix entries of dimension ``dim``."""
    size = max(1, _STACK_ENTRIES // dim**2)
    size = -(-len(items) // -(-len(items) // size))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _stacks(ineq: str, dim: int, trials, pools: dict) -> list[list[int]]:
    """The trials whose maps, their ``phi`` picks, share an output dimension,
    in stacks within ``_STACK_ENTRIES``: maps, kernels, functions and cells
    may vary by slice.  The default pool gives two groups: ``ntrace:1`` maps
    to dimension 1, and every other map keeps the dimension."""
    maps = _picked(ROWS[ineq], trials, pools).get("phi")
    groups: dict = {}
    for k, trial in enumerate(trials):
        groups.setdefault(maps[k].output_dim if maps else dim, []).append(trial)
    return [stack for out_dim, group in groups.items()
            for stack in _chunks(group, max(dim, out_dim))]


def _evaluate_trial(ineq: str, dim: int, trials: list, config: SuiteConfig,
                    pools: dict) -> certs.StackResult:
    """Draw the given trials of one cell, whose maps share an output
    dimension, as one stack and evaluate them on it, each with its own map.

    Catalog entries rotate with the trial index so that ``trials`` at least
    as large as the pool sizes guarantees full coverage.
    """
    A, B, cells = _draw(ineq, dim, trials, config)
    row = ROWS[ineq]
    stack = certs.check_stack(row, A, B, cells, _picked(row, trials, pools),
                              constant_multiplier=config.constant_multiplier,
                              tol_rel=config.tol_rel)
    stack.holds  # solves the verdict columns here, so a failure is raised at its trial
    return stack


def _evaluate_cell(ineq: str, dim: int, config: SuiteConfig, pools: dict) -> list:
    """Every trial's ``(stack, slice)``, in trial order: the cell is drawn and
    evaluated one stack of ``_stacks`` at a time, one per output dimension
    of the maps while it fits ``_STACK_ENTRIES``.

    If a stack raises, the cell is evaluated again trial by trial, so that
    whatever failed is raised at its own trial, after the trials before it,
    with the trial's replayable coordinates.
    """
    out = [None] * config.trials
    try:
        for trials in _stacks(ineq, dim, range(config.trials), pools):
            stack = _evaluate_trial(ineq, dim, trials, config, pools)
            for k, trial in enumerate(trials):
                out[trial] = (stack, k)
        return out
    except Exception:  # re-raised below by the failing trial
        pass
    out = []
    for trial in range(config.trials):
        try:
            out.append((_evaluate_trial(ineq, dim, [trial], config, pools), 0))
        except (LoewnerLabError, ValueError, ArithmeticError) as exc:
            raise _in_context(exc, f"inequality {ineq}, dim {dim}, trial {trial}, trial_seed "
                                   f"{_trial_seed(config, ineq, dim, trial)}") from exc
    return out


def _in_context(exc: Exception, context: str) -> Exception:
    """A copy of ``exc``, its type and attributes kept, whose message is led by ``context``."""
    new = copy.copy(exc)
    new.args = (f"{context}: {exc}",)
    return new


@dataclass
class Report:
    """Machine-readable result of a campaign.

    ``wall_time_s`` is measured but deliberately excluded from the
    serialized payload so reports stay byte-identical across repeat runs.
    """

    config: dict
    results: dict
    audit_results: dict
    probe: dict | None = None
    wall_time_s: float = 0.0

    def to_payload(self) -> dict:
        body = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "config": self.config,
            "results": self.results,
            "audit_results": self.audit_results,
        }
        if self.probe is not None:
            body["probe"] = self.probe
        return {"loewner_lab_report": body}

    @property
    def all_non_audit_hold(self) -> bool:
        return all(stats["violations"] == 0 for stats in self.results.values())

    def to_json(self) -> str:
        return "".join(self._pieces())

    def _pieces(self) -> list:
        """The report's file in consecutive pieces: the text of
        ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
        return _json_pieces(self.to_payload(), []) + ["\n"]


_encode_str = json.encoder.encode_basestring_ascii
# json's spelling of the floats whose repr it does not take.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _json_pieces(value, out: list, pad: str = "\n") -> list:
    """``out`` with the text of ``json.dumps(value, indent=2, sort_keys=True)``
    appended in pieces; ``pad`` is a newline and the indent of value's line.

    Containers are dicts with str keys, lists and tuples, and scalars are
    str, int, float, bool and None (subclasses too, as json takes them);
    anything else raises TypeError.  json's indented encoder is pure Python,
    item by item; this one writes a list of floats, a matrix's entries, in
    one join.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return out
        inner = pad + "  "
        sep = "," + inner
        if set(map(type, value)) == {float}:
            text = sep.join(map(float.__repr__, value))
            if "n" in text:  # a nan or an inf, which json spells NaN or Infinity
                text = sep.join(map(_json_float, value))
            out.append("[" + inner + text + pad + "]")
            return out
        start = "[" + inner
        for item in value:
            out.append(start)
            start = sep
            _json_pieces(item, out, inner)
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return out
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}: {key!r}")
        inner = pad + "  "
        start = "{" + inner
        for key in sorted(value):
            out.append(start + _encode_str(key) + ": ")
            start = "," + inner
            _json_pieces(value[key], out, inner)
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return out


def run_suite(config: SuiteConfig) -> Report:
    """Evaluate every requested certificate on seeded generated instances."""
    start = time.perf_counter()
    results: dict = {}
    audit_results: dict = {}
    pools_by_dim = {dim: _build_pools(config, dim, config.inequalities) for dim in config.dims}
    for ineq in config.inequalities:
        slacks, ratios, violating, holds = [], [], [], 0
        for dim in config.dims:  # one cell's stacks alive at a time
            cell = _evaluate_cell(ineq, dim, config, pools_by_dim[dim])
            for trial, (stack, k) in enumerate(cell):
                trial_slack, trial_ratio = stack.slack[k], stack.ratio[k]
                slacks.append(trial_slack)
                ratios.append(trial_ratio)
                if stack.holds[k]:
                    holds += 1
                elif len(violating) < config.max_recorded_violations:
                    violating.append({
                        "inequality": ineq, "dim": dim, "trial": trial,
                        "trial_seed": _trial_seed(config, ineq, dim, trial),
                        "slack": trial_slack,
                        "ratio": trial_ratio if math.isfinite(trial_ratio) else None,
                        "certificates": stack.to_json(k),
                        "instance": _instance_blob(k, A=stack.A, B=stack.B),
                    })
        # min and max keep the first of equal items, and a nan only where it comes first
        stats = {"trials": len(slacks), "holds_count": holds, "violations": len(slacks) - holds,
                 "min_slack": min(slacks),
                 "max_ratio": max(filter(math.isfinite, ratios), default=None),
                 "violating_instances": violating}
        if ROWS[ineq].audit:
            stats["violation_rate"] = stats["violations"] / stats["trials"]
        (audit_results if ROWS[ineq].audit else results)[ineq] = stats
    return Report(config=config.to_dict(), results=results, audit_results=audit_results,
                  wall_time_s=time.perf_counter() - start)


def hunt_counterexamples(config: SuiteConfig, constant_override: float) -> Report:
    """Re-run a campaign with every constant scaled by a positive multiplier."""
    hunted = dataclasses.replace(config, constant_multiplier=constant_override)
    return run_suite(hunted)


def _moved(inst: tuple, move: tuple, spectra: tuple) -> tuple:
    """The instance ``(q_a, lam_a, q_c, lam_c)`` after one ``_draw_move``
    move, with the eigenvalues of A and of C clipped to their ranges in
    ``spectra``, the cell's; it shares the arrays the move keeps, and is
    ``inst`` itself where the move changes nothing."""
    kind, i, j, x = move
    q_a, lam_a, q_c, lam_c = inst
    if kind < 2:  # shift one eigenvalue, clipped to its range
        lo, hi = spectra[kind]
        old = lam_a if kind == 0 else lam_c
        lam = old.copy()
        lam[i] = min(max(old.item(i) + 0.2 * (hi - lo) * x, lo), hi)
        if lam[i] == old[i]:
            return inst
        lam_a, lam_c = (lam, lam_c) if kind == 0 else (lam_a, lam)
    elif i is None:  # a rotation at dim 1
        return inst
    else:  # rotate one orthogonal factor in the (i, j) plane
        rot = np.eye(q_a.shape[0])
        c, s = math.cos(x), math.sin(x)
        rot[i, i] = c
        rot[j, j] = c
        rot[i, j] = s
        rot[j, i] = -s
        q_a, q_c = (q_a @ rot, q_c) if kind == 2 else (q_a, q_c @ rot)
    return q_a, lam_a, q_c, lam_c


def _draw_move(rng: SplitMix64, dim: int) -> tuple:
    """One hill-climb move ``(kind, i, j, x)``; the draws depend on ``dim`` only.

    Kinds 0 and 1 shift eigenvalue i of A or of C by x times a fifth of the
    width of its spectrum's range; kinds 2 and 3 rotate the factor of A or
    of C by the angle x in the (i, j) plane, which is no move at dim 1 (i
    is None).
    """
    kind = rng.choice_index(4)
    if kind < 2:
        return kind, rng.choice_index(dim), None, rng.normal()
    if dim == 1:
        return kind, None, None, None
    i = rng.choice_index(dim)
    j = (i + 1 + rng.choice_index(dim - 1)) % dim
    return kind, i, j, 0.2 * rng.normal()


def _probe_starts(cell: certs.Cell, dim: int, rng: SplitMix64, lo: float, hi: float,
                  n_random: int):
    """Corner instances (extremal, anti-aligned spectra) plus random starts,
    each the eigen-coordinates ``(q_a, lam_a, q_c, lam_c)`` of one instance,
    with the cell's corner patterns and spectrum ranges at the bounds (lo, hi).

    The random starts are drawn from ``rng`` as one start at a time would
    draw lam_a, lam_c, Q_a and Q_c, and leave it where that would.  A start
    takes 2 dim + 2 dim^2 uniforms, so all are drawn as one run of the
    stream: each start's first 2 dim are its spectra, and the rest of every
    start, in order, are one run of Box-Muller pairs, whose normals are the
    starts' factors, from one QR call.
    """
    (a_range, c_range), eye = cell.spectra(lo, hi), np.eye(dim)
    a_corner, c_corner = (np.array([x[j % 2] for j in range(dim)]) for x in cell.corner(lo, hi))
    q_c = q = random_orthogonal(dim, rng)
    if cell is not certs.BOUNDED:  # probe's own sandwich corner (ROADMAP item 1, PR A)
        a_corner, q_c = np.array([0.5 + 0.25 * (j % 3) for j in range(dim)]), eye
    starts = [(eye, a_corner, eye, c_corner), (q, a_corner, q_c, c_corner)]
    per = 2 * dim + 2 * dim * dim
    u = _unit_rows([rng], n_random * per).reshape(n_random, per)
    lam_a, lam_c = (a + (b - a) * u[:, k * dim:(k + 1) * dim]
                    for k, (a, b) in enumerate((a_range, c_range)))
    z = _box_muller([rng], u[:, 2 * dim:].reshape(1, -1), n_random * (per - 2 * dim))
    factors = _orthogonal(z.reshape(2 * n_random, dim, dim))
    return starts + list(zip(factors[0::2], lam_a, factors[1::2], lam_c))


def _probe_stacks(cell: certs.Cell, insts: list, bounds: tuple) -> tuple:
    """The stacks ``(A, B, cells)`` of the given instances, built as a draw
    builds its pairs: A = Q_a^T diag(lam_a) Q_a, C the same of C's
    coordinates, and (A, B) the cell's pairing of A and C."""
    q_a, lam_a, q_c, lam_c = (np.stack(x) for x in zip(*insts))
    return (*cell.pair(_compose(q_a, lam_a), _compose(q_c, lam_c)), [bounds] * len(insts))


def _probe_ratios(ineq: str, stacks: tuple, pick: int, pools: dict, tol_rel: float):
    """Each instance's ratio, the largest of its certificates', where it is finite, else None."""
    A, B, cells = stacks
    row = ROWS[ineq]
    ratios = certs.check_stack(row, A, B, cells, _picked(row, [pick] * len(cells), pools),
                               tol_rel=tol_rel).ratio
    return [r if math.isfinite(r) else None for r in ratios]


def _probe_evaluate(ineq, stacks, pick, config, pools) -> list:
    """The largest finite ratio of each instance's certificates at ``pick``,
    or None where the check refuses the instance or no ratio is finite;
    ``stacks`` are the instances' ``(A, B, cells)``.

    The stacks are evaluated as they are; if that raises, each slice is
    evaluated alone, in order, to the end.  A stack of one slice was that
    slice alone already: its error is the slice's own.
    """
    A, B, cells = stacks
    try:
        return _probe_ratios(ineq, stacks, pick, pools, config.tol_rel)
    except LoewnerLabError:
        if len(cells) == 1:
            return [None]
    except Exception:  # each slice meets its own error below
        if len(cells) == 1:
            raise
    out = []
    for k in range(len(cells)):
        one = SymStack(A.data[k:k + 1]), SymStack(B.data[k:k + 1]), cells[k:k + 1]
        try:
            out += _probe_ratios(ineq, one, pick, pools, config.tol_rel)
        except LoewnerLabError:
            out.append(None)
    return out


# Moves per refine window: the first window holds 4; one without an accepted
# move doubles the next, up to 64, and an accepted move halves it, down to 5.
_WINDOW_FIRST, _WINDOW_LEAST, _WINDOW_MOST = 4, 5, 64


def _refine(ineq: str, best: tuple, best_ratio: float, pick: int, rng: SplitMix64,
            config: SuiteConfig, pools: dict, bounds: tuple) -> tuple[tuple, float, int]:
    """Hill-climb from the instance ``best`` in the cell ``bounds`` for
    ``config.probe_refine_steps`` moves: returns the best instance, its
    ratio and the number of accepted moves.

    Each move is applied to the best instance so far and accepted when its
    ratio is larger.  A move's draws do not depend on the instance, so all
    are drawn first and the next window of moves is built and evaluated as
    one stack against the current best; the first accepted move in the
    window ends it, and the window after it starts at the next move.  This
    accepts the same moves, with the same ratios, as evaluating one move at
    a time, whatever the windows' sizes (see ``_WINDOW_FIRST``): these only
    trade moves evaluated past an accepted one against stacks evaluated.  A
    move that changes nothing gives the best instance itself, whose ratio,
    ``best_ratio``, is no increase: it is not evaluated.
    """
    moves = [_draw_move(rng, best[1].size) for _ in range(config.probe_refine_steps)]
    cell = ROWS[ineq].cell
    spectra = cell.spectra(*bounds)
    accepted, step, window = 0, 0, _WINDOW_FIRST
    while step < len(moves):
        cands = [_moved(best, move, spectra) for move in moves[step:step + window]]
        fresh = [cand for cand in cands if cand is not best]
        scored = iter(_probe_evaluate(ineq, _probe_stacks(cell, fresh, bounds), pick, config,
                                      pools) if fresh else ())
        ratios = [None if cand is best else next(scored) for cand in cands]
        hit = next((k for k, r in enumerate(ratios) if r is not None and r > best_ratio), None)
        if hit is None:
            step, window = step + len(cands), min(2 * window, _WINDOW_MOST)
        else:
            best, best_ratio = cands[hit], ratios[hit]
            accepted, step = accepted + 1, step + hit + 1
            window = max(window // 2, _WINDOW_LEAST)
    return best, best_ratio, accepted


def probe_tightness(config: SuiteConfig) -> Report:
    """Random search plus coordinate hill-climb for the largest observed
    ratio of the config's one inequality, at its one dimension.

    Perturbs eigenvalues (each clipped to its range in the cell) and
    orthogonal factors, accepting ratio increases, for
    ``probe_refine_steps`` steps (see ``_refine``).
    Constants are taken at multiplier 1.  Only sandwich and bounded cells
    are probed, within the bounds that a draw of the cell takes: a cell that
    reflects its bounds is searched in the reflected ones.
    """
    start = time.perf_counter()
    if len(config.inequalities) != 1:
        raise ValueError(f"field inequalities: probe takes one inequality id, "
                         f"got {config.inequalities}")
    inequality_id, = config.inequalities
    cell = ROWS[inequality_id].cell
    if cell.pair is None:
        raise ValueError(f"{inequality_id!r} has no matrix instances to probe")
    if cell.probe is None:
        raise ValueError(f"probing {inequality_id!r} is not supported")
    bounds = cell.reflect(*(cell.fixed(config) or cell.probe))
    if len(config.dims) != 1:
        raise ValueError(f"field dims: probe takes one dimension, got {config.dims}")
    dim = config.dims[0]
    pools = _build_pools(config, dim, [inequality_id])
    rng = SplitMix64(derive_seed(config.seed, fnv1a64("probe"), fnv1a64(inequality_id), dim))
    # as many picks as the largest spec pool has items, less those repeating an earlier pick's items
    n_picks = max(1, *(len(pools[name]) for name in SPEC_POOLS))
    firsts = {tuple(id(item) for item, in _picked(ROWS[inequality_id], [pick], pools).values()):
              pick for pick in reversed(range(n_picks))}
    starts = _probe_starts(cell, dim, rng, *bounds, config.trials)
    # each chunk is built once, so every pick reads the same solved stacks
    chunks = [_probe_stacks(cell, chunk, bounds) for chunk in _chunks(starts, dim)]
    by_pick = {pick: [ratio for stacks in chunks
                      for ratio in _probe_evaluate(inequality_id, stacks, pick, config, pools)]
               for pick in sorted(firsts.values())}
    # the first largest ratio, start-major and pick-minor, as one start at a time: no repeat wins
    best_ratio, best_inst, best_pick = max(
        ((by_pick[pick][k], inst, pick) for k, inst in enumerate(starts)
         for pick in by_pick if by_pick[pick][k] is not None),
        key=lambda best: best[0], default=(None, None, None))
    if best_inst is None:
        raise LoewnerLabError("probe found no feasible instance")
    best_inst, best_ratio, accepted = _refine(inequality_id, best_inst, best_ratio, best_pick,
                                              rng, config, pools, bounds)
    A, B, _ = _probe_stacks(cell, [best_inst], bounds)
    probe_payload = {
        "inequality": inequality_id,
        "cell": dict(zip(cell.bounds, bounds)),
        "dim": dim,
        "max_ratio": best_ratio,
        "refine_steps": config.probe_refine_steps,
        "accepted_steps": accepted,
        "best_instance": _instance_blob(0, A=A, B=B),
        "pick_index": best_pick,
    }
    return Report(config=config.to_dict(), results={}, audit_results={}, probe=probe_payload,
                  wall_time_s=time.perf_counter() - start)


def write_report(report: Report, path: str) -> None:
    pieces = report._pieces()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(pieces)


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "loewner_lab_report" not in data:
        raise ValueError("field loewner_lab_report is missing")
    body = _object(data["loewner_lab_report"], "loewner_lab_report")
    for name, ours in (("schema_version", SCHEMA_VERSION), ("tool_version", TOOL_VERSION)):
        if body.get(name) != ours:
            raise ValueError(f"field {name}: the report has {body.get(name)!r}, "
                             f"this tool reads {ours!r}")
    return body


def _object(value, field: str) -> dict:
    """``value`` when it is a JSON object; otherwise it is refused by name."""
    if not isinstance(value, dict):
        raise ValueError(f"field {field} must be an object, got {value!r}")
    return value


def _vet_fields(record, types: dict, where: str) -> None:
    """Refuse a field of the JSON object ``record`` that is missing or not of
    its type in ``types`` (never a bool), by name; no other value has fields."""
    for name, kind in types.items():
        value = record.get(name) if isinstance(record, dict) else None
        if not _typed(value, kind):
            raise ValueError(f"field {name} of {where} is missing or of the wrong type: "
                             f"{value!r}")


def collect_violations(report_body: dict) -> list:
    """Flatten recorded violations across all sections, in report order."""
    out = []
    for section in ("results", "audit_results"):
        entries = _object(report_body.get(section, {}), section)
        for ineq in sorted(entries):
            found = _object(entries[ineq], f"{section}.{ineq}").get("violating_instances", [])
            if not isinstance(found, list):
                raise ValueError(f"field {section}.{ineq}.violating_instances must be a list, "
                                 f"got {found!r}")
            out.extend(found)
    return out


def recheck(report_path: str, index: int) -> tuple[bool, dict]:
    """Re-evaluate a recorded violation from its trial coordinates.

    Returns (reproduced, detail): reproduced is True when the re-run still
    violates with the slack recorded in the report.
    """
    body = load_report(report_path)
    violations = collect_violations(body)
    if not violations:
        raise IndexError(f"violation index {index}: the report records no violations")
    if not 0 <= index < len(violations):
        raise IndexError(f"violation index {index} out of range 0..{len(violations) - 1}")
    record = _object(violations[index], f"violation {index}")
    _vet_fields(record, {"inequality": str, "dim": int, "trial": int, "slack": _NUMBER},
                f"violation {index}")
    if "config" not in body:
        raise ValueError("field config is missing from the report")
    config = config_from_dict(body["config"])
    ran = {"inequality": config.inequalities, "dim": config.dims, "trial": range(config.trials)}
    for name, values in ran.items():
        if record[name] not in values:
            raise ValueError(f"field {name} of violation {index} names no {name} the campaign "
                             f"ran: {record[name]!r}")
    pools = _build_pools(config, record["dim"], [record["inequality"]])
    stack = _evaluate_trial(record["inequality"], record["dim"], [record["trial"]], config, pools)
    slack, holds = stack.slack[0], stack.holds[0]
    reproduced = (not holds) and abs(slack - record["slack"]) <= 1e-12 * max(1.0, abs(slack))
    return reproduced, {
        "inequality": record["inequality"],
        "dim": record["dim"],
        "trial": record["trial"],
        "recorded_slack": record["slack"],
        "recomputed_slack": slack,
        "holds": holds,
    }
