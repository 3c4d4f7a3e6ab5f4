"""Randomized verification campaigns, counterexample hunting, tightness
probing, and JSON reporting.

Reports are deterministic functions of their configuration: trial seeds are
derived from the master seed and the trial coordinates, aggregation is
sequential, and timing is kept out of the serialized payload so that two
runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import certificates as certs
from .certificates import (
    ALL_INEQUALITIES,
    AUDIT_INEQUALITIES,
    NON_AUDIT_INEQUALITIES,
    Certificate,
)
from .errors import LoewnerLabError
from .generate import (
    SplitMix64,
    derive_seed,
    fnv1a64,
    random_orthogonal,
    _bounded_pair,
    _sandwich_pair,
    _spd,
)
from .kernels import kernel_dominance, parse_function, parse_kernel, GEOMETRIC
from .maps import DEFAULT_MAP_SPECS, check_unital, parse_map
from .spectral import SymMatrix, decompose, parse_norm, sym_entries

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

_DEFAULT_KERNELS = ("arithmetic", "geometric", "harmonic", "logarithmic", "heinz:0.25")
_DEFAULT_MONOTONE = ("power:0.5", "power:1", "log1p", "rational:1")
_DEFAULT_DECREASING = ("inv_power:1", "inv_power:0.5", "shifted_inverse:1")
_DEFAULT_CONVEX = ("square", "power:1.5")
_DEFAULT_NORMS = ("operator", "trace", "frobenius", "kyfan:2", "schatten:3")


@dataclass
class SuiteConfig:
    """Description of a randomized verification campaign."""

    inequalities: tuple = NON_AUDIT_INEQUALITIES
    dims: tuple = (2, 3, 4)
    trials: int = 50
    seed: int = 0
    tol_rel: float = 1e-9
    # Sandwich scalars: fixed when s/t given, otherwise sampled log-uniformly
    # from sandwich_range (sorted per trial).
    s: float | None = None
    t: float | None = None
    sandwich_range: tuple = (0.25, 4.0)
    # Two-sided bounds: fixed when m/M given, otherwise sampled with a
    # moderate spread to keep the means well conditioned.
    m: float | None = None
    M: float | None = None
    kernels: tuple = _DEFAULT_KERNELS
    monotone_fns: tuple = _DEFAULT_MONOTONE
    decreasing_fns: tuple = _DEFAULT_DECREASING
    convex_fns: tuple = _DEFAULT_CONVEX
    maps: tuple = DEFAULT_MAP_SPECS
    norms: tuple = _DEFAULT_NORMS
    constant_multiplier: float = 1.0
    max_recorded_violations: int = 10
    probe_refine_steps: int = 200

    def __post_init__(self):
        self.inequalities = _resolve_inequalities(self.inequalities)
        self.dims = tuple(int(d) for d in self.dims)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(d < 1 or d > 16 for d in self.dims):
            raise ValueError("dims must stay within [1, 16]")
        if self.constant_multiplier <= 0:
            raise ValueError("constant multiplier must be positive")
        if (self.s is None) != (self.t is None):
            raise ValueError("provide both s and t, or neither")
        if (self.m is None) != (self.M is None):
            raise ValueError("provide both m and M, or neither")
        cells = {INEQUALITIES[ineq].cell for ineq in self.inequalities}
        if "sandwich" in cells and self.s is not None and not 0 < self.s <= self.t:
            raise ValueError(f"fields s, t need 0 < s <= t, got s={self.s!r}, t={self.t!r}")
        if "bounded" in cells and self.m is not None and not 0 < self.m < self.M:
            raise ValueError(f"fields m, M need 0 < m < M, got m={self.m!r}, M={self.M!r}")
        # squared's order cell and specht-bound's scalar cell allow m == M.
        if ("order" in cells or "specht-bound" in self.inequalities) and self.m is not None \
                and not 0 < self.m <= self.M:
            raise ValueError(f"fields m, M need 0 < m <= M, got m={self.m!r}, M={self.M!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _resolve_inequalities(spec) -> tuple:
    if isinstance(spec, str):
        spec = (spec,)
    out: list[str] = []
    for item in spec:
        if item == "all":
            out.extend(ALL_INEQUALITIES)
        elif item == "all-non-audit":
            out.extend(NON_AUDIT_INEQUALITIES)
        elif item in ALL_INEQUALITIES:
            out.append(item)
        else:
            raise ValueError(f"unknown inequality id {item!r}")
    return tuple(dict.fromkeys(out))


def config_from_dict(data: dict) -> SuiteConfig:
    # JSON lists come back from the config's tuple fields only.
    return SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


@dataclass
class _DimPools:
    maps: list
    unital_maps: list
    kernels: list
    tau_ge_sharp: list
    sigma_le_sharp: list
    f_monotone: list
    g_decreasing: list
    g_convex: list
    norms: list


def _build_pools(config: SuiteConfig, dim: int) -> _DimPools:
    rng = SplitMix64(derive_seed(config.seed, fnv1a64("map-pool"), dim))
    maps = [parse_map(spec, dim, rng) for spec in config.maps]
    unital = [mp for mp in maps if check_unital(mp).is_unital]
    kernels = [parse_kernel(spec) for spec in config.kernels]
    tau_ge = [k for k in kernels if kernel_dominance(GEOMETRIC, k).holds]
    sigma_le = [k for k in kernels if kernel_dominance(k, GEOMETRIC).holds]
    norms = []
    for spec in config.norms:
        kind = parse_norm(spec)
        if kind.variant == "kyfan" and int(kind.param) > dim:
            kind = parse_norm(f"kyfan:{dim}")
        norms.append(kind)
    return _DimPools(
        maps=maps,
        unital_maps=unital,
        kernels=kernels,
        tau_ge_sharp=tau_ge or [GEOMETRIC],
        sigma_le_sharp=sigma_le or [GEOMETRIC],
        f_monotone=[parse_function(spec) for spec in config.monotone_fns],
        g_decreasing=[parse_function(spec) for spec in config.decreasing_fns],
        g_convex=[parse_function(spec) for spec in config.convex_fns],
        norms=norms,
    )


def _pick(pool, index: int):
    return pool[index % len(pool)]


def _sample_st(rng: SplitMix64, config: SuiteConfig, force_st_ge_1: bool = False):
    if config.s is not None and config.t is not None:
        s, t = float(config.s), float(config.t)
    else:
        lo, hi = config.sandwich_range
        a = rng.log_uniform(lo, hi)
        b = rng.log_uniform(lo, hi)
        s, t = (a, b) if a <= b else (b, a)
    if force_st_ge_1 and s * t < 1.0:
        s, t = 1.0 / t, 1.0 / s
    return s, t


def _sample_mM(rng: SplitMix64, config: SuiteConfig):
    if config.m is not None and config.M is not None:
        return float(config.m), float(config.M)
    m = rng.log_uniform(0.5, 2.0)
    return m, m * rng.log_uniform(1.5, 8.0)


def _instance_blob(**matrices) -> dict:
    return {name: {"dim": mat.dim, "data": mat.data.ravel().tolist()}
            for name, mat in matrices.items() if mat is not None}


def _draw_sandwich(rngs: list, dim: int, config: SuiteConfig, corner: bool,
                   force_st_ge_1: bool = False):
    cells = [_sample_st(rng, config, force_st_ge_1) for rng in rngs]
    out = []
    if corner:  # commuting boundary instance: anti-aligned spectra hitting s and t
        s, t = cells[0]
        a_diag = [1.0 if j % 2 == 0 else 4.0 for j in range(dim)]
        c_diag = [t if j % 2 == 0 else s for j in range(dim)]
        B = SymMatrix(np.diag([a * c for a, c in zip(a_diag, c_diag)]))
        out.append((SymMatrix(np.diag(a_diag)), B, (s, t)))
    rest = cells[len(out):]
    pairs = _sandwich_pair(rngs[len(out):], dim, [s for s, _ in rest], [t for _, t in rest])
    return out + [(pair.A, pair.B, cell) for pair, cell in zip(pairs, rest)]


def _draw_sandwich_st_ge_1(rngs: list, dim: int, config: SuiteConfig, corner: bool):
    """Sandwich draw reflected into s*t >= 1, the strengthened remark's hypothesis."""
    return _draw_sandwich(rngs, dim, config, corner, force_st_ge_1=True)


def _draw_bounded(rngs: list, dim: int, config: SuiteConfig, corner: bool):
    cells = [_sample_mM(rng, config) for rng in rngs]
    out = []
    if corner:
        m, M = cells[0]
        A = SymMatrix(np.diag([m if j % 2 == 0 else M for j in range(dim)]))
        out.append((A, SymMatrix(np.diag([M if j % 2 == 0 else m for j in range(dim)])), (m, M)))
    rest = cells[len(out):]
    pairs = _bounded_pair(rngs[len(out):], dim, [m for m, _ in rest], [M for _, M in rest])
    return out + [(pair.A, pair.B, cell) for pair, cell in zip(pairs, rest)]


def _draw_order(rngs: list, dim: int, config: SuiteConfig, corner: bool):
    """Pairs A <= B with the spectrum of A in [m, M]."""
    cells = [_sample_mM(rng, config) for rng in rngs]
    a = _spd(rngs, dim, [m for m, _ in cells], [M for _, M in cells])
    b = sym_entries(a + _spd(rngs, dim, 1e-3, [max(1e-2, M - m) for m, M in cells]))
    return list(zip(SymMatrix.stack(a), SymMatrix.stack(b), cells))


def _draw_free(rngs: list, dim: int, config: SuiteConfig, corner: bool):
    a, b = _spd(rngs, dim, 0.25, 4.0), _spd(rngs, dim, 0.25, 4.0)
    return [(A, B, ()) for A, B in zip(SymMatrix.stack(a), SymMatrix.stack(b))]


def _draw_alpha(rngs: list, dim: int, config: SuiteConfig, corner: bool):
    return [(None, None, (rng.log_uniform(1.0, 8.0),)) for rng in rngs]


def _draw_specht(rngs: list, dim: int, config: SuiteConfig, corner: bool):
    if config.m is not None and config.M is not None:
        return [(None, None, (float(config.m), float(config.M)))] * len(rngs)
    return [(None, None, (1.0, rng.log_uniform(1.0 + 1e-6, 100.0))) for rng in rngs]


def _reversal(maps, pools: _DimPools, i: int, fns):
    """The map, the two kernels and the function of a mean-reversal check."""
    return _pick(maps, i), _pick(pools.kernels, i), _pick(pools.kernels, i + 1), _pick(fns, i)


def _gruss(family: str, fns: str):
    def check(A, B, cell, i, pools, **kw):
        picks = _reversal(pools.unital_maps, pools, i, getattr(pools, fns))
        return [certs.check_gruss(*picks, A, B, *cell, family, **kw)]
    return check


def _squared_consequence(fns: str):
    return lambda A, B, c, i, p, **kw: [
        certs.check_squared_consequences(_pick(getattr(p, fns), i), A, B, *c, **kw)]


def _norm_ratio(mode: str, kernels: str | None):
    """Audit norm-ratio adapter; ``kernels`` names the kernel pool (None: geometric)."""
    bounds = ("m", "M") if mode == "eq15" else ("s", "t")

    def check(A, B, cell, i, pools, **kw):
        kernel = GEOMETRIC if kernels is None else _pick(getattr(pools, kernels), i)
        return [certs.check_norm_ratio(
            mode, kernel, _pick(pools.g_convex, i), A, B, **dict(zip(bounds, cell)),
            norm=_pick(pools.norms, i), **kw,
        )]
    return check


@dataclass(frozen=True)
class _Inequality:
    """How verify, hunt, probe and recheck instantiate one inequality id.

    ``cell`` is the kind of hypothesis cell: "sandwich" (s, t), "bounded"
    (m, M), "order" (A <= B, A within (m, M)), "scalar" (no matrices) or
    "free".  ``draw(rngs, dim, config, corner)`` returns one ``(A, B, cell)``
    per trial stream, with A and B None when there are no matrices; each
    trial's scalar draws come first, then the matrices of all trials are
    drawn as one stack.  ``corner`` makes the first trial the commuting
    boundary instance.  ``check(A, B, cell, pick, pools, **kw)``
    returns the certificates; ``kw`` holds constant_multiplier and tol_rel.
    Adapters look up ``certs.check_*`` when called, never at import.
    """

    cell: str
    draw: Callable
    check: Callable
    unital: bool = False  # needs a unital map in the pool


# The one inequality table, in ALL_INEQUALITIES order; certificates.py keeps
# the id order and the audit class.
INEQUALITIES = {
    "ando": _Inequality("free", _draw_free, lambda A, B, c, i, p, **kw: [
        certs.ando_check(_pick(p.maps, i), _pick(p.kernels, i), A, B, **kw)]),
    "polya-szego": _Inequality("bounded", _draw_bounded, lambda A, B, c, i, p, **kw: [
        certs.check_polya_szego(_pick(p.maps, i), A, B, *c, **kw)]),
    "kantorovich-f": _Inequality("bounded", _draw_bounded, lambda A, B, c, i, p, **kw: [
        certs.check_kantorovich_f(*_reversal(p.maps, p, i, p.f_monotone), A, B, *c, **kw)]),
    "sandwich-lemma": _Inequality("sandwich", _draw_sandwich, lambda A, B, c, i, p, **kw: [
        *certs.check_sandwich_lemma(A, B, *c, **kw)]),
    "alpha-scaling": _Inequality("scalar", _draw_alpha, lambda A, B, c, i, p, **kw: [
        certs.check_alpha_scaling(_pick(p.f_monotone + p.g_decreasing, i), *c, **kw)]),
    "main-monotone": _Inequality("sandwich", _draw_sandwich, lambda A, B, c, i, p, **kw: [
        certs.check_main_monotone(*_reversal(p.maps, p, i, p.f_monotone), A, B, *c, **kw)]),
    "main-decreasing": _Inequality("sandwich", _draw_sandwich, lambda A, B, c, i, p, **kw: [
        certs.check_main_decreasing(*_reversal(p.maps, p, i, p.g_decreasing), A, B, *c, **kw)]),
    "gruss-f": _Inequality("bounded", _draw_bounded, _gruss("monotone", "f_monotone"), True),
    "gruss-g": _Inequality("bounded", _draw_bounded, _gruss("decreasing", "g_decreasing"), True),
    "squared": _Inequality("order", _draw_order, lambda A, B, c, i, p, **kw: [
        certs.check_squared(A, B, *c, **kw)]),
    "squared-consequence-f": _Inequality(
        "bounded", _draw_bounded, _squared_consequence("f_monotone")),
    "squared-consequence-g": _Inequality(
        "bounded", _draw_bounded, _squared_consequence("g_decreasing")),
    "midpoint": _Inequality("sandwich", _draw_sandwich, lambda A, B, c, i, p, **kw: [
        certs.check_midpoint(A, B, *c, **kw)]),
    "diaz-metcalf": _Inequality("sandwich", _draw_sandwich, lambda A, B, c, i, p, **kw: [
        certs.check_diaz_metcalf(*_reversal(p.maps, p, i, p.f_monotone), A, B, *c, **kw)]),
    "klamkin-mclenaghan": _Inequality("sandwich", _draw_sandwich, lambda A, B, c, i, p, **kw: [
        certs.check_klamkin_mclenaghan(
            _pick(p.maps, i), _pick(p.kernels, i), _pick(p.f_monotone, i), A, B, *c, **kw)]),
    "specht-bound": _Inequality("scalar", _draw_specht, lambda A, B, c, i, p, **kw: [
        certs.check_specht_bound(*c, **kw)]),
    "strengthened-remark": _Inequality(
        "sandwich", _draw_sandwich_st_ge_1, lambda A, B, c, i, p, **kw: [
            certs.check_strengthened_remark(
                *_reversal(p.maps, p, i, p.f_monotone), A, B, *c, **kw)]),
    "norm-ratio-tau": _Inequality(
        "sandwich", _draw_sandwich, _norm_ratio("tau_side", "tau_ge_sharp")),
    "norm-ratio-sharp": _Inequality(
        "sandwich", _draw_sandwich, _norm_ratio("sharp_side", "sigma_le_sharp")),
    "norm-ratio-power4": _Inequality("sandwich", _draw_sandwich, _norm_ratio("power4", "kernels")),
    "norm-ratio-eq15": _Inequality("bounded", _draw_bounded, _norm_ratio("eq15", None)),
}


def _inequality(ineq: str) -> _Inequality:
    if ineq not in INEQUALITIES:
        raise ValueError(f"unknown inequality id {ineq!r}")
    return INEQUALITIES[ineq]


def _trial_seed(config: SuiteConfig, ineq: str, dim: int, trial: int) -> int:
    return derive_seed(config.seed, fnv1a64(ineq), dim, trial)


def _vet_pools(ineq: str, pools: _DimPools) -> None:
    if INEQUALITIES[ineq].unital and not pools.unital_maps:
        raise ValueError(f"{ineq} needs at least one unital map in the pool")


def _draw(ineq: str, dim: int, trials, config: SuiteConfig) -> list:
    """The instances ``(A, B, cell)`` of the given trials of one cell, as one stack.

    The audit family pins its known boundary instance as trial 0, so its
    documented violation is reported (never asserted) by every campaign
    that covers the matching cell.
    """
    rngs = [SplitMix64(_trial_seed(config, ineq, dim, trial)) for trial in trials]
    corner = trials[0] == 0 and ineq in AUDIT_INEQUALITIES
    return _inequality(ineq).draw(rngs, dim, config, corner)


def _draw_cell(ineq: str, dim: int, config: SuiteConfig) -> list:
    """Every trial of a cell, drawn as one stack.

    If that fails, each trial is left (None) to draw itself when it is
    evaluated, so whatever failed is raised at its own trial, after the
    trials before it, exactly as a trial-by-trial draw raises it.
    """
    try:
        return _draw(ineq, dim, range(config.trials), config)
    except Exception:  # re-raised by the failing trial's own draw
        return [None] * config.trials


def _evaluate_trial(
    ineq: str, dim: int, trial: int, config: SuiteConfig, pools: _DimPools, instance=None
) -> tuple[list[Certificate], SymMatrix | None, SymMatrix | None]:
    """Evaluate one seeded trial on its drawn ``instance`` (drawn here when
    None); returns (certificates, A, B).

    Catalog entries rotate with the trial index so that ``trials`` at least
    as large as the pool sizes guarantees full coverage.
    """
    A, B, cell = instance or _draw(ineq, dim, [trial], config)[0]
    certificates = _inequality(ineq).check(A, B, cell, trial, pools,
                                           constant_multiplier=config.constant_multiplier,
                                           tol_rel=config.tol_rel)
    return certificates, A, B


@dataclass
class InequalityStats:
    trials: int = 0
    holds_count: int = 0
    violations: int = 0
    min_slack: float | None = None
    max_ratio: float | None = None
    violating_instances: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "holds_count": self.holds_count,
            "violations": self.violations,
            "min_slack": self.min_slack,
            "max_ratio": self.max_ratio,
            "violating_instances": self.violating_instances,
        }


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
    tool_version: str = TOOL_VERSION
    schema_version: int = SCHEMA_VERSION
    wall_time_s: float = 0.0

    def to_payload(self) -> dict:
        body = {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
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
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"


def run_suite(config: SuiteConfig, _trace: list | None = None) -> Report:
    """Evaluate every requested certificate on seeded generated instances."""
    start = time.perf_counter()
    results: dict = {}
    audit_results: dict = {}
    pools_by_dim = {dim: _build_pools(config, dim) for dim in config.dims}
    for ineq in config.inequalities:
        for pools in pools_by_dim.values():
            _vet_pools(ineq, pools)
    for ineq in config.inequalities:
        stats = InequalityStats()
        for dim in config.dims:
            pools = pools_by_dim[dim]
            instances = _draw_cell(ineq, dim, config)
            for trial in range(config.trials):
                try:
                    certificates, A, B = _evaluate_trial(ineq, dim, trial, config, pools,
                                                         instances[trial])
                except LoewnerLabError as exc:  # library errors take one message argument
                    raise type(exc)(f"inequality {ineq}, dim {dim}, trial {trial}, trial_seed "
                                    f"{_trial_seed(config, ineq, dim, trial)}: {exc}") from exc
                if _trace is not None:
                    _trace.append((ineq, dim, trial, [c.params for c in certificates]))
                stats.trials += 1
                trial_holds = all(c.holds for c in certificates)
                trial_slack = min(c.slack for c in certificates)
                trial_ratio = max(c.ratio for c in certificates)
                if stats.min_slack is None or trial_slack < stats.min_slack:
                    stats.min_slack = trial_slack
                if math.isfinite(trial_ratio) and (
                    stats.max_ratio is None or trial_ratio > stats.max_ratio
                ):
                    stats.max_ratio = trial_ratio
                if trial_holds:
                    stats.holds_count += 1
                else:
                    stats.violations += 1
                    if len(stats.violating_instances) < config.max_recorded_violations:
                        stats.violating_instances.append(
                            {
                                "inequality": ineq,
                                "dim": dim,
                                "trial": trial,
                                "trial_seed": _trial_seed(config, ineq, dim, trial),
                                "slack": trial_slack,
                                "ratio": trial_ratio if math.isfinite(trial_ratio) else None,
                                "certificates": [c.to_json() for c in certificates],
                                "instance": _instance_blob(A=A, B=B),
                            }
                        )
        bucket = audit_results if ineq in AUDIT_INEQUALITIES else results
        entry = stats.to_dict()
        if ineq in AUDIT_INEQUALITIES:
            entry["violation_rate"] = stats.violations / stats.trials
        bucket[ineq] = entry
    report = Report(
        config=config.to_dict(),
        results=results,
        audit_results=audit_results,
    )
    report.wall_time_s = time.perf_counter() - start
    return report


def hunt_counterexamples(config: SuiteConfig, constant_override: float) -> Report:
    """Re-run a campaign with every constant scaled by a positive multiplier."""
    if constant_override <= 0:
        raise ValueError("constant override must be positive")
    hunted = dataclasses.replace(config, constant_multiplier=constant_override)
    return run_suite(hunted)


# The cells probe searches: the config fields of the cell's bounds and their
# defaults.
_PROBE_CELLS = {"bounded": ("m", "M", 1.0, 4.0), "sandwich": ("s", "t", 0.25, 4.0)}


class _ProbeInstance:
    """Mutable eigen-coordinates of an instance, for hill climbing."""

    def __init__(self, q_a, lam_a, q_c, lam_c, lo, hi, family):
        self.q_a = q_a
        self.lam_a = lam_a
        self.q_c = q_c
        self.lam_c = lam_c
        self.lo = lo  # clip range for lam_c
        self.hi = hi
        self.family = family

    def matrices(self) -> tuple[SymMatrix, SymMatrix]:
        A = SymMatrix(self.q_a.T @ np.diag(self.lam_a) @ self.q_a)
        if self.family == "bounded":
            B = SymMatrix(self.q_c.T @ np.diag(self.lam_c) @ self.q_c)
            return A, B
        C = SymMatrix(self.q_c.T @ np.diag(self.lam_c) @ self.q_c)
        root = decompose(A).root
        return A, SymMatrix(root @ C.data @ root)

    def copy(self) -> "_ProbeInstance":
        return _ProbeInstance(
            self.q_a.copy(), self.lam_a.copy(), self.q_c.copy(), self.lam_c.copy(),
            self.lo, self.hi, self.family,
        )

    def perturb(self, rng: SplitMix64) -> "_ProbeInstance":
        out = self.copy()
        dim = out.lam_a.size
        move = rng.choice_index(4)
        if move == 0:
            j = rng.choice_index(dim)
            out.lam_a[j] = float(np.clip(out.lam_a[j] + 0.2 * (self.hi - self.lo) * rng.normal(),
                                         self.lo, self.hi))
        elif move == 1:
            j = rng.choice_index(dim)
            out.lam_c[j] = float(np.clip(out.lam_c[j] + 0.2 * (self.hi - self.lo) * rng.normal(),
                                         self.lo, self.hi))
        elif move == 2:
            out.q_a = _rotate(out.q_a, rng)
        else:
            out.q_c = _rotate(out.q_c, rng)
        return out


def _rotate(q: np.ndarray, rng: SplitMix64) -> np.ndarray:
    dim = q.shape[0]
    if dim == 1:
        return q
    i = rng.choice_index(dim)
    j = (i + 1 + rng.choice_index(dim - 1)) % dim
    theta = 0.2 * rng.normal()
    rot = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    rot[i, i] = c
    rot[j, j] = c
    rot[i, j] = s
    rot[j, i] = -s
    return q @ rot


def _probe_starts(family: str, dim: int, rng: SplitMix64, lo: float, hi: float, n_random: int):
    """Corner instances (extremal, anti-aligned spectra) plus random starts.

    A bounded instance carries the spectra of A and B in [m, M]; a sandwich
    one carries the spectrum of A and that of C in [s, t].
    """
    bounded = family == "bounded"
    corner = np.array([hi if j % 2 == 0 else lo for j in range(dim)])
    if bounded:
        a_corner, a_lo, a_hi = np.array([lo if j % 2 == 0 else hi for j in range(dim)]), lo, hi
    else:
        a_corner, a_lo, a_hi = np.array([0.5 + 0.25 * (j % 3) for j in range(dim)]), 0.25, 4.0
    eye = np.eye(dim)
    q = random_orthogonal(dim, rng)
    starts = [
        _ProbeInstance(eye.copy(), a_corner.copy(), eye.copy(), corner.copy(), lo, hi, family),
        _ProbeInstance(q.copy(), a_corner.copy(), (q if bounded else eye).copy(), corner.copy(),
                       lo, hi, family),
    ]
    for _ in range(n_random):
        lam_a = rng.uniforms(dim, a_lo, a_hi)
        lam_c = rng.uniforms(dim, lo, hi)
        starts.append(_ProbeInstance(random_orthogonal(dim, rng), lam_a,
                                     random_orthogonal(dim, rng), lam_c, lo, hi, family))
    return starts


def _probe_evaluate(ineq, inst, pick, config, pools):
    A, B = inst.matrices()
    try:
        certificates = INEQUALITIES[ineq].check(
            A, B, (inst.lo, inst.hi), pick, pools, tol_rel=config.tol_rel
        )
    except LoewnerLabError:
        return None
    ratios = [c.ratio for c in certificates if math.isfinite(c.ratio)]
    return max(ratios) if ratios else None


def probe_tightness(inequality_id: str, config: SuiteConfig) -> Report:
    """Random search plus coordinate hill-climb for the largest observed ratio.

    Perturbs eigenvalues (clipped to the hypothesis cell) and orthogonal
    factors, accepting ratio increases, for ``probe_refine_steps`` steps.
    Constants are taken at multiplier 1.  Only sandwich and bounded cells
    are probed.
    """
    start = time.perf_counter()
    family = _inequality(inequality_id).cell
    if family == "scalar":
        raise ValueError(f"{inequality_id!r} has no matrix instances to probe")
    if family not in _PROBE_CELLS:
        raise ValueError(f"probing {inequality_id!r} is not supported")
    lo_name, hi_name, lo, hi = _PROBE_CELLS[family]
    if getattr(config, lo_name) is not None:  # SuiteConfig sets both bounds or neither
        lo, hi = getattr(config, lo_name), getattr(config, hi_name)
    cell = {lo_name: lo, hi_name: hi}
    if len(config.dims) != 1:
        raise ValueError(f"fields dims: probe takes one dimension, got {config.dims}")
    dim = config.dims[0]
    pools = _build_pools(config, dim)
    _vet_pools(inequality_id, pools)
    rng = SplitMix64(derive_seed(config.seed, fnv1a64("probe"), fnv1a64(inequality_id), dim))
    n_picks = max(len(pools.maps), len(pools.kernels), len(pools.f_monotone))
    best_ratio = -math.inf
    best_inst = None
    best_pick = 0
    for inst in _probe_starts(family, dim, rng, lo, hi, config.trials):
        for pick in range(n_picks):
            ratio = _probe_evaluate(inequality_id, inst, pick, config, pools)
            if ratio is not None and ratio > best_ratio:
                best_ratio, best_inst, best_pick = ratio, inst, pick
    if best_inst is None:
        raise LoewnerLabError("probe found no feasible instance")
    accepted = 0
    for _ in range(config.probe_refine_steps):
        cand = best_inst.perturb(rng)
        ratio = _probe_evaluate(inequality_id, cand, best_pick, config, pools)
        if ratio is not None and ratio > best_ratio:
            best_ratio, best_inst = ratio, cand
            accepted += 1
    A, B = best_inst.matrices()
    probe_payload = {
        "inequality": inequality_id,
        "cell": cell,
        "dim": dim,
        "max_ratio": best_ratio,
        "refine_steps": config.probe_refine_steps,
        "accepted_steps": accepted,
        "best_instance": _instance_blob(A=A, B=B),
        "pick_index": best_pick,
    }
    report = Report(config=config.to_dict(), results={}, audit_results={}, probe=probe_payload)
    report.wall_time_s = time.perf_counter() - start
    return report


def write_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "loewner_lab_report" not in data:
        raise ValueError("missing field 'loewner_lab_report'")
    body = data["loewner_lab_report"]
    for name, ours in (("schema_version", SCHEMA_VERSION), ("tool_version", TOOL_VERSION)):
        if body.get(name) != ours:
            raise ValueError(f"field {name}: the report has {body.get(name)!r}, "
                             f"this tool reads {ours!r}")
    return body


def load_matrix(path: str) -> SymMatrix:
    """Load {"dim": n, "data": [n*n row-major]} JSON; symmetrize on load.

    Asymmetry above 1e-8 relative (Frobenius) is rejected.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "dim" not in data:
        raise ValueError("matrix file is missing field 'dim'")
    if "data" not in data:
        raise ValueError("matrix file is missing field 'data'")
    n = data["dim"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"field 'dim' must be a positive integer, got {n!r}")
    entries = data["data"]
    if len(entries) != n * n:
        raise ValueError(f"field 'data' must hold {n * n} numbers, got {len(entries)}")
    raw = np.array(entries, dtype=float).reshape(n, n)
    asym = float(np.linalg.norm(raw - raw.T))
    if asym > 1e-8 * max(1.0, float(np.linalg.norm(raw))):
        raise ValueError(f"field 'data' is asymmetric beyond tolerance ({asym:.3e})")
    return SymMatrix(raw)


def save_matrix(X: SymMatrix, path: str) -> None:
    payload = {"dim": X.dim, "data": X.data.ravel().tolist()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def collect_violations(report_body: dict) -> list:
    """Flatten recorded violations across all sections, in report order."""
    out = []
    for section in ("results", "audit_results"):
        for ineq in sorted(report_body.get(section, {})):
            out.extend(report_body[section][ineq].get("violating_instances", []))
    return out


def recheck(report_path: str, index: int) -> tuple[bool, dict]:
    """Re-evaluate a recorded violation from its trial coordinates.

    Returns (reproduced, detail): reproduced is True when the re-run still
    violates with the slack recorded in the report.
    """
    body = load_report(report_path)
    violations = collect_violations(body)
    if not 0 <= index < len(violations):
        raise IndexError(f"violation index {index} out of range 0..{len(violations) - 1}")
    record = violations[index]
    config = config_from_dict(body["config"])
    pools = _build_pools(config, record["dim"])
    _vet_pools(record["inequality"], pools)
    certificates, _, _ = _evaluate_trial(
        record["inequality"], record["dim"], record["trial"], config, pools
    )
    slack = min(c.slack for c in certificates)
    holds = all(c.holds for c in certificates)
    reproduced = (not holds) and abs(slack - record["slack"]) <= 1e-12 * max(1.0, abs(slack))
    return reproduced, {
        "inequality": record["inequality"],
        "dim": record["dim"],
        "trial": record["trial"],
        "recorded_slack": record["slack"],
        "recomputed_slack": slack,
        "holds": holds,
    }
