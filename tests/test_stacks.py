"""Stacked evaluation: a stack of trials gives, byte for byte, what each trial
gives as a stack of one, and a cell really is evaluated as stacks."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import SplitMix64, certificates, geometric, matrix_function, suite
from loewner_lab.certificates import (
    ALL_INEQUALITIES,
    ALPHA,
    BOUNDED,
    SANDWICH,
    SANDWICH_ST_GE_1,
    SPECHT,
    _norm_ratio_diag,
)
from loewner_lab.cli import main as cli_main
from loewner_lab.suite import collect_violations, load_report
from loewner_lab.errors import EigenSolverError, LoewnerLabError
from loewner_lab.generate import derive_seed, fnv1a64, random_spd
from loewner_lab.kernels import (
    DEFAULT_DECREASING_SPECS,
    GEOMETRIC,
    OPERATOR_MONOTONE,
    default_grid,
    monotone_catalog,
    parse_function,
)
from loewner_lab.maps import DEFAULT_MAP_SPECS, parse_map
from loewner_lab.spectral import (
    DEFAULT_NORM_SPECS,
    SymStack,
    _eigh,
    _fro,
    decompose,
    loewner_slack,
    op_norm,
    parse_norm,
    spectrum,
    ui_norm,
)
from loewner_lab.suite import SuiteConfig
from oracles import certify, one

MATRIX_IDS = [i for i in ALL_INEQUALITIES if suite.ROWS[i].cell not in (ALPHA, SPECHT)]
PROBED_IDS = [i for i in ALL_INEQUALITIES if suite.ROWS[i].cell.probe is not None]


def _outcome(evaluate) -> str:
    """Each trial's reduced columns and certificates' JSON, or the error a
    library check raised; ``evaluate`` gives each trial's (stack, slice)."""
    try:
        rows = evaluate()
    except LoewnerLabError as exc:
        return f"error {type(exc).__name__}"
    return json.dumps([[stack.slack[k], stack.holds[k], stack.ratio[k], stack.to_json(k)]
                       for stack, k in rows])


def _stacked_rows(ineq, dim, trials, config, pools):
    """The cell's (stack, slice) pairs in trial order, one ``_evaluate_trial`` call per stack."""
    out = [None] * trials
    for stack in suite._stacks(ineq, dim, range(trials), pools):
        evaluated = suite._evaluate_trial(ineq, dim, stack, config, pools)
        for k, trial in enumerate(stack):
            out[trial] = (evaluated, k)
    return out


def _assert_stack_matches_trials(ineq, dim, trials, seed, multiplier=1.0):
    config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=trials, seed=seed,
                         constant_multiplier=multiplier)
    pools = suite._build_pools(config, dim)
    stacked = _outcome(lambda: _stacked_rows(ineq, dim, trials, config, pools))
    one_by_one = _outcome(lambda: [(suite._evaluate_trial(ineq, dim, [trial], config, pools), 0)
                                   for trial in range(trials)])
    if stacked.startswith("error"):  # the cell then falls back to one trial at a time
        assert one_by_one.startswith("error")
    else:
        assert stacked == one_by_one


@settings(max_examples=60, deadline=None)
@given(ineq=st.sampled_from(ALL_INEQUALITIES), dim=st.integers(1, 16), trials=st.integers(1, 7),
       seed=st.integers(0, 2**64 - 1), multiplier=st.sampled_from([1.0, 0.9, 0.5]))
def test_stacked_cell_equals_stacks_of_one(ineq, dim, trials, seed, multiplier):
    # trial 0 is the commuting corner instance of the audit ids
    _assert_stack_matches_trials(ineq, dim, trials, seed, multiplier)


@pytest.mark.parametrize("ineq", ALL_INEQUALITIES)
@pytest.mark.parametrize("dim", [1, 3, 16])
def test_every_id_stacked_equals_stacks_of_one(ineq, dim):
    _assert_stack_matches_trials(ineq, dim, 7, 11, 0.9)


@pytest.mark.parametrize("ineq", PROBED_IDS)
def test_probe_starts_stacked_equal_one_by_one(ineq):
    config = SuiteConfig(inequalities=(ineq,), dims=(3,), trials=6, seed=5)
    pools = suite._build_pools(config, 3)
    cell = suite.ROWS[ineq].cell
    bounds = (1.0, 4.0) if cell is BOUNDED else (0.25, 4.0)
    starts = suite._probe_starts(cell, 3, SplitMix64(9), *bounds, 6)
    stacks = suite._probe_stacks(cell, starts, bounds)  # read again at every pick
    for pick in range(6):
        stacked = suite._probe_ratios(ineq, stacks, pick, pools, config.tol_rel)
        alone = [suite._probe_evaluate(ineq, suite._probe_stacks(cell, [inst], bounds), pick,
                                       config, pools)[0]
                 for inst in starts]
        assert stacked == alone
        assert suite._probe_evaluate(ineq, stacks, pick, config, pools) == alone


def test_failure_in_a_stack_surfaces_at_its_own_trial(monkeypatch):
    # trial 3's A misses the eigendecomposition contract in the evaluation of
    # its stack (an ando cell draws without solving); the cell is evaluated
    # again trial by trial, and trials 0-2 come first
    config = SuiteConfig(inequalities=("ando",), dims=(3,), trials=13, seed=5)
    bad = suite._draw("ando", 3, [3], config)[0].data[0]
    real_eigh = np.linalg.eigh

    def eigh(a):
        w, q = real_eigh(a)
        return w, q + 1e-6 * (a == bad).all(axis=(-2, -1))[..., None, None]

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    seen = []
    real = suite._evaluate_trial
    monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: seen.append(list(a[2])) or real(*a))
    with pytest.raises(EigenSolverError) as info:
        suite.run_suite(config)
    # one call per stack of trials whose maps share an output dimension: the
    # first holds every trial but those of ntrace:1 (1 and 7), and fails
    assert seen == [[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12], [0], [1], [2], [3]]
    seed = derive_seed(5, fnv1a64("ando"), 3, 3)
    assert str(info.value).startswith(
        f"inequality ando, dim 3, trial 3, trial_seed {seed}: reconstruction residual")


@pytest.mark.parametrize("ineq", ALL_INEQUALITIES)
@pytest.mark.parametrize("dim", [2, 16])
def test_default_pool_cell_is_one_stack_per_output_dim(ineq, dim, monkeypatch):
    # 60 trials of dim 16 fit the entry budget, so the cell makes one call
    # per output dimension of the maps its trials pick, each with every
    # trial of that dimension
    config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=60, seed=3)
    maps = next((pool for name, pool, _ in suite.ROWS[ineq].picks if name == "phi"), None)
    pool = suite._build_pools(config, dim)[maps] if maps else None
    expected: dict = {}
    for trial in range(60):
        out_dim = pool[trial % len(pool)].output_dim if pool else dim
        expected.setdefault(out_dim, []).append(trial)
    seen = []
    real = suite._evaluate_trial
    monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: seen.append(list(a[2])) or real(*a))
    suite.run_suite(config)
    assert seen == list(expected.values())
    assert len(seen) == (2 if pool else 1)


def test_stacks_split_beyond_the_entry_budget():
    # 2**15 entries hold 128 trials of dim 16: 130 trials make two stacks of 65
    pools = suite._build_pools(SuiteConfig(), 16)
    assert suite._stacks("squared", 16, range(130), pools) == [list(range(65)),
                                                               list(range(65, 130))]
    assert suite._stacks("squared", 16, range(128), pools) == [list(range(128))]


@pytest.mark.parametrize("ineq", MATRIX_IDS)
def test_solver_calls_do_not_grow_with_the_trials(ineq, monkeypatch):
    # a cell that silently fell back to trial-by-trial evaluation would make
    # twice the solver calls at twice the trials
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, real=real: calls.append(1) or real(a))
    counts = []
    for trials in (40, 80):
        calls.clear()
        suite.run_suite(SuiteConfig(inequalities=(ineq,), dims=(3,), trials=trials, seed=2))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_each_stacks_inner_matrix_is_solved_once_by_the_cell_check(monkeypatch):
    # the cell's check solves a sandwich stack's inner matrix, which A
    # remembers, and decomposes a bounded stack's A and B; an audit cell's
    # first stack holds the commuting corner (trial 0) as its slice 0, solved
    # with the drawn trials.  The means read those solves: nothing that a
    # check solved is solved again
    from loewner_lab import certificates

    vets, inside, solves = [], [], []

    def tracked(check):
        def run(*args):
            vets.append(1)
            inside.append(1)
            try:
                return check(*args)
            finally:
                inside.pop()
        return run

    for name in ("_vet_sandwich", "_vet_bounded"):
        monkeypatch.setattr(certificates, name, tracked(getattr(certificates, name)))
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solves.append(
        (bool(inside), a.tobytes())) or real_eigh(a))
    ids = tuple(i for i in ALL_INEQUALITIES
                if suite.ROWS[i].cell in (SANDWICH, SANDWICH_ST_GE_1, BOUNDED))
    suite.run_suite(SuiteConfig(inequalities=ids, dims=(1, 2, 3), trials=30, seed=4))
    checked = [key for within, key in solves if within]
    assert len(vets) >= 3 * len(ids) and checked
    assert len(set(checked)) == len(checked)
    assert not set(checked) & {key for within, key in solves if not within}


@pytest.mark.parametrize("ineq", ["norm-ratio-tau", "norm-ratio-eq15"])
@pytest.mark.parametrize("dim", [1, 4])
def test_audit_corner_is_solved_inside_its_stack(ineq, dim, monkeypatch):
    # drawing a cell with its corner pinned and checking it makes the same
    # solver calls as drawing and checking it without, from the same streams
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    config = SuiteConfig(inequalities=(ineq,))
    cell = suite.ROWS[ineq].cell
    counts = []
    for corner in (False, True):
        calls.clear()
        rngs = [SplitMix64(derive_seed(5, k)) for k in range(6)]
        A, B, cells = cell.draw(rngs, dim, config, corner)
        cell.check(SimpleNamespace(A=A, B=B, cell=cell, tol_rel=config.tol_rel,
                                   **dict(zip(cell.bounds, map(list, zip(*cells))))))
        counts.append(list(calls))
    assert counts[0] == counts[1] and counts[0]


def test_stacked_spectral_layer_matches_single_matrices():
    mats = [random_spd(dim, 0.5, 3.0, derive_seed(3, k)) for k, dim in enumerate([4] * 7)]
    others = [random_spd(4, 0.5, 3.0, derive_seed(4, k)) for k in range(7)]
    A, B = (SymStack(np.concatenate([X.data for X in Xs])) for Xs in (mats, others))
    # mapped functions, numpy twins, and functions that some slices share
    fns = [math.sqrt, math.log1p, lambda x: 1.0 / x, math.sqrt, lambda x: x * x, GEOMETRIC.fn,
           GEOMETRIC.fn]
    stacked = {
        "decompose": decompose(A).basis,
        "spectrum": spectrum(B),
        "function": matrix_function(A, fns).data,
        "geometric": geometric(A, B).data,
        "slack": loewner_slack(A, B),
        "op_norm": op_norm(B),
    }
    for k, (X, Y) in enumerate(zip(mats, others)):
        X, Y = SymStack(X.data), SymStack(Y.data)  # solved afresh, one at a time
        single = {
            "decompose": decompose(X).basis,
            "spectrum": spectrum(Y),
            "function": matrix_function(X, fns[k]).data,
            "geometric": geometric(X, Y).data,
            "slack": loewner_slack(X, Y),
            "op_norm": op_norm(Y),
        }
        for name, value in single.items():
            assert stacked[name][k].tobytes() == value[0].tobytes(), name
    rng = SplitMix64(1)
    for phi in [parse_map(spec, 4, rng) for spec in DEFAULT_MAP_SPECS]:
        image = phi.apply(A)
        for k, X in enumerate(mats):
            assert image.data[k].tobytes() == phi.apply(X).data[0].tobytes(), phi.label
    # a slice alone and in a stack run one path: each norm variant, and the
    # contract figures of a decompose whose sums of squares overflow, so that
    # _fro takes its rescaled path
    for kind in map(parse_norm, DEFAULT_NORM_SPECS):  # one spec per variant
        assert ui_norm(A, kind)[:1].tobytes() == ui_norm(mats[0], kind).tobytes()
    big = mats[0].data[0] * 1e200
    assert np.abs(big).max() > 1.4e154  # its square overflows, so _fro rescales
    dec = decompose(SymStack(big[None]))
    beside_zero = decompose(SymStack(np.stack([np.zeros_like(big), big])))  # no 0/0 rescale
    assert beside_zero.eigenvalues[1].tobytes() == dec.eigenvalues[0].tobytes()
    assert beside_zero.basis[1].tobytes() == dec.basis[0].tobytes()
    alone = _eigh(big[None])  # (w, q, residual, scale, orth)
    beside = _eigh(np.stack([np.zeros_like(big), big]))
    assert [x[0].tobytes() for x in alone] == [y[1].tobytes() for y in beside]


def _contract_figures_one_at_a_time(a):
    """(residual, scale, orth) of ``_eigh``, each figure with its own ``_fro``
    call: the reference for its one pass over the three."""
    w, q = np.linalg.eigh(a)
    qt = q.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _fro((q * w[..., None, :]) @ qt - a)
        orth = _fro(qt @ q - np.eye(a.shape[-1]))
        norm = _fro(a)
    return residual, np.maximum(1.0, norm), orth


@pytest.mark.parametrize("dim", [1, 2, 6, 16])
def test_contract_figures_in_one_pass_equal_one_figure_at_a_time(dim):
    # plain stacks, and one whose sums of squares overflow beside a zero and a
    # plain slice, so that _fro rescales some figures of the pass and not others
    a = np.concatenate([random_spd(dim, 0.01, 100.0, seed).data for seed in range(3)])
    big = a[0] * 1e200
    for stack in (a[:1], a, np.stack([a[1], np.zeros_like(big), big, a[2]])):
        w, q, *figures = _eigh(stack)
        want = _contract_figures_one_at_a_time(stack)
        assert [x.tobytes() for x in figures] == [y.tobytes() for y in want]


_SCALING_FNS = monotone_catalog() + tuple(map(parse_function, DEFAULT_DECREASING_SPECS))


def _alpha_scaling_reference(fn, alpha, constant_multiplier):
    """The alpha-scaling certificate as a loop over the grid, one point at a time."""
    points = default_grid().tolist()
    worst_slack, worst, worst_ratio = math.inf, (points[0], 0.0, 0.0), 0.0
    for x in points:
        if fn.klass == OPERATOR_MONOTONE:
            lhs, rhs = fn.fn(alpha * x), constant_multiplier * alpha * fn.fn(x)
        else:
            lhs, rhs = fn.fn(x) / alpha, constant_multiplier * fn.fn(alpha * x)
        if rhs - lhs < worst_slack:
            worst_slack, worst = rhs - lhs, (x, lhs, rhs)
        worst_ratio = max(worst_ratio, float(_norm_ratio_diag(lhs, rhs)))
    x, lhs, rhs = worst
    slack, tol = rhs - lhs, 1e-9 * max(1.0, abs(lhs) + abs(rhs))
    return {"inequality_id": "alpha-scaling",
            "params": {"f": fn.id, "alpha": alpha, "grid_points": len(points), "worst_t": x},
            "lhs": lhs, "rhs": rhs, "constant": alpha * constant_multiplier, "slack": slack,
            "ratio": worst_ratio if math.isfinite(worst_ratio) else None,
            "holds": slack >= -tol, "tol": tol}


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(1.0, 8.0), multiplier=st.sampled_from([1.0, 0.9, 0.5]))
def test_alpha_scaling_matches_the_grid_loop(alpha, multiplier):
    for fn in _SCALING_FNS:
        got = certify("alpha-scaling", None, None, alpha, f=fn,
                      constant_multiplier=multiplier).to_json(0)
        assert got == _alpha_scaling_reference(fn, alpha, multiplier), fn.id


def test_overflowing_average_is_refused():
    with pytest.raises(ValueError, match="overflow"):
        one([[1e308, 1e308], [1e308, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        one([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        SymStack(np.full((2, 2, 2), np.inf))
    assert one([[8e307, 8e307], [8e307, 1.0]]).data[0, 0, 1] == 8e307


def test_overflowing_cell_exits_with_the_overflow(capsys):
    code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "2", "--trials", "3",
                     "--m", "1e300", "--M", "1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "overflow" in err


_SQRT = parse_function("power:0.5")
_PAIR = (random_spd(2, 1.0, 4.0, 1), random_spd(2, 1.0, 4.0, 2))


@pytest.mark.parametrize("ineq, pair, cells, picks, message", [
    pytest.param("alpha-scaling", (None, None), [(2.0,)], {"f": [_SQRT], "grid": [[1.0, -1.0]]},
                 "pick grid of alpha-scaling: the row does not read it", id="unread"),
    pytest.param("alpha-scaling", (None, None), [(2.0,), (3.0,), (4.0,)], {"f": [_SQRT]},
                 "pick f of alpha-scaling: 1 values for 3 trials", id="short"),
    pytest.param("alpha-scaling", (None, None), [(2.0,)], {},
                 "pick f of alpha-scaling: 0 values for 1 trials", id="missing"),
    # a row with a map pool reads its map, phi, too
    pytest.param("polya-szego", _PAIR, [(1.0, 4.0)], {},
                 "pick phi of polya-szego: 0 values for 1 trials", id="missing-map"),
])
def test_picks_are_refused_unless_one_value_per_trial_of_each_pick_the_row_reads(
        ineq, pair, cells, picks, message):
    with pytest.raises(ValueError) as info:
        certificates.check_stack(certificates.ROWS[ineq], *pair, cells, picks)
    assert str(info.value) == message


def test_results_are_columnar(monkeypatch, tmp_path, capsys):
    # a campaign keeps its results as columns per stack: a stack's slice is
    # written only for the sides and instance of a recorded violation
    written = []
    real = certificates.slice_to_json

    def write(side, k):
        if isinstance(side, SymStack):
            written.append((side, k))
        return real(side, k)

    monkeypatch.setattr(certificates, "slice_to_json", write)
    assert cli_main(["verify", "--ineq", "all-non-audit", "--dims", "2,3", "--trials", "20",
                     "--seed", "7"]) == 0
    assert written == []
    path = tmp_path / "hunt.json"
    assert cli_main(["hunt", "--ineq", "polya-szego", "--m", "1", "--M", "4", "--dims", "2",
                     "--trials", "50", "--override-constant", "0.8", "--seed", "7",
                     "--report", str(path)]) == 1
    recorded = collect_violations(load_report(str(path)))
    assert len(recorded) == 10  # of more violations: the report keeps the first ten
    # each one certificate with two matrix sides, and its instance A and B
    assert len(written) == 4 * len(recorded)
