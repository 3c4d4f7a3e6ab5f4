from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import (
    SplitMix64,
    SymStack,
    estimate_sandwich,
    loewner_compare,
    random_orthogonal,
    random_spd,
    spectrum_bounds,
)
from loewner_lab.errors import HypothesisError
from loewner_lab.generate import BoundedPair, SandwichPair, derive_seed, fnv1a64, mix64
from loewner_lab.spectral import LOEWNER_TOL_REL, op_norm
from oracles import bounded_pair, one, quadratic_form_slack, sandwich_pair


def _check_cell(cell, A, B, cells):
    """The cell's hypothesis check on drawn stacks, as ``check_stack`` runs it."""
    if cell.check is not None:
        cell.check(SimpleNamespace(A=A, B=B, cell=cell, tol_rel=LOEWNER_TOL_REL,
                                   **dict(zip(cell.bounds, map(list, zip(*cells))))))


class TestSplitMix:
    def test_known_state_advance_is_reproducible(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_uniform_in_open_interval(self):
        rng = SplitMix64(7)
        values = [rng.uniform() for _ in range(2000)]
        assert all(0.0 < v < 1.0 for v in values)

    def test_normals_have_sane_moments(self):
        rng = SplitMix64(11)
        values = np.array([rng.normal() for _ in range(20000)])
        assert abs(values.mean()) < 0.03
        assert abs(values.std() - 1.0) < 0.03

    def test_derive_seed_order_sensitivity(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_fnv_stable(self):
        # frozen reference value keeps the per-trial seed layout stable
        assert fnv1a64("polya-szego") == fnv1a64("polya-szego")
        assert fnv1a64("a") != fnv1a64("b")
        assert mix64(0) == 0


_DRAWS = st.tuples(st.sampled_from(("normal", "uniform", "normal_matrix", "uniforms")),
                   st.integers(1, 16), st.integers(1, 16), st.floats(-4.0, 4.0),
                   st.floats(0.0, 8.0))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=st.lists(_DRAWS, max_size=10))
def test_bulk_draws_match_the_scalar_stream_bit_for_bit(seed, draws):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    for kind, rows, cols, lo, width in draws:
        if kind == "normal":  # interleave scalar draws with the bulk spare
            assert bulk.normal() == scalar.normal()
        elif kind == "uniform":
            assert bulk.uniform(lo, lo + width) == scalar.uniform(lo, lo + width)
        elif kind == "normal_matrix":
            want = np.array([[scalar.normal() for _ in range(cols)] for _ in range(rows)])
            assert bulk.normal_matrix(rows, cols).tobytes() == want.tobytes()
        else:
            want = np.array([scalar.uniform(lo, lo + width) for _ in range(cols)])
            assert bulk.uniforms(cols, lo, lo + width).tobytes() == want.tobytes()
        assert bulk._state == scalar._state
        assert bulk._spare == scalar._spare


class TestRandomSpd:
    def test_constant_spectrum_gives_identity(self):
        out = random_spd(3, 1.0, 1.0, 123)
        np.testing.assert_allclose(out.data[0], np.eye(3), atol=1e-12)

    def test_determinism_bit_identical(self):
        a = random_spd(4, 0.5, 2.0, 42)
        b = random_spd(4, 0.5, 2.0, 42)
        assert np.array_equal(a.data, b.data)

    def test_spectrum_within_range(self):
        for seed in range(10):
            (lo,), (hi,) = spectrum_bounds(random_spd(2, 1.0, 9.0, seed))
            assert lo >= 1.0 - 1e-9
            assert hi <= 9.0 + 1e-9

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            random_spd(3, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            random_spd(3, 2.0, 1.0, 0)

    def test_orthogonal_factor(self):
        q = random_orthogonal(5, SplitMix64(9))
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)


class TestSandwichPair:
    def test_degenerate_s_equals_t_forces_b_equals_a(self):
        pair = sandwich_pair(3, 1.0, 1.0, 7)
        scale = op_norm(pair.A)[0]
        assert op_norm(pair.B - pair.A)[0] <= 1e-12 * max(1.0, scale)

    def test_scaled_copy(self):
        pair = sandwich_pair(3, 2.0, 2.0, 7)
        assert op_norm(pair.B - 2.0 * pair.A)[0] <= 1e-11 * max(1.0, op_norm(pair.B)[0])

    def test_estimates_inside_claimed_interval(self):
        for seed in range(20):
            pair = sandwich_pair(2, 0.25, 4.0, seed)
            (s_star,), (t_star,) = estimate_sandwich(pair.A, pair.B)
            assert s_star >= 0.25 - 1e-9
            assert t_star <= 4.0 + 1e-9

    def test_loewner_certified(self):
        for seed in range(5):
            pair = sandwich_pair(3, 0.5, 3.0, seed)
            assert loewner_compare(0.5 * pair.A, pair.B).relation in ("LE", "EQ")
            assert loewner_compare(pair.B, 3.0 * pair.A).relation in ("LE", "EQ")


class TestBoundedPair:
    def test_spectra_within_bounds(self):
        for seed in range(10):
            pair = bounded_pair(2, 1.0, 4.0, seed)
            for x in (pair.A, pair.B):
                (lo,), (hi,) = spectrum_bounds(x)
                assert lo >= 1.0 - 1e-12
                assert hi <= 4.0 + 1e-12

    def test_loewner_bounds(self):
        for seed in range(5):
            pair = bounded_pair(3, 0.5, 2.0, seed)
            eye = SymStack.identity(3)
            for x in (pair.A, pair.B):
                assert loewner_compare(0.5 * eye, x, 1e-9).relation in ("LE", "EQ")
                assert loewner_compare(x, 2.0 * eye, 1e-9).relation in ("LE", "EQ")

    def test_near_degenerate_spread(self):
        pair = bounded_pair(3, 1.0, 1.0 + 1e-9, 3)
        assert op_norm(pair.A - SymStack.identity(3))[0] <= 1e-8

    def test_determinism(self):
        a = bounded_pair(3, 1.0, 4.0, 5)
        b = bounded_pair(3, 1.0, 4.0, 5)
        assert np.array_equal(a.A.data, b.A.data)
        assert np.array_equal(a.B.data, b.B.data)

    def test_bridge_to_sandwich_condition(self):
        # two-sided bounds (m, M) imply the sandwich scalars (m/M, M/m)
        for seed in range(10):
            pair = bounded_pair(3, 1.0, 4.0, seed)
            (s_star,), (t_star,) = estimate_sandwich(pair.A, pair.B)
            assert s_star >= 0.25 - 1e-9
            assert t_star <= 4.0 + 1e-9


def test_a_pair_check_reads_one_number_as_every_slices_bound():
    # one s, t (or m, M) for a stack of two: the second slice, outside the
    # bounds, is refused as well as the first would be
    A = SymStack(np.stack([np.eye(2), np.eye(2)]))
    B = SymStack(np.stack([np.eye(2), 3.0 * np.eye(2)]))
    with pytest.raises(HypothesisError, match=r"tightest \[3, 3\] outside \[0.5, 2\]"):
        SandwichPair(A, B, 0.5, 2.0).verify()
    with pytest.raises(HypothesisError, match=r"for B: spectrum \[3, 3\] outside \[1, 2\]"):
        BoundedPair(A, B, 1.0, 2.0).verify()
    with pytest.raises(ValueError):  # one bound per slice, or one for all
        BoundedPair(A, B, [1.0, 1.0, 1.0], 2.0).verify()


class TestEstimateSandwich:
    def test_commuting_hand_values(self):
        (s,), (t,) = estimate_sandwich(one(np.diag([1.0, 4.0])), one(np.diag([4.0, 1.0])))
        assert s == pytest.approx(0.25, abs=1e-12)
        assert t == pytest.approx(4.0, abs=1e-12)

    def test_same_matrix(self):
        a = random_spd(3, 0.5, 2.0, 8)
        (s,), (t,) = estimate_sandwich(a, a)
        assert s == pytest.approx(1.0, abs=1e-10)
        assert t == pytest.approx(1.0, abs=1e-10)

    def test_memo_matches_a_fresh_computation(self, monkeypatch):
        pair = sandwich_pair(4, 0.5, 3.0, 31)  # verify() fills the memo
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        remembered = [x.tolist() for x in estimate_sandwich(pair.A, pair.B)]
        assert calls == []
        fresh = [x.tolist() for x in estimate_sandwich(SymStack(pair.A.data),
                                                       SymStack(pair.B.data))]
        assert remembered == fresh
        (s,), (t,) = estimate_sandwich(pair.A, 2.0 * pair.B)  # another partner is solved
        assert (s, t) == pytest.approx((2.0 * fresh[0][0], 2.0 * fresh[1][0]), rel=1e-12)
        assert [x.tolist() for x in estimate_sandwich(pair.A, pair.B)] == fresh

    def test_scalar_multiple(self):
        a = random_spd(3, 0.5, 2.0, 9)
        (s,), (t,) = estimate_sandwich(a, 2.0 * a)
        assert s == pytest.approx(2.0, abs=1e-10)
        assert t == pytest.approx(2.0, abs=1e-10)


def test_quadratic_form_slack_upper_bounds_lambda_min():
    x = random_spd(3, 0.5, 2.0, 21)
    y = random_spd(3, 0.5, 2.0, 22)
    from loewner_lab import loewner_slack

    assert quadratic_form_slack(x, y, 500, 0) >= loewner_slack(x, y)[0] - 1e-12


# A trial-by-trial reference for the stacked cell draw: every draw is a scalar
# SplitMix64 call and every matrix is built and solved on its own.
def _ref_spd(rng, dim, lo, hi):
    lam = [rng.uniform(lo, hi) for _ in range(dim)]
    q, r = np.linalg.qr(np.array([[rng.normal() for _ in range(dim)] for _ in range(dim)]))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    a = q.T @ np.diag(lam) @ q
    return 0.5 * (a + a.T)


def _ref_sym(a):
    return 0.5 * (a + a.T)


def _ref_roots(a):
    w, q = np.linalg.eigh(a)
    return (q * np.sqrt(w)) @ q.T, (q * (1.0 / np.sqrt(w))) @ q.T


def _ref_trial(kind, rng, dim, fixed, corner):
    """(A, B, cell, sandwich bounds or None) of one trial; an audit corner
    makes the draws of a drawn trial, then pins the commuting boundary pair."""
    if kind in ("sandwich", "st-ge-1"):
        if fixed:
            s, t = 0.5, 3.0
        else:
            a, b = rng.log_uniform(0.25, 4.0), rng.log_uniform(0.25, 4.0)
            s, t = min(a, b), max(a, b)
        if kind == "st-ge-1" and s * t < 1.0:
            s, t = 1.0 / t, 1.0 / s
        a = _ref_spd(rng, dim, 0.25, 4.0)
        c = _ref_spd(rng, dim, s, t)
        if corner:  # anti-aligned spectra hitting s and t; the draws above are discarded
            a_diag = [1.0 if j % 2 == 0 else 4.0 for j in range(dim)]
            c_diag = [t if j % 2 == 0 else s for j in range(dim)]
            a, b = np.diag(a_diag), np.diag([x * y for x, y in zip(a_diag, c_diag)])
        else:
            root, _ = _ref_roots(a)
            b = _ref_sym(root @ c @ root)
        inv_root = _ref_roots(a)[1]
        w = np.linalg.eigh(_ref_sym(inv_root @ b @ inv_root))[0]
        return a, b, (s, t), (float(w[0]), float(w[-1]))
    if kind == "free":
        return _ref_spd(rng, dim, 0.25, 4.0), _ref_spd(rng, dim, 0.25, 4.0), (), None
    if fixed:
        m, M = 1.0, 4.0
    else:
        m = rng.log_uniform(0.5, 2.0)
        M = m * rng.log_uniform(1.5, 8.0)
    a = _ref_spd(rng, dim, m, M)
    if kind == "order":
        return a, _ref_sym(a + _ref_spd(rng, dim, 1e-3, max(1e-2, M - m))), (m, M), None
    b = _ref_spd(rng, dim, m, M)
    if corner:  # anti-aligned spectra hitting m and M; the draws above are discarded
        return (np.diag([m if j % 2 == 0 else M for j in range(dim)]),
                np.diag([M if j % 2 == 0 else m for j in range(dim)]), (m, M), None)
    return a, b, (m, M), None


_CELL_IDS = {"sandwich": "midpoint", "st-ge-1": "strengthened-remark", "bounded": "polya-szego",
             "order": "squared", "free": "ando",
             "sandwich-corner": "norm-ratio-tau", "bounded-corner": "norm-ratio-eq15"}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_CELL_IDS)), dim=st.integers(1, 16),
       trials=st.integers(1, 7), seed=st.integers(0, 2**64 - 1), fixed=st.booleans())
def test_stacked_cell_draw_matches_a_trial_by_trial_draw(kind, dim, trials, seed, fixed):
    from loewner_lab.suite import ROWS, SuiteConfig

    ineq = _CELL_IDS[kind]
    cell = dict(s=0.5, t=3.0, m=1.0, M=4.0) if fixed else {}
    config = SuiteConfig(inequalities=(ineq,), **cell)
    seeds = [derive_seed(seed, k) for k in range(trials)]
    rngs = [SplitMix64(x) for x in seeds]
    corner = kind.endswith("-corner")
    A, B, cells = ROWS[ineq].cell.draw(rngs, dim, config, corner)
    assert len(A) == len(B) == len(cells) == trials
    # the draw only builds: the cell's check solves the inner matrix and B
    assert A._inner is None and B._dec is None
    _check_cell(ROWS[ineq].cell, A, B, cells)
    for k, rng in enumerate(rngs):
        ref_rng = SplitMix64(seeds[k])
        a, b, ref_cell, bounds = _ref_trial(kind.removesuffix("-corner"), ref_rng,
                                            dim, fixed, corner and k == 0)
        assert A.data[k].tobytes() == a.tobytes() and B.data[k].tobytes() == b.tobytes()
        assert cells[k] == ref_cell
        assert (rng._state, rng._spare) == (ref_rng._state, ref_rng._spare)
        for X in (A, B):  # a seeded decomposition is the one a fresh solve gives
            if X._dec is not None:
                w, q = np.linalg.eigh(X.data[k])
                assert X._dec.eigenvalues[k].tobytes() == w.tobytes()
                assert X._dec.basis[k].tobytes() == q.tobytes()
        if bounds is not None:  # roots and inner matrix as if solved alone
            root, inv_root = _ref_roots(a)
            assert A._dec.root[k].tobytes() == root.tobytes()
            assert A._dec.inv_root[k].tobytes() == inv_root.tobytes()
            assert A._inner[0] is B and A._inner[1]._dec is not None
            lo, hi = spectrum_bounds(A._inner[1])
            assert (lo[k], hi[k]) == bounds
        elif kind.startswith("bounded"):
            assert A._dec is not None and B._dec is not None


def _ref_cell(ineq, rng, fixed):
    """One trial's cell from the scalar stream, one ``log_uniform`` call per draw."""
    if ineq == "alpha-scaling":
        return (rng.log_uniform(1.0, 8.0),)
    if fixed:
        return {"specht-bound": (1.0, 4.0), "polya-szego": (1.0, 4.0)}.get(ineq, (0.5, 3.0))
    if ineq == "specht-bound":
        return (1.0, rng.log_uniform(1.0 + 1e-6, 100.0))
    if ineq == "polya-szego":
        m = rng.log_uniform(0.5, 2.0)
        return m, m * rng.log_uniform(1.5, 8.0)
    a, b = rng.log_uniform(0.25, 4.0), rng.log_uniform(0.25, 4.0)
    s, t = min(a, b), max(a, b)
    if ineq == "strengthened-remark" and s * t < 1.0:
        s, t = 1.0 / t, 1.0 / s
    return s, t


_CELL_DRAW_IDS = ("alpha-scaling", "specht-bound", "polya-szego", "midpoint",
                  "strengthened-remark")


@settings(max_examples=60, deadline=None)
@given(ineq=st.sampled_from(_CELL_DRAW_IDS), dim=st.integers(1, 4),
       trials=st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True),
       seed=st.integers(0, 2**64 - 1), fixed=st.booleans())
def test_block_seeds_and_cell_draws_match_each_trials_stream(ineq, dim, trials, seed, fixed):
    from loewner_lab.suite import SuiteConfig, _draw

    cell = dict(s=0.5, t=3.0, m=1.0, M=4.0) if fixed else {}
    config = SuiteConfig(inequalities=(ineq,), seed=seed, **cell)
    cells = _draw(ineq, dim, trials, config)[2]
    for trial, got in zip(trials, cells):
        rng = SplitMix64(derive_seed(seed, fnv1a64(ineq), dim, trial))
        assert got == _ref_cell(ineq, rng, fixed)


@settings(max_examples=60, deadline=None)
@given(ineq=st.sampled_from(("alpha-scaling", "specht-bound")),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
       spare=st.booleans())
def test_scalar_cell_block_leaves_each_stream_as_its_draws_do(ineq, seeds, spare):
    from loewner_lab.suite import ROWS, SuiteConfig

    rngs, refs = [SplitMix64(x) for x in seeds], [SplitMix64(x) for x in seeds]
    if spare:  # a held Box-Muller spare is left as it is
        for rng in rngs + refs:
            rng.normal()
    cells = ROWS[ineq].cell.draw(rngs, 3, SuiteConfig(inequalities=(ineq,)), False)[2]
    for rng, ref, got in zip(rngs, refs, cells):
        assert got == _ref_cell(ineq, ref, False)
        assert (rng._state, rng._spare) == (ref._state, ref._spare)


@settings(max_examples=100, deadline=None)
@given(master=st.integers(-2**70, 2**70), parts=st.lists(st.integers(-2**70, 2**70), max_size=3),
       last=st.lists(st.integers(-2**70, 2**70), max_size=12))
def test_derive_seeds_is_derive_seed_over_the_last_part(master, parts, last):
    from loewner_lab.generate import derive_seeds

    assert derive_seeds(master, tuple(parts), last) == [
        derive_seed(master, *parts, x) for x in last]


_RANGES = st.tuples(st.floats(1e-6, 1e3), st.floats(1.0, 1e3)).map(lambda r: (r[0], r[0] * r[1]))


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       ranges=st.lists(_RANGES, min_size=1, max_size=4), spare=st.booleans())
def test_log_uniform_rows_match_the_scalar_draws(seeds, ranges, spare):
    from loewner_lab.generate import log_uniform_rows

    rngs, refs = [SplitMix64(x) for x in seeds], [SplitMix64(x) for x in seeds]
    if spare:
        for rng in rngs + refs:
            rng.normal()
    got = log_uniform_rows(rngs, *ranges)
    assert got.shape == (len(seeds), len(ranges))
    for row, rng, ref in zip(got.tolist(), rngs, refs):
        assert row == [ref.log_uniform(lo, hi) for lo, hi in ranges]
        assert (rng._state, rng._spare) == (ref._state, ref._spare)
    with pytest.raises(ValueError, match="log_uniform needs 0 < lo <= hi"):
        log_uniform_rows(rngs, (2.0, 1.0))


def test_a_cell_is_drawn_with_one_solve_per_stack(monkeypatch):
    # the draw solves a sandwich A's roots alone; its cell's check then solves
    # the inner matrix, or a bounded or ordered pair's A and B, each once per stack
    from loewner_lab import suite

    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    one = [(40, 3, 3)]
    for ineq, drawn, checked in (("polya-szego", [], one * 2), ("midpoint", one, one * 2),
                                 ("ando", [], []), ("squared", [], one * 2)):
        calls.clear()
        config = suite.SuiteConfig(inequalities=(ineq,), dims=(3,), trials=40)
        A, B, cells = suite._draw(ineq, 3, range(40), config)
        assert len(cells) == 40 and calls == drawn, ineq
        _check_cell(suite.ROWS[ineq].cell, A, B, cells)
        assert calls == checked, ineq


def test_streams_out_of_lockstep_are_refused():
    from loewner_lab.generate import normal_rows

    a, b = SplitMix64(1), SplitMix64(2)
    a.normal()
    with pytest.raises(ValueError, match="lockstep"):
        normal_rows([a, b], 4)


def _quadratic_form_slack_rows(X, Y, samples, seed):
    """The oracle one sampled row at a time: the reference for the block form."""
    diff = (Y - X).data[0]
    rng = SplitMix64(seed)
    best = np.inf
    for _ in range(samples):
        v = rng.normal_matrix(1, diff.shape[0])[0]
        v /= np.linalg.norm(v)
        best = min(best, float(v @ diff @ v))
    return best


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_quadratic_form_oracle_matches_the_row_loop(dim):
    for seed in range(5):
        X = random_spd(dim, 0.5, 2.0, derive_seed(seed, 1))
        Y = random_spd(dim, 0.5, 2.0, derive_seed(seed, 2))
        diff = (Y - X).data[0]
        # each form sums dim^2 products of entries below 1 in size with diff's
        # entries, after a normalization: both sides round within this
        tol = 2 * (dim + 2) * np.finfo(float).eps * np.abs(diff).sum()
        got = quadratic_form_slack(X, Y, 300, seed)
        assert abs(got - _quadratic_form_slack_rows(X, Y, 300, seed)) <= tol
        assert got >= np.linalg.eigvalsh(diff)[0] - tol
