import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import (
    SplitMix64,
    SymMatrix,
    estimate_sandwich,
    loewner_compare,
    quadratic_form_slack,
    random_bounded_pair,
    random_orthogonal,
    random_sandwich_pair,
    random_spd,
    spectrum_bounds,
)
from loewner_lab.generate import derive_seed, fnv1a64, mix64
from loewner_lab.spectral import op_norm


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
        np.testing.assert_allclose(out.data, np.eye(3), atol=1e-12)

    def test_determinism_bit_identical(self):
        a = random_spd(4, 0.5, 2.0, 42)
        b = random_spd(4, 0.5, 2.0, 42)
        assert np.array_equal(a.data, b.data)

    def test_spectrum_within_range(self):
        for seed in range(10):
            lo, hi = spectrum_bounds(random_spd(2, 1.0, 9.0, seed))
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
        pair = random_sandwich_pair(3, 1.0, 1.0, 7)
        scale = op_norm(pair.A)
        assert op_norm(pair.B - pair.A) <= 1e-12 * max(1.0, scale)

    def test_scaled_copy(self):
        pair = random_sandwich_pair(3, 2.0, 2.0, 7)
        assert op_norm(pair.B - 2.0 * pair.A) <= 1e-11 * max(1.0, op_norm(pair.B))

    def test_estimates_inside_claimed_interval(self):
        for seed in range(20):
            pair = random_sandwich_pair(2, 0.25, 4.0, seed)
            s_star, t_star = estimate_sandwich(pair.A, pair.B)
            assert s_star >= 0.25 - 1e-9
            assert t_star <= 4.0 + 1e-9

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            random_sandwich_pair(2, 4.0, 0.25, 0)

    def test_loewner_certified(self):
        for seed in range(5):
            pair = random_sandwich_pair(3, 0.5, 3.0, seed)
            assert loewner_compare(0.5 * pair.A, pair.B).relation in ("LE", "EQ")
            assert loewner_compare(pair.B, 3.0 * pair.A).relation in ("LE", "EQ")


class TestBoundedPair:
    def test_spectra_within_bounds(self):
        for seed in range(10):
            pair = random_bounded_pair(2, 1.0, 4.0, seed)
            for x in (pair.A, pair.B):
                lo, hi = spectrum_bounds(x)
                assert lo >= 1.0 - 1e-12
                assert hi <= 4.0 + 1e-12

    def test_loewner_bounds(self):
        for seed in range(5):
            pair = random_bounded_pair(3, 0.5, 2.0, seed)
            eye = SymMatrix.identity(3)
            for x in (pair.A, pair.B):
                assert loewner_compare(0.5 * eye, x, 1e-9).relation in ("LE", "EQ")
                assert loewner_compare(x, 2.0 * eye, 1e-9).relation in ("LE", "EQ")

    def test_near_degenerate_spread(self):
        pair = random_bounded_pair(3, 1.0, 1.0 + 1e-9, 3)
        assert op_norm(pair.A - SymMatrix.identity(3)) <= 1e-8

    def test_determinism(self):
        a = random_bounded_pair(3, 1.0, 4.0, 5)
        b = random_bounded_pair(3, 1.0, 4.0, 5)
        assert np.array_equal(a.A.data, b.A.data)
        assert np.array_equal(a.B.data, b.B.data)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            random_bounded_pair(2, 4.0, 1.0, 0)
        with pytest.raises(ValueError):
            random_bounded_pair(2, 1.0, 1.0, 0)

    def test_bridge_to_sandwich_condition(self):
        # two-sided bounds (m, M) imply the sandwich scalars (m/M, M/m)
        for seed in range(10):
            pair = random_bounded_pair(3, 1.0, 4.0, seed)
            s_star, t_star = estimate_sandwich(pair.A, pair.B)
            assert s_star >= 0.25 - 1e-9
            assert t_star <= 4.0 + 1e-9


class TestEstimateSandwich:
    def test_commuting_hand_values(self):
        s, t = estimate_sandwich(SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([4.0, 1.0]))
        assert s == pytest.approx(0.25, abs=1e-12)
        assert t == pytest.approx(4.0, abs=1e-12)

    def test_same_matrix(self):
        a = random_spd(3, 0.5, 2.0, 8)
        s, t = estimate_sandwich(a, a)
        assert s == pytest.approx(1.0, abs=1e-10)
        assert t == pytest.approx(1.0, abs=1e-10)

    def test_memo_matches_a_fresh_computation(self, monkeypatch):
        pair = random_sandwich_pair(4, 0.5, 3.0, 31)  # verify() fills the memo
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        remembered = estimate_sandwich(pair.A, pair.B)
        assert calls == []
        fresh = estimate_sandwich(SymMatrix(pair.A.data), SymMatrix(pair.B.data))
        assert remembered == fresh
        other = estimate_sandwich(pair.A, 2.0 * pair.B)  # another partner is solved
        assert other == pytest.approx((2.0 * fresh[0], 2.0 * fresh[1]), rel=1e-12)
        assert estimate_sandwich(pair.A, pair.B) == fresh

    def test_scalar_multiple(self):
        a = random_spd(3, 0.5, 2.0, 9)
        s, t = estimate_sandwich(a, 2.0 * a)
        assert s == pytest.approx(2.0, abs=1e-10)
        assert t == pytest.approx(2.0, abs=1e-10)


def test_quadratic_form_slack_upper_bounds_lambda_min():
    x = random_spd(3, 0.5, 2.0, 21)
    y = random_spd(3, 0.5, 2.0, 22)
    from loewner_lab import loewner_slack

    assert quadratic_form_slack(x, y, 500, 0) >= loewner_slack(x, y) - 1e-12


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
    """(A, B, cell, sandwich bounds or None) of one trial."""
    if kind in ("sandwich", "st-ge-1"):
        if fixed:
            s, t = 0.5, 3.0
        else:
            a, b = rng.log_uniform(0.25, 4.0), rng.log_uniform(0.25, 4.0)
            s, t = min(a, b), max(a, b)
        if kind == "st-ge-1" and s * t < 1.0:
            s, t = 1.0 / t, 1.0 / s
        if corner:
            a_diag = [1.0 if j % 2 == 0 else 4.0 for j in range(dim)]
            c_diag = [t if j % 2 == 0 else s for j in range(dim)]
            return np.diag(a_diag), np.diag([x * y for x, y in zip(a_diag, c_diag)]), (s, t), None
        a = _ref_spd(rng, dim, 0.25, 4.0)
        c = _ref_spd(rng, dim, s, t)
        root, inv_root = _ref_roots(a)
        b = _ref_sym(root @ c @ root)
        w = np.linalg.eigh(_ref_sym(inv_root @ b @ inv_root))[0]
        return a, b, (s, t), (float(w[0]), float(w[-1]))
    if kind == "free":
        return _ref_spd(rng, dim, 0.25, 4.0), _ref_spd(rng, dim, 0.25, 4.0), (), None
    if fixed:
        m, M = 1.0, 4.0
    else:
        m = rng.log_uniform(0.5, 2.0)
        M = m * rng.log_uniform(1.5, 8.0)
    if kind == "bounded" and corner:
        return (np.diag([m if j % 2 == 0 else M for j in range(dim)]),
                np.diag([M if j % 2 == 0 else m for j in range(dim)]), (m, M), None)
    a = _ref_spd(rng, dim, m, M)
    if kind == "order":
        return a, _ref_sym(a + _ref_spd(rng, dim, 1e-3, max(1e-2, M - m))), (m, M), None
    return a, _ref_spd(rng, dim, m, M), (m, M), None


_CELL_IDS = {"sandwich": "midpoint", "st-ge-1": "strengthened-remark", "bounded": "polya-szego",
             "order": "squared", "free": "ando",
             "sandwich-corner": "norm-ratio-tau", "bounded-corner": "norm-ratio-eq15"}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_CELL_IDS)), dim=st.integers(1, 16),
       trials=st.integers(1, 7), seed=st.integers(0, 2**64 - 1), fixed=st.booleans())
def test_stacked_cell_draw_matches_a_trial_by_trial_draw(kind, dim, trials, seed, fixed):
    from loewner_lab.suite import INEQUALITIES, SuiteConfig

    ineq = _CELL_IDS[kind]
    cell = dict(s=0.5, t=3.0, m=1.0, M=4.0) if fixed else {}
    config = SuiteConfig(inequalities=(ineq,), **cell)
    seeds = [derive_seed(seed, k) for k in range(trials)]
    rngs = [SplitMix64(x) for x in seeds]
    corner = kind.endswith("-corner")
    drawn = INEQUALITIES[ineq].draw(rngs, dim, config, corner)
    assert len(drawn) == trials
    for k, (rng, (A, B, got_cell)) in enumerate(zip(rngs, drawn)):
        ref_rng = SplitMix64(seeds[k])
        a, b, ref_cell, bounds = _ref_trial(kind.removesuffix("-corner"), ref_rng,
                                            dim, fixed, corner and k == 0)
        assert A.data.tobytes() == a.tobytes() and B.data.tobytes() == b.tobytes()
        assert got_cell == ref_cell
        assert (rng._state, rng._spare) == (ref_rng._state, ref_rng._spare)
        for X in (A, B):  # a seeded decomposition is the one a fresh solve gives
            if X._dec is not None:
                w, q = np.linalg.eigh(X.data)
                assert X._dec.eigenvalues.tobytes() == w.tobytes()
                assert X._dec.basis.tobytes() == q.tobytes()
        if bounds is not None:  # generated sandwich pair: roots and memo as if solved alone
            root, inv_root = _ref_roots(a)
            assert A._dec.root.tobytes() == root.tobytes()
            assert A._dec.inv_root.tobytes() == inv_root.tobytes()
            assert A._sandwich[0] is B and A._sandwich[1] == bounds
        elif kind in ("bounded", "bounded-corner") and not (corner and k == 0):
            assert A._dec is not None and B._dec is not None


def test_a_cell_is_drawn_with_one_solve_per_stack(monkeypatch):
    from loewner_lab import suite

    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    for ineq, solves in (("polya-szego", [(40, 3, 3)] * 2), ("midpoint", [(40, 3, 3)] * 2),
                         ("ando", []), ("squared", [])):
        calls.clear()
        config = suite.SuiteConfig(inequalities=(ineq,), dims=(3,), trials=40)
        assert len(suite._draw_cell(ineq, 3, config)) == 40
        assert calls == solves, ineq


def test_streams_out_of_lockstep_are_refused():
    from loewner_lab.generate import normal_rows

    a, b = SplitMix64(1), SplitMix64(2)
    a.normal()
    with pytest.raises(ValueError, match="lockstep"):
        normal_rows([a, b], 4)
