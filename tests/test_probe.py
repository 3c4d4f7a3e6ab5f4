"""Probe's stacks and hill climb: the generator's builders give, byte for
byte, the matrices built one instance at a time, and speculative windows of
moves, evaluated as stacks, give what evaluating one move at a time gives."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import SplitMix64, certificates, random_orthogonal, suite
from loewner_lab.certificates import A_SPECTRUM, BOUNDED, SANDWICH
from loewner_lab.cli import main as cli_main
from loewner_lab.errors import LoewnerLabError
from loewner_lab.generate import uniform_rows
from loewner_lab.spectral import SymStack, decompose
from loewner_lab.suite import SuiteConfig
from oracles import one

PROBED_IDS = [i for i, entry in suite.ROWS.items() if entry.cell.probe is not None]


def _rotate(q, rng):
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


def _perturb(inst, rng, spectra):
    """One move drawn and applied in one step, as the sequential climb did:
    an eigenvalue of A or of C moves within its own range of ``spectra``."""
    q_a, lam_a, q_c, lam_c = (x.copy() for x in inst)
    dim = lam_a.size
    move = rng.choice_index(4)
    if move < 2:
        lam = lam_a if move == 0 else lam_c
        lo, hi = spectra[move]
        j = rng.choice_index(dim)
        lam[j] = float(np.clip(lam[j] + 0.2 * (hi - lo) * rng.normal(), lo, hi))
    elif move == 2:
        q_a = _rotate(q_a, rng)
    else:
        q_c = _rotate(q_c, rng)
    return q_a, lam_a, q_c, lam_c


def _instance_matrices(cell, inst):
    """The instance's (A, B), built one matrix at a time: the reference for
    ``suite._probe_stacks``."""
    q_a, lam_a, q_c, lam_c = inst
    A = one(q_a.T @ np.diag(lam_a) @ q_a)
    C = one(q_c.T @ np.diag(lam_c) @ q_c)
    if cell is BOUNDED:
        return A, C
    root = decompose(A).root
    return A, SymStack(root @ C.data @ root)


def _reference_stacks(cell, insts, bounds):
    pairs = [_instance_matrices(cell, inst) for inst in insts]
    A, B = (SymStack(np.concatenate([X.data for X in Xs])) for Xs in zip(*pairs))
    return A, B, [bounds] * len(insts)


def _sequential_refine(ineq, best, best_ratio, pick, rng, config, pools, bounds):
    """The hill climb one candidate at a time: the reference for ``suite._refine``."""
    cell = suite.ROWS[ineq].cell
    accepted = 0
    for _ in range(config.probe_refine_steps):
        cand = _perturb(best, rng, cell.spectra(*bounds))
        ratio = suite._probe_evaluate(ineq, _reference_stacks(cell, [cand], bounds), pick,
                                      config, pools)[0]
        if ratio is not None and ratio > best_ratio:
            best_ratio, best = ratio, cand
            accepted += 1
    return best, best_ratio, accepted


def _probe(config, refine, monkeypatch):
    """The probe report's JSON, and the stream's state after the climb."""
    states = []

    def climb(*args):
        out = refine(*args)
        rng = args[4]
        states.append((rng._state, rng._spare))
        return out

    monkeypatch.setattr(suite, "_refine", climb)
    return suite.probe_tightness(config).to_json(), states


@pytest.mark.parametrize("ineq", PROBED_IDS)
@pytest.mark.parametrize("dim", [1, 2, 6])
def test_windowed_climb_equals_the_sequential_one(ineq, dim, monkeypatch):
    # the report holds max_ratio, accepted_steps, pick_index and best_instance
    windowed = suite._refine
    for k, steps in enumerate([0, 1, 3, 200]):
        seed = (7 * PROBED_IDS.index(ineq) + 3 * dim + k) % 11
        config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=2, seed=seed,
                             probe_refine_steps=steps)
        got = _probe(config, windowed, monkeypatch)
        want = _probe(config, _sequential_refine, monkeypatch)
        assert got == want, (steps, seed)


def test_probe_with_the_most_accepted_moves_is_pinned(tmp_path):
    # 55 accepted moves, each ending a window early
    path = tmp_path / "probe.json"
    code = cli_main(["probe", "--ineq", "main-decreasing", "--dims", "6", "--trials", "20",
                     "--seed", "7", "--report", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7483bb1af0d3a97a6d97e9868969a8314a40567844856210eea69ec24086a745")


@pytest.mark.parametrize("ineq", PROBED_IDS)
def test_probe_never_solves_a_slack(ineq, monkeypatch):
    # probe climbs on the ratio alone: its certificates' slacks are never solved
    config = SuiteConfig(inequalities=(ineq,), dims=(3,), trials=2, seed=1,
                         probe_refine_steps=40)
    want = suite.probe_tightness(config).to_json()

    def loewner_slack(X, Y):
        raise AssertionError("probe solved a slack")

    monkeypatch.setattr(certificates, "loewner_slack", loewner_slack)
    assert suite.probe_tightness(config).to_json() == want


BOUNDS = (1.0, 4.0)
SPECTRA = BOUNDED.spectra(*BOUNDS)


def _climb_setup(steps):
    config = SuiteConfig(inequalities=("polya-szego",), dims=(3,), trials=2, seed=4,
                         probe_refine_steps=steps)
    pools = suite._build_pools(config, 3)
    best = suite._probe_starts(BOUNDED, 3, SplitMix64(1), *BOUNDS, 0)[1]
    return config, pools, best


def _key(inst):
    A, B = _instance_matrices(BOUNDED, inst)
    return A.data.tobytes() + B.data.tobytes()


def test_window_that_raises_is_evaluated_one_move_at_a_time(monkeypatch):
    config, pools, best = _climb_setup(4)
    reference = SplitMix64(2)
    moves = [suite._draw_move(reference, 3) for _ in range(4)]
    # the four moves from the old best, and move 3 from the best after move 2
    cands = [suite._moved(best, move, SPECTRA) for move in moves]
    after = suite._moved(cands[2], moves[3], SPECTRA)
    assert _key(after) != _key(cands[3])
    script = iter([LoewnerLabError("refused"), 0.5, 2.0, 3.0, 1.5])
    alone, windows = [], []

    def ratios(ineq, stacks, pick, pools, tol_rel):
        A, B, cells = stacks
        if len(cells) > 1:
            raise RuntimeError("the window's stack fails")
        alone.append(A.data.tobytes() + B.data.tobytes())
        value = next(script)
        if isinstance(value, Exception):
            raise value
        return [value]

    real = suite._probe_evaluate
    monkeypatch.setattr(suite, "_probe_ratios", ratios)
    monkeypatch.setattr(suite, "_probe_evaluate",
                        lambda ineq, stacks, *a, **kw: windows.append(len(stacks[2])) or real(
                            ineq, stacks, *a, **kw))
    rng = SplitMix64(2)
    inst, ratio, accepted = suite._refine("polya-szego", best, 1.0, 0, rng, config, pools,
                                          BOUNDS)
    # move 0 is refused (None), move 1 falls short, move 2 is accepted and ends
    # the window: move 3 is evaluated alone against the old best too, and its
    # larger ratio is dropped, since the first accepted move ends the window
    assert windows == [4, 1]
    assert alone == [*map(_key, cands), _key(after)]
    assert (ratio, accepted) == (2.0, 1)
    assert _key(inst) == _key(cands[2])
    assert (rng._state, rng._spare) == (reference._state, reference._spare)


def test_refused_move_in_a_fallen_back_window_reads_as_none(monkeypatch):
    config, pools, best = _climb_setup(3)
    insts = [suite._moved(best, suite._draw_move(SplitMix64(k), 3), SPECTRA) for k in range(4)]
    script = iter([LoewnerLabError("refused"), 0.5, 2.0, 1.5])

    def ratios(ineq, stacks, pick, pools, tol_rel):
        if len(stacks[2]) > 1:
            raise RuntimeError("the window's stack fails")
        value = next(script)
        if isinstance(value, Exception):
            raise value
        return [value]

    monkeypatch.setattr(suite, "_probe_ratios", ratios)
    stacks = suite._probe_stacks(BOUNDED, insts, BOUNDS)
    # every slice is evaluated alone, to the end
    assert suite._probe_evaluate("polya-szego", stacks, 0, config, pools) == [
        None, 0.5, 2.0, 1.5]


def test_windows_double_up_to_64_moves(monkeypatch):
    # windows are counted in moves, also moves that change nothing: those give
    # the best instance itself, which never reaches the window's stack
    config, pools, best = _climb_setup(200)
    moved, windows = [], []
    real_moved, real_stacks = suite._moved, suite._probe_stacks

    def move(inst, *args):
        out = real_moved(inst, *args)
        moved.append(out is inst)
        return out

    def stacks(cell, insts, bounds):
        assert all(inst is not best for inst in insts)
        return real_stacks(cell, insts, bounds)

    def refuse_all(ineq, stacks, *args, **kwargs):
        windows.append(len(moved) - sum(windows))
        return [None] * len(stacks[2])

    monkeypatch.setattr(suite, "_moved", move)
    monkeypatch.setattr(suite, "_probe_stacks", stacks)
    monkeypatch.setattr(suite, "_probe_evaluate", refuse_all)
    suite._refine("polya-szego", best, 1.0, 0, SplitMix64(2), config, pools, BOUNDS)
    assert windows == [4, 8, 16, 32, 64, 64, 12]
    assert 0 < sum(moved) < len(moved)  # best's eigenvalues at the bounds stay put


def test_an_accepted_move_halves_the_next_window_down_to_5(monkeypatch):
    # every move is a new instance here, so each window's stack holds all its
    # moves; a script says which of them, if any, is accepted
    config, pools, best = _climb_setup(300)
    hits = iter([None, None, 3, 0, 0, 0, None, None, 7, None, None, None, None, 0])
    real_moved, windows, ratios = suite._moved, [], iter(range(2, 100))

    def evaluate(ineq, stacks, *args, **kwargs):
        n = len(stacks[2])
        windows.append(n)
        hit = next(hits, None)
        return [float(next(ratios)) if k == hit else None for k in range(n)]

    monkeypatch.setattr(suite, "_moved", lambda inst, *args: tuple([*real_moved(inst, *args)]))
    monkeypatch.setattr(suite, "_probe_evaluate", evaluate)
    _, ratio, accepted = suite._refine("polya-szego", best, 1.0, 0, SplitMix64(2), config,
                                       pools, BOUNDS)
    assert windows == [4, 8, 16, 8, 5, 5, 5, 10, 20, 10, 20, 40, 64, 64, 32, 64, 27]
    assert (ratio, accepted) == (7.0, 6)


@pytest.mark.parametrize("error", [LoewnerLabError("refused"), RuntimeError("broken")])
def test_a_stack_of_one_that_raises_is_evaluated_once(error, monkeypatch):
    # a one-slice stack is its slice alone: its error is not met a second
    # time, while a larger stack still falls back to each slice
    config, pools, best = _climb_setup(0)
    calls = []

    def ratios(ineq, stacks, *args):
        calls.append(len(stacks[2]))
        raise error

    monkeypatch.setattr(suite, "_probe_ratios", ratios)
    for n, want_calls in ((1, [1]), (3, [3, 1, 1, 1])):
        calls.clear()
        stacks = suite._probe_stacks(BOUNDED, [best] * n, BOUNDS)
        if isinstance(error, LoewnerLabError):
            assert suite._probe_evaluate("polya-szego", stacks, 0, config, pools) == [None] * n
        else:
            with pytest.raises(RuntimeError):
                suite._probe_evaluate("polya-szego", stacks, 0, config, pools)
            want_calls = want_calls[:2]
        assert calls == want_calls


def _loop_starts(cell, dim, rng, lo, hi, n_random):
    """Random starts drawn one at a time from one stream: lam_a, lam_c, Q_a,
    then Q_c; the reference for the block draw of ``suite._probe_starts``."""
    a_range, c_range = cell.spectra(lo, hi)
    starts = []
    for _ in range(n_random):
        lam_a = uniform_rows([rng], dim, *a_range)[0]
        lam_c = uniform_rows([rng], dim, *c_range)[0]
        starts.append((random_orthogonal(dim, rng), lam_a, random_orthogonal(dim, rng), lam_c))
    return starts


@pytest.mark.parametrize("cell, bounds", [(BOUNDED, BOUNDS), (SANDWICH, (0.25, 4.0))])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 6])
@pytest.mark.parametrize("n_random", [0, 1, 3, 20])
@pytest.mark.parametrize("spare", [False, True])
def test_block_drawn_starts_equal_the_starts_drawn_one_at_a_time(cell, bounds, dim, n_random,
                                                                 spare):
    # odd dim^2 passes a Box-Muller spare between a start's two factors; a
    # stream that already holds one passes it from start to start
    got_rng, want_rng = SplitMix64(dim + 10 * n_random), SplitMix64(dim + 10 * n_random)
    if spare:
        assert got_rng.normal() == want_rng.normal()
    got = suite._probe_starts(cell, dim, got_rng, *bounds, n_random)
    want = (suite._probe_starts(cell, dim, want_rng, *bounds, 0)
            + _loop_starts(cell, dim, want_rng, *bounds, n_random))
    assert len(got) == len(want) == 2 + n_random
    for got_inst, want_inst in zip(got, want):
        for x, y in zip(got_inst, want_inst):
            assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())
    assert (got_rng._state, got_rng._spare) == (want_rng._state, want_rng._spare)


@pytest.mark.parametrize("dim", [3, 6])
def test_start_draw_makes_two_qr_calls_whatever_the_starts(dim, monkeypatch):
    # one for the corner's factor, and one for both factors of every random start
    real, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or real(a))
    for n_random in (0, 1, 3, 20):
        calls.clear()
        suite._probe_starts(BOUNDED, dim, SplitMix64(7), *BOUNDS, n_random)
        assert calls == [(1, dim, dim), (2 * n_random, dim, dim)]


def test_corner_starts_are_pinned():
    # starts 0 and 1 at dim 3: the bounded cell's draw corner, with one shared
    # rotation in start 1, and probe's own sandwich corner, with C unrotated
    eye = np.eye(3)
    for cell, bounds, lam_a, lam_c, both in ((SANDWICH, (0.25, 4.0), [0.5, 0.75, 1.0],
                                              [4.0, 0.25, 4.0], False),
                                             (BOUNDED, BOUNDS, [1.0, 4.0, 1.0],
                                              [4.0, 1.0, 4.0], True)):
        (q_a0, lam_a0, q_c0, lam_c0), (q, lam_a1, q_c1, lam_c1) = suite._probe_starts(
            cell, 3, SplitMix64(1), *bounds, 0)
        assert hashlib.sha256(q.tobytes()).hexdigest() == (
            "04e63e2f4cfffb08f60f88c0e5a60d639ce18a908fa2eef52e2a1bb7320f8153")
        assert [x.tolist() for x in (lam_a0, lam_c0, lam_a1, lam_c1)] == [lam_a, lam_c] * 2
        for x, want in ((q_a0, eye), (q_c0, eye), (q_c1, q if both else eye)):
            assert x.tobytes() == want.tobytes()


def test_bounded_corner_start_is_the_draws_corner():
    start = suite._probe_starts(BOUNDED, 3, SplitMix64(1), *BOUNDS, 0)[0]
    A, B, _ = suite._probe_stacks(BOUNDED, [start], BOUNDS)
    drawn = BOUNDED.draw([SplitMix64(k) for k in range(3)], 3,
                         SimpleNamespace(m=BOUNDS[0], M=BOUNDS[1]), corner=True)
    assert A.data[0].tobytes() == drawn[0].data[0].tobytes()
    assert B.data[0].tobytes() == drawn[1].data[0].tobytes()


@pytest.mark.parametrize("st", [(0.9, 1.1), (2.0, 3.0)])
def test_moves_keep_each_spectrum_in_its_own_range(st):
    # at fixed (s, t) a sandwich A's spectrum still ranges over A_SPECTRUM:
    # a move of A is scaled and clipped by A_SPECTRUM, and one of C by [s, t]
    spectra = SANDWICH.spectra(*st)
    assert spectra == (A_SPECTRUM, st)
    rng = SplitMix64(3)
    insts = suite._probe_starts(SANDWICH, 4, rng, *st, 2)
    kinds = set()
    for inst in insts:
        for _ in range(20):
            kind, i, j, x = move = suite._draw_move(rng, 4)
            got = suite._moved(inst, move, spectra)
            if kind < 2:
                (lo, hi), k = spectra[kind], 1 + 2 * kind
                want = inst[k].copy()
                want[i] = min(max(want[i] + 0.2 * (hi - lo) * x, lo), hi)
                assert got[k].tolist() == want.tolist()
                kinds.add(kind)
    assert kinds == {0, 1}
    # probe's sandwich corner holds A's eigenvalue 0.5, outside [s, t]: a
    # move of it stays in A_SPECTRUM, and is not pulled into [s, t]
    moved = suite._moved(insts[0], (0, 3, None, 0.1), spectra)[1]
    assert moved.tolist() == [0.5, 0.75, 1.0, 0.5 + 0.2 * 3.75 * 0.1]


def test_moves_that_change_nothing_give_the_instance_itself():
    # the corner start's eigenvalues sit at the bounds (1, 4): a move outward
    # is clipped back, and a step that rounds away leaves the value too
    corner = suite._probe_starts(BOUNDED, 3, SplitMix64(1), *BOUNDS, 0)[0]
    assert [corner[1].tolist(), corner[3].tolist()] == [[1.0, 4.0, 1.0], [4.0, 1.0, 4.0]]
    for move in ((0, 0, None, -1.0), (0, 1, None, 2.0), (0, 0, None, 1e-300),
                 (1, 0, None, 0.5), (1, 1, None, -3.0), (1, 2, None, -1e-300)):
        assert suite._moved(corner, move, SPECTRA) is corner, move
    # a rotation at dim 1 is no move
    rng = SplitMix64(5)
    single = suite._probe_starts(BOUNDED, 1, rng, *BOUNDS, 1)[2]
    rotations = [m for m in (suite._draw_move(rng, 1) for _ in range(20)) if m[0] >= 2]
    assert {m[0] for m in rotations} == {2, 3}
    for move in rotations:
        assert move[1:] == (None, None, None)
        assert suite._moved(single, move, SPECTRA) is single
    # any other move gives a new instance, which keeps the arrays it does not move
    for move, kept in (((0, 0, None, 0.5), (0, 2, 3)), ((1, 0, None, -0.5), (0, 1, 2)),
                       ((2, 0, 1, 0.1), (1, 2, 3)), ((3, 1, 2, -0.1), (0, 1, 3))):
        got = suite._moved(corner, move, SPECTRA)
        assert got is not corner
        assert [got[k] is corner[k] for k in range(4)] == [k in kept for k in range(4)]


@pytest.mark.parametrize("old", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("x", [-6.0, -5.0, -2.0, -1e-300, 0.0, 1e-300, 2.0, 3.0, 5.0, 6.0])
def test_eigenvalue_moves_clip_as_numpy_does(old, x):
    # a range of width 5, so a move's step is x itself: values inside, at and
    # beyond each bound give numpy's clip bit for bit, and an unchanged value
    # gives the instance itself
    spectra = ((1.0, 6.0), (1.0, 6.0))
    inst = (np.eye(2), np.array([old, 2.0]), np.eye(2), np.array([2.0, old]))
    want = float(np.clip(old + 0.2 * 5.0 * x, 1.0, 6.0))
    for kind, k, i in ((0, 1, 0), (1, 3, 1)):
        got = suite._moved(inst, (kind, i, None, x), spectra)
        assert got[k][i].tobytes() == np.float64(want).tobytes()
        assert (got is inst) == (want == old)


class _ScanOver(Exception):
    pass


def _scanned_picks(config, monkeypatch) -> list:
    """The pick of each ``_probe_evaluate`` call of the start scan, in order."""
    picks, real = [], suite._probe_evaluate

    def stop(*args):
        raise _ScanOver

    monkeypatch.setattr(suite, "_probe_evaluate", lambda ineq, stacks, pick, *a: picks.append(
        pick) or real(ineq, stacks, pick, *a))
    monkeypatch.setattr(suite, "_refine", stop)
    with pytest.raises(_ScanOver):
        suite.probe_tightness(config)
    return picks


_EIGHT_NORMS = ("op", "fro", "nuclear", "trace", "kyfan:2", "kyfan:3", "schatten:3", "schatten:4")


@pytest.mark.parametrize("ineq, fields, picks", [
    ("sandwich-lemma", {}, [0]), ("midpoint", {}, [0]),
    ("squared-consequence-f", {}, [0, 1, 2, 3]), ("squared-consequence-g", {}, [0, 1, 2]),
    # eight picks of eight norms: polya-szego reads only the six maps
    ("polya-szego", {"norms": _EIGHT_NORMS}, [0, 1, 2, 3, 4, 5]),
    # 130 starts of dim 16 are two chunks, each evaluated once
    ("sandwich-lemma", {"dims": (16,), "trials": 128}, [0, 0]),
    ("midpoint", {"dims": (16,), "trials": 128}, [0, 0]),
])
def test_start_scan_skips_repeated_picks(ineq, fields, picks, monkeypatch):
    # of as many picks as the largest spec pool has items (six at the
    # defaults), the first of each combination of the row's pool items is
    # scanned, once per chunk of starts: a row with no picks scans pick 0
    config = SuiteConfig(**{"inequalities": (ineq,), "dims": (3,), "trials": 4, "seed": 1,
                            **fields})
    dim, = config.dims
    pools = suite._build_pools(config, dim)
    assert max(len(pools[name]) for name in suite.SPEC_POOLS) == (8 if "norms" in fields else 6)
    assert len(suite._chunks(list(range(config.trials + 2)), dim)) == picks.count(0)
    assert _scanned_picks(config, monkeypatch) == picks


@pytest.mark.parametrize("args, sha", [
    (["--ineq", "sandwich-lemma", "--seed", "0"],
     "5bc9a3a8fdece6d096912ed38c1076fefbfc6532f0d137361f299db21556255f"),
    (["--ineq", "sandwich-lemma", "--seed", "1"],
     "449fedbf1a827e1aacf276fa8b303db92339c804e425c8e3678d915e02248650"),
    (["--ineq", "sandwich-lemma", "--seed", "2"],
     "25d2cb3d12d7dbfa002f72e5317d535a651b74b138d2fed16fbafbd836562cd3"),
    (["--ineq", "midpoint", "--seed", "0"],
     "fcd9df94e0a5e152efdfc5c94f8290291841d13da0ade1b5b51a90c61b1a201d"),
    (["--ineq", "midpoint", "--seed", "1"],
     "1577797525931599cd34aea3ec2cb6be79f9ca05b02f3f68b1b4e72cafc2f2ec"),
    (["--ineq", "midpoint", "--seed", "2"],
     "f64e09104b4ae8a1e4cf2e582870bb1769fc6e1c9536cb4ce4ad13a68b195958"),
    (["--ineq", "squared-consequence-g", "--seed", "0"],
     "712fcb5d3f2f1e0457c22786e3367811974193430604b00cde867753438d9f55"),
    (["--ineq", "squared-consequence-g", "--seed", "1"],
     "d0889cd8a0646fc916c7f8b742b2644f6304d1a6ceaf5e95d8fb8b3924612377"),
    (["--ineq", "squared-consequence-g", "--seed", "2"],
     "b7a85b1bc3577df8679b202805b25305780997563e2ccfe4748888ee4693c0b1"),
    # eight norms make eight picks of the six maps: picks 6 and 7 repeat 0 and 1
    (["--ineq", "polya-szego", "--seed", "1",
      "--norm", "op,fro,nuclear,trace,kyfan:2,kyfan:3,schatten:3,schatten:4"],
     "ba7397948ff5706c4df600405f276c563617fb9e0b8b4c4e02b94bf91dbebf97"),
])
def test_probes_that_skip_repeated_picks_are_pinned(args, sha, tmp_path):
    # the report bytes of evaluating every pick, before repeated ones were skipped
    path = tmp_path / "probe.json"
    assert cli_main(["probe", *args, "--dims", "3", "--trials", "4", "--report", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("ineq", ["main-monotone", "strengthened-remark"])
@pytest.mark.parametrize("st", [(0.9, 1.1), (2.0, 3.0)])
def test_windowed_climb_at_fixed_bounds_equals_the_sequential_one(ineq, st, monkeypatch):
    config = SuiteConfig(inequalities=(ineq,), dims=(4,), trials=10, seed=3,
                         probe_refine_steps=200, s=st[0], t=st[1])
    assert (_probe(config, suite._refine, monkeypatch)
            == _probe(config, _sequential_refine, monkeypatch))


@settings(max_examples=60, deadline=None)
@given(bounded=st.booleans(), dim=st.integers(1, 16),
       n=st.integers(0, 4), seed=st.integers(0, 2**64 - 1), wide=st.booleans())
def test_probe_stacks_equal_the_instances_built_one_by_one(bounded, dim, n, seed, wide):
    # the corner starts, random starts, and each of them after one move
    cell = BOUNDED if bounded else SANDWICH
    bounds = {(True, False): (1.0, 4.0), (True, True): (1e-3, 1e3),
              (False, False): (0.25, 4.0), (False, True): (0.5, 0.8)}[bounded, wide]
    rng = SplitMix64(seed)
    starts = suite._probe_starts(cell, dim, rng, *bounds, n)
    spectra = cell.spectra(*bounds)
    insts = starts + [suite._moved(inst, suite._draw_move(rng, dim), spectra) for inst in starts]
    A, B, cells = suite._probe_stacks(cell, insts, bounds)
    assert cells == [bounds] * len(insts)
    for k, inst in enumerate(insts):
        a, b = _instance_matrices(cell, inst)
        assert A.data[k].tobytes() == a.data[0].tobytes()
        assert B.data[k].tobytes() == b.data[0].tobytes()


@pytest.mark.parametrize("ineq", PROBED_IDS)
def test_start_scan_solves_each_start_once(ineq, monkeypatch):
    # every pick reads the same stacks of starts, so no start's A or B is
    # eigendecomposed again at a later pick.  The sandwich cell has s*t != 1:
    # at s*t = 1, diaz-metcalf, klamkin-mclenaghan and strengthened-remark
    # solve sqrt(st) A = 1.0 * A as a new matrix of A's entries at every pick.
    cell = suite.ROWS[ineq].cell
    fixed = {} if cell is BOUNDED else {"s": 0.5, "t": 4.0}
    config = SuiteConfig(inequalities=(ineq,), dims=(3,), trials=4, seed=5, **fixed)
    starts, solved = [], []
    real_starts, real_eigh = suite._probe_starts, np.linalg.eigh

    def eigh(a):
        solved.extend(x.tobytes() for x in a.reshape(-1, *a.shape[-2:]))
        return real_eigh(a)

    class ScanOver(Exception):
        pass

    def stop(*args):
        raise ScanOver

    monkeypatch.setattr(suite, "_probe_starts",
                        lambda *a: starts.extend(real_starts(*a)) or list(starts))
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(suite, "_refine", stop)
    with pytest.raises(ScanOver):
        suite.probe_tightness(config)
    scan = list(solved)  # the reference builder below solves too
    assert len(starts) == 6
    # start 0 is diagonal, and a pinching map gives a diagonal matrix back as
    # a new matrix of the same entries
    for inst in starts[1:]:
        for X in _instance_matrices(cell, inst):
            assert scan.count(X.data[0].tobytes()) <= 1


def test_reflected_cell_is_probed_where_its_draw_reflects_it(tmp_path):
    # strengthened-remark's draw reflects (0.5, 0.8) into s*t >= 1, as (1.25, 2.0);
    # probe searches those bounds, so it finds the instances that verify draws
    def probe(s, t):
        path = tmp_path / f"probe-{s}.json"
        code = cli_main(["probe", "--ineq", "strengthened-remark", "--s", s, "--t", t,
                         "--dims", "2", "--trials", "2", "--report", str(path)])
        return code, suite.load_report(str(path))["probe"] if code == 0 else None

    code, reflected = probe("0.5", "0.8")
    assert code == 0
    assert reflected["cell"] == {"s": 1.25, "t": 2.0}
    assert probe("1.25", "2.0") == (0, reflected)


def test_probe_scans_every_item_of_the_largest_spec_pool(tmp_path, monkeypatch):
    # the pick count is the size of the largest spec pool, whichever field
    # holds it: here the three norms, with one map, kernel and monotone and
    # decreasing function, and the two default convex functions
    picks = set()
    real = suite._probe_evaluate
    monkeypatch.setattr(suite, "_probe_evaluate",
                        lambda ineq, stacks, pick, *a, **k: picks.add(pick)
                        or real(ineq, stacks, pick, *a, **k))
    assert cli_main(["probe", "--ineq", "norm-ratio-eq15", "--phi", "identity", "--tau",
                     "geometric", "--f", "id", "--g", "inv_power:1", "--norm", "op,fro,nuclear",
                     "--dims", "2", "--trials", "2", "--report", str(tmp_path / "probe.json")]) == 0
    assert picks == {0, 1, 2}
