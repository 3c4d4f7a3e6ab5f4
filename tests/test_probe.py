"""Probe's stacks and hill climb: the generator's builders give, byte for
byte, the matrices built one instance at a time, and speculative windows of
moves, evaluated as stacks, give what evaluating one move at a time gives."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import SplitMix64, suite
from loewner_lab.certificates import BOUNDED, SANDWICH
from loewner_lab.cli import main as cli_main
from loewner_lab.errors import LoewnerLabError
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


def _perturb(inst, rng, lo, hi):
    """One move drawn and applied in one step, as the sequential climb did."""
    q_a, lam_a, q_c, lam_c = (x.copy() for x in inst)
    dim = lam_a.size
    move = rng.choice_index(4)
    if move == 0:
        j = rng.choice_index(dim)
        lam_a[j] = float(np.clip(lam_a[j] + 0.2 * (hi - lo) * rng.normal(), lo, hi))
    elif move == 1:
        j = rng.choice_index(dim)
        lam_c[j] = float(np.clip(lam_c[j] + 0.2 * (hi - lo) * rng.normal(), lo, hi))
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
        cand = _perturb(best, rng, *bounds)
        ratio = suite._probe_evaluate(ineq, _reference_stacks(cell, [cand], bounds), pick,
                                      config, pools)[0]
        if ratio is not None and ratio > best_ratio:
            best_ratio, best = ratio, cand
            accepted += 1
    return best, best_ratio, accepted


def _probe(ineq, config, refine, monkeypatch):
    """The probe report's JSON, and the stream's state after the climb."""
    states = []

    def climb(*args):
        out = refine(*args)
        rng = args[4]
        states.append((rng._state, rng._spare))
        return out

    monkeypatch.setattr(suite, "_refine", climb)
    return suite.probe_tightness(ineq, config).to_json(), states


@pytest.mark.parametrize("ineq", PROBED_IDS)
@pytest.mark.parametrize("dim", [1, 2, 6])
def test_windowed_climb_equals_the_sequential_one(ineq, dim, monkeypatch):
    # the report holds max_ratio, accepted_steps, pick_index and best_instance
    windowed = suite._refine
    for k, steps in enumerate([0, 1, 3, 200]):
        seed = (7 * PROBED_IDS.index(ineq) + 3 * dim + k) % 11
        config = SuiteConfig(inequalities=(ineq,), dims=(dim,), trials=2, seed=seed,
                             probe_refine_steps=steps)
        got = _probe(ineq, config, windowed, monkeypatch)
        want = _probe(ineq, config, _sequential_refine, monkeypatch)
        assert got == want, (steps, seed)


def test_probe_with_the_most_accepted_moves_is_pinned(tmp_path):
    # 55 accepted moves, each ending a window early
    path = tmp_path / "probe.json"
    code = cli_main(["probe", "--ineq", "main-decreasing", "--dims", "6", "--trials", "20",
                     "--seed", "7", "--report", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7483bb1af0d3a97a6d97e9868969a8314a40567844856210eea69ec24086a745")


BOUNDS = (1.0, 4.0)


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
    cands = [suite._moved(best, move, *BOUNDS) for move in moves]
    after = suite._moved(cands[2], moves[3], *BOUNDS)
    assert _key(after) != _key(cands[3])
    script = iter([LoewnerLabError("refused"), 0.5, 2.0, 1.5])
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
    # the window: move 3 is never evaluated alone against the old best
    assert windows == [4, 1]
    assert alone == [_key(cands[0]), _key(cands[1]), _key(cands[2]), _key(after)]
    assert (ratio, accepted) == (2.0, 1)
    assert _key(inst) == _key(cands[2])
    assert (rng._state, rng._spare) == (reference._state, reference._spare)


def test_refused_move_in_a_fallen_back_window_reads_as_none(monkeypatch):
    config, pools, best = _climb_setup(3)
    insts = [suite._moved(best, suite._draw_move(SplitMix64(k), 3), *BOUNDS) for k in range(4)]
    script = iter([LoewnerLabError("refused"), 0.5, 2.0])

    def ratios(ineq, stacks, pick, pools, tol_rel):
        if len(stacks[2]) > 1:
            raise RuntimeError("the window's stack fails")
        value = next(script)
        if isinstance(value, Exception):
            raise value
        return [value]

    monkeypatch.setattr(suite, "_probe_ratios", ratios)
    stacks = suite._probe_stacks(BOUNDED, insts, BOUNDS)
    assert suite._probe_evaluate("polya-szego", stacks, 0, config, pools, above=1.0) == [
        None, 0.5, 2.0]


def test_windows_double_up_to_64_moves(monkeypatch):
    config, pools, best = _climb_setup(200)
    windows = []

    def refuse_all(ineq, stacks, *args, **kwargs):
        windows.append(len(stacks[2]))
        return [None] * len(stacks[2])

    monkeypatch.setattr(suite, "_probe_evaluate", refuse_all)
    suite._refine("polya-szego", best, 1.0, 0, SplitMix64(2), config, pools, BOUNDS)
    assert windows == [4, 8, 16, 32, 64, 64, 12]


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
    insts = starts + [suite._moved(inst, suite._draw_move(rng, dim), *bounds) for inst in starts]
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
        suite.probe_tightness(ineq, config)
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
