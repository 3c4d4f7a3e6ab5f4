"""Probe's hill climb: speculative windows of moves, evaluated as stacks, give
what evaluating one move at a time gives."""

import hashlib
import math

import numpy as np
import pytest

from loewner_lab import SplitMix64, suite
from loewner_lab.cli import main as cli_main
from loewner_lab.errors import LoewnerLabError
from loewner_lab.suite import SuiteConfig

PROBED_IDS = [i for i, entry in suite.INEQUALITIES.items()
              if entry.cell in ("bounded", "sandwich")]


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


def _perturb(inst, rng):
    """One move drawn and applied in one step, as the sequential climb did."""
    out = suite._ProbeInstance(inst.q_a.copy(), inst.lam_a.copy(), inst.q_c.copy(),
                               inst.lam_c.copy(), inst.lo, inst.hi, inst.family)
    dim = out.lam_a.size
    move = rng.choice_index(4)
    if move == 0:
        j = rng.choice_index(dim)
        out.lam_a[j] = float(np.clip(out.lam_a[j] + 0.2 * (inst.hi - inst.lo) * rng.normal(),
                                     inst.lo, inst.hi))
    elif move == 1:
        j = rng.choice_index(dim)
        out.lam_c[j] = float(np.clip(out.lam_c[j] + 0.2 * (inst.hi - inst.lo) * rng.normal(),
                                     inst.lo, inst.hi))
    elif move == 2:
        out.q_a = _rotate(out.q_a, rng)
    else:
        out.q_c = _rotate(out.q_c, rng)
    return out


def _sequential_refine(ineq, best, best_ratio, pick, rng, config, pools):
    """The hill climb one candidate at a time: the reference for ``suite._refine``."""
    accepted = 0
    for _ in range(config.probe_refine_steps):
        cand = _perturb(best, rng)
        ratio = suite._probe_evaluate(ineq, [suite._probe_instance(cand)], pick, config, pools)[0]
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


def _climb_setup(steps):
    config = SuiteConfig(inequalities=("polya-szego",), dims=(3,), trials=2, seed=4,
                         probe_refine_steps=steps)
    pools = suite._build_pools(config, 3)
    best = suite._probe_starts("bounded", 3, SplitMix64(1), 1.0, 4.0, 0)[1]
    return config, pools, best


def _key(inst):
    A, B, _ = suite._probe_instance(inst)
    return A.data.tobytes() + B.data.tobytes()


def test_window_that_raises_is_evaluated_one_move_at_a_time(monkeypatch):
    config, pools, best = _climb_setup(4)
    reference = SplitMix64(2)
    moves = [suite._draw_move(reference, 3) for _ in range(4)]
    # the four moves from the old best, and move 3 from the best after move 2
    cands = [best.moved(move) for move in moves]
    after = cands[2].moved(moves[3])
    assert _key(after) != _key(cands[3])
    script = iter([LoewnerLabError("refused"), 0.5, 2.0, 1.5])
    alone, windows = [], []

    def ratios(ineq, instances, pick, pools, tol_rel):
        if len(instances) > 1:
            raise RuntimeError("the window's stack fails")
        A, B, _ = instances[0]
        alone.append(A.data.tobytes() + B.data.tobytes())
        value = next(script)
        if isinstance(value, Exception):
            raise value
        return [value]

    real = suite._probe_evaluate
    monkeypatch.setattr(suite, "_probe_ratios", ratios)
    monkeypatch.setattr(suite, "_probe_evaluate",
                        lambda ineq, insts, *a, **kw: windows.append(len(insts)) or real(
                            ineq, insts, *a, **kw))
    rng = SplitMix64(2)
    inst, ratio, accepted = suite._refine("polya-szego", best, 1.0, 0, rng, config, pools)
    # move 0 is refused (None), move 1 falls short, move 2 is accepted and ends
    # the window: move 3 is never evaluated alone against the old best
    assert windows == [4, 1]
    assert alone == [_key(cands[0]), _key(cands[1]), _key(cands[2]), _key(after)]
    assert (ratio, accepted) == (2.0, 1)
    assert _key(inst) == _key(cands[2])
    assert (rng._state, rng._spare) == (reference._state, reference._spare)


def test_refused_move_in_a_fallen_back_window_reads_as_none(monkeypatch):
    config, pools, best = _climb_setup(3)
    insts = [suite._probe_instance(best.moved(suite._draw_move(SplitMix64(k), 3)))
             for k in range(4)]
    script = iter([LoewnerLabError("refused"), 0.5, 2.0])

    def ratios(ineq, instances, pick, pools, tol_rel):
        if len(instances) > 1:
            raise RuntimeError("the window's stack fails")
        value = next(script)
        if isinstance(value, Exception):
            raise value
        return [value]

    monkeypatch.setattr(suite, "_probe_ratios", ratios)
    assert suite._probe_evaluate("polya-szego", insts, 0, config, pools, above=1.0) == [
        None, 0.5, 2.0]


def test_windows_double_up_to_64_moves(monkeypatch):
    config, pools, best = _climb_setup(200)
    windows = []

    def refuse_all(ineq, insts, *args, **kwargs):
        windows.append(len(insts))
        return [None] * len(insts)

    monkeypatch.setattr(suite, "_probe_evaluate", refuse_all)
    suite._refine("polya-szego", best, 1.0, 0, SplitMix64(2), config, pools)
    assert windows == [4, 8, 16, 32, 64, 64, 12]
