"""A campaign's statistics and probe's best start are each taken once, with
Python's min and max: they give what the running-best loops that once kept
them give, nans, signed zeros, infinities and ties included."""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import suite
from loewner_lab.errors import LoewnerLabError
from loewner_lab.suite import SuiteConfig

INEQ = "polya-szego"
NAN, INF = math.nan, math.inf


def _stack(slack: list, ratio: list, tag: str):
    """A stand-in for a cell's evaluated stack: a slice holds where its slack
    is not negative (a nan slack does not)."""
    return SimpleNamespace(slack=slack, ratio=ratio, holds=[x >= 0 for x in slack],
                           to_json=lambda k: [{"stack": tag, "slice": k}], A=None, B=None)


def _cell(slacks: list, ratios: list, tag: str) -> list:
    """Each trial's ``(stack, slice)``, as two stacks: the first holds the
    even trials and the second the odd ones, as a map's output dimension
    splits a cell."""
    stacks = [_stack(slacks[start::2], ratios[start::2], f"{tag}/{start}") for start in (0, 1)]
    return [(stacks[trial % 2], trial // 2) for trial in range(len(slacks))]


def _reference(cells: dict, config: SuiteConfig) -> dict:
    """The running-best loop that kept a campaign's statistics of one id."""
    stats = {"trials": 0, "holds_count": 0, "violations": 0, "min_slack": None,
             "max_ratio": None, "violating_instances": []}
    for dim in config.dims:
        for trial, (stack, k) in enumerate(cells[dim]):
            stats["trials"] += 1
            trial_slack, trial_ratio = stack.slack[k], stack.ratio[k]
            if stats["min_slack"] is None or trial_slack < stats["min_slack"]:
                stats["min_slack"] = trial_slack
            if math.isfinite(trial_ratio) and (
                stats["max_ratio"] is None or trial_ratio > stats["max_ratio"]
            ):
                stats["max_ratio"] = trial_ratio
            if stack.holds[k]:
                stats["holds_count"] += 1
            else:
                stats["violations"] += 1
                if len(stats["violating_instances"]) < config.max_recorded_violations:
                    stats["violating_instances"].append(
                        {
                            "inequality": INEQ,
                            "dim": dim,
                            "trial": trial,
                            "trial_seed": suite._trial_seed(config, INEQ, dim, trial),
                            "slack": trial_slack,
                            "ratio": trial_ratio if math.isfinite(trial_ratio) else None,
                            "certificates": stack.to_json(k),
                            "instance": suite._instance_blob(k, A=stack.A, B=stack.B),
                        }
                    )
    return stats


def _statistics(columns: dict, recorded: int = 10) -> tuple[str, str]:
    """The id's statistics that ``run_suite`` gives on stand-in cells of the
    given ``dim: (slacks, ratios)`` columns, and the reference's, each as
    JSON text, which tells a nan, -0.0 and Infinity apart."""
    trials, = {len(slacks) for slacks, _ in columns.values()}
    config = SuiteConfig(inequalities=(INEQ,), dims=tuple(columns), trials=trials, seed=7,
                         max_recorded_violations=recorded)
    cells = {dim: _cell(*cols, tag=str(dim)) for dim, cols in columns.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite, "_evaluate_cell", lambda ineq, dim, *rest: cells[dim])
        got = suite.run_suite(config).results[INEQ]
    return json.dumps(got, sort_keys=True), json.dumps(_reference(cells, config), sort_keys=True)


@pytest.mark.parametrize("columns, min_slack, max_ratio", [
    # a nan slack first is kept: no later slack compares below it
    pytest.param({2: ([NAN, -1.0, 0.5], [1.0, 2.0, 1.5]), 3: ([-2.0, 0.5, 1.0], [1.0] * 3)},
                 "NaN", "2.0", id="nan-first-in-the-first-dim"),
    # a nan first in a later dim is passed over; a minimum per dim would read
    # 0.25 (min of 0.25 and a nan), where the one sequential minimum is -1.0
    pytest.param({2: ([0.5, 0.25, 1.0], [1.0] * 3), 3: ([NAN, -1.0, 2.0], [1.0] * 3)},
                 "-1.0", "1.0", id="nan-first-in-a-later-dim"),
    # of equal items the first is kept, in slack and ratio alike
    pytest.param({2: ([0.0, -0.0, 1.0], [-0.0, 0.0, -1.0])}, "0.0", "-0.0",
                 id="zero-before-minus-zero"),
    pytest.param({2: ([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0])}, "-0.0", "0.0",
                 id="minus-zero-before-zero"),
    pytest.param({2: ([1.0] * 5, [INF, 1.0, NAN, -INF, 2.0])}, "1.0", "2.0",
                 id="non-finite-ratios-are-passed-over"),
    pytest.param({2: ([1.0] * 3, [NAN, INF, -INF]), 3: ([0.5] * 3, [INF] * 3)}, "0.5", "null",
                 id="no-finite-ratio"),
])
def test_statistics_equal_the_running_best(columns, min_slack, max_ratio):
    got, want = _statistics(columns)
    assert got == want
    stats = json.loads(got)
    assert json.dumps(stats["min_slack"]) == min_slack
    assert json.dumps(stats["max_ratio"]) == max_ratio


def test_every_violation_is_counted_and_the_first_are_recorded():
    columns = {2: ([-1.0, 1.0, -2.0, -3.0], [1.0] * 4), 3: ([-4.0, -5.0, 1.0, -6.0], [1.0] * 4)}
    got, want = _statistics(columns, recorded=4)
    assert got == want
    stats = json.loads(got)
    assert (stats["violations"], stats["holds_count"]) == (6, 2)
    # dim, then trial, order
    assert [(v["dim"], v["trial"], v["slack"]) for v in stats["violating_instances"]] == [
        (2, 0, -1.0), (2, 2, -2.0), (2, 3, -3.0), (3, 0, -4.0)]
    assert [v["certificates"] for v in stats["violating_instances"]] == [
        [{"stack": "2/0", "slice": 0}], [{"stack": "2/0", "slice": 1}],
        [{"stack": "2/1", "slice": 1}], [{"stack": "3/0", "slice": 0}]]


_FLOATS = st.one_of(st.sampled_from([NAN, INF, -INF, 0.0, -0.0]),
                    st.floats(-4.0, 4.0).map(lambda x: round(x, 1)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dims=st.integers(1, 3), trials=st.integers(1, 5),
       recorded=st.integers(0, 4))
def test_any_columns_give_the_running_best(data, dims, trials, recorded):
    columns = {dim: (data.draw(st.lists(_FLOATS, min_size=trials, max_size=trials)),
                     data.draw(st.lists(_FLOATS, min_size=trials, max_size=trials)))
               for dim in range(2, 2 + dims)}
    got, want = _statistics(columns, recorded)
    assert got == want


def _probe_on_script(script: list, monkeypatch) -> tuple:
    """The probe payload of polya-szego whose start scan reads
    ``script[k][pick]`` as start k's ratio at pick and whose climb accepts
    no move, the starts, and the instance that the climb started from."""
    config = SuiteConfig(inequalities=(INEQ,), dims=(2,), trials=len(script) - 2, seed=3)
    starts, climbed = [], []
    real_starts = suite._probe_starts

    def evaluate(ineq, stacks, pick, *rest):
        assert len(stacks[2]) == len(script)  # one chunk of every start
        return [ratios[pick] for ratios in script]

    def refine(ineq, best, best_ratio, pick, *rest):
        climbed.append(best)
        return best, best_ratio, 0

    monkeypatch.setattr(suite, "_probe_starts",
                        lambda *a: starts.extend(real_starts(*a)) or list(starts))
    monkeypatch.setattr(suite, "_probe_evaluate", evaluate)
    monkeypatch.setattr(suite, "_refine", refine)
    probe = suite.probe_tightness(config).probe
    return probe, starts, climbed


def _n_picks() -> int:
    pools = suite._build_pools(SuiteConfig(inequalities=(INEQ,), dims=(2,)), 2, [INEQ])
    return max(1, *(len(pools[name]) for name in suite.SPEC_POOLS))


def test_probe_takes_the_first_best_start_major_and_pick_minor(monkeypatch):
    rest = [0.5] * (_n_picks() - 3)
    # 3.0 is the best at (start 1, pick 1), (1, 2), (2, 0), (3, 1) and (3, 2):
    # start-major, pick-minor order meets (1, 1) first, pick-major order (2, 0)
    script = [[None, 1.0, 0.5, *rest], [2.0, 3.0, 3.0, *rest], [3.0, None, 0.5, *rest],
              [1.0, 3.0, 3.0, *rest]]
    probe, starts, climbed = _probe_on_script(script, monkeypatch)
    assert (probe["max_ratio"], probe["pick_index"]) == (3.0, 1)
    assert len(climbed) == 1 and climbed[0] is starts[1]
    bounds = tuple(probe["cell"].values())
    A, B, _ = suite._probe_stacks(suite.ROWS[INEQ].cell, [starts[1]], bounds)
    assert probe["best_instance"] == suite._instance_blob(0, A=A, B=B)


def test_probe_without_a_ratio_finds_no_feasible_instance(monkeypatch):
    with pytest.raises(LoewnerLabError, match="^probe found no feasible instance$"):
        _probe_on_script([[None] * _n_picks()] * 4, monkeypatch)
