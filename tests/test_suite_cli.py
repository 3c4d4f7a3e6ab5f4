import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewner_lab import load_report, write_report
from loewner_lab import certificates, suite
from loewner_lab.certificates import (
    ALL_INEQUALITIES,
    AUDIT_INEQUALITIES,
    CELLS,
    NON_AUDIT_INEQUALITIES,
    ROWS,
)
from loewner_lab.errors import ConditionCapError, EigenSolverError, HypothesisError
from loewner_lab.generate import derive_seed, fnv1a64
from loewner_lab.cli import _config_from_args, build_parser, main as cli_main
from loewner_lab.suite import (
    SuiteConfig,
    collect_violations,
    config_from_dict,
    hunt_counterexamples,
    probe_tightness,
    recheck,
    run_suite,
)
from oracles import bounded_pair


# Each command's --help at 80 columns, as it read when main built a parser per call.
_HELP = {
    "": """\
usage: loewner-lab [-h] {verify,hunt,probe,scalarcheck,recheck} ...

Verify, hunt, and probe operator-mean inequalities on positive definite
matrices.

positional arguments:
  {verify,hunt,probe,scalarcheck,recheck}
    verify              run a randomized certificate suite
    hunt                re-run with a scaled constant, collecting violations
    probe               hill-climb for the largest observed ratio
    scalarcheck         run the scalar-kernel invariants
    recheck             re-evaluate a recorded violation

options:
  -h, --help            show this help message and exit
""",
    "verify": """\
usage: loewner-lab verify [-h] [--ineq INEQ] [--dims DIMS] [--trials TRIALS]
                          [--seed SEED] [--tol TOL] [--s S] [--t T] [--m M]
                          [--M M] [--tau TAU] [--sigma SIGMA] [--f F] [--g G]
                          [--phi PHI] [--norm NORM] [--report REPORT]

options:
  -h, --help       show this help message and exit
  --ineq INEQ      comma list of inequality ids, or all / all-non-audit
  --dims DIMS      comma list of dimensions
  --trials TRIALS
  --seed SEED
  --tol TOL        relative slack tolerance
  --s S
  --t T
  --m M
  --M M
  --tau TAU        restrict kernel pool (comma list)
  --sigma SIGMA    restrict kernel pool (comma list)
  --f F            restrict monotone functions (comma list)
  --g G            restrict decreasing functions (comma list)
  --phi PHI        restrict map pool (comma list)
  --norm NORM      restrict norm pool (comma list)
  --report REPORT  write the JSON report here
""",
    "hunt": """\
usage: loewner-lab hunt [-h] [--ineq INEQ] [--dims DIMS] [--trials TRIALS]
                        [--seed SEED] [--tol TOL] [--s S] [--t T] [--m M]
                        [--M M] [--tau TAU] [--sigma SIGMA] [--f F] [--g G]
                        [--phi PHI] [--norm NORM] [--report REPORT]
                        --override-constant OVERRIDE_CONSTANT

options:
  -h, --help            show this help message and exit
  --ineq INEQ           comma list of inequality ids, or all / all-non-audit
  --dims DIMS           comma list of dimensions
  --trials TRIALS
  --seed SEED
  --tol TOL             relative slack tolerance
  --s S
  --t T
  --m M
  --M M
  --tau TAU             restrict kernel pool (comma list)
  --sigma SIGMA         restrict kernel pool (comma list)
  --f F                 restrict monotone functions (comma list)
  --g G                 restrict decreasing functions (comma list)
  --phi PHI             restrict map pool (comma list)
  --norm NORM           restrict norm pool (comma list)
  --report REPORT       write the JSON report here
  --override-constant OVERRIDE_CONSTANT
                        positive multiplier applied to every constant
""",
    "probe": """\
usage: loewner-lab probe [-h] [--ineq INEQ] [--dims DIMS] [--trials TRIALS]
                         [--seed SEED] [--tol TOL] [--s S] [--t T] [--m M]
                         [--M M] [--tau TAU] [--sigma SIGMA] [--f F] [--g G]
                         [--phi PHI] [--norm NORM] [--report REPORT]

options:
  -h, --help       show this help message and exit
  --ineq INEQ      comma list of inequality ids, or all / all-non-audit
  --dims DIMS      comma list of dimensions
  --trials TRIALS
  --seed SEED
  --tol TOL        relative slack tolerance
  --s S
  --t T
  --m M
  --M M
  --tau TAU        restrict kernel pool (comma list)
  --sigma SIGMA    restrict kernel pool (comma list)
  --f F            restrict monotone functions (comma list)
  --g G            restrict decreasing functions (comma list)
  --phi PHI        restrict map pool (comma list)
  --norm NORM      restrict norm pool (comma list)
  --report REPORT  write the JSON report here
""",
    "scalarcheck": """\
usage: loewner-lab scalarcheck [-h] [--seed SEED]

options:
  -h, --help   show this help message and exit
  --seed SEED
""",
    "recheck": """\
usage: loewner-lab recheck [-h] report_path index

positional arguments:
  report_path
  index

options:
  -h, --help   show this help message and exit
""",
}


def small_config(**overrides):
    base = dict(inequalities=("all",), dims=(2, 3), trials=6, seed=7)
    base.update(overrides)
    return SuiteConfig(**base)


# Pool specs that do not parse: a parameter that is not a finite number, and
# an empty pinching block (pinching:0,2 is pinching:0,3 at dimension 2). Each
# is refused as "field <name>: <spec>: ...", where a field's own checks read
# "field <name> must ...".
_UNPARSED_SPECS = [
    pytest.param({"norms": ("schatten:nan",)}, "norm-ratio-tau", id="schatten:nan"),
    pytest.param({"norms": ("schatten:inf",)}, "norm-ratio-tau", id="schatten:inf"),
    pytest.param({"monotone_fns": ("rational:nan",)}, "main-monotone", id="rational:nan"),
    pytest.param({"monotone_fns": ("rational:inf",)}, "main-monotone", id="rational:inf"),
    pytest.param({"decreasing_fns": ("shifted_inverse:nan",)}, "main-decreasing",
                 id="shifted_inverse:nan"),
    pytest.param({"maps": ("mix:nan@identity",)}, "polya-szego", id="mix:nan@identity"),
    pytest.param({"maps": ("mix:inf@identity",)}, "polya-szego", id="mix:inf@identity"),
    pytest.param({"maps": ("pinching:0,2",)}, "polya-szego", id="pinching:0,2"),
    # finite weights whose image of the identity overflows
    pytest.param({"maps": ("mix:1e308@identity+1e308@identity",)}, "polya-szego",
                 id="mix:1e308@identity+1e308@identity"),
]


class TestSuiteConfig:
    def test_all_non_audit_expansion(self):
        cfg = SuiteConfig(inequalities=("all-non-audit",))
        assert "norm-ratio-tau" not in cfg.inequalities
        assert "polya-szego" in cfg.inequalities

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(inequalities=("nonexistent",))

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            SuiteConfig(dims=(32,))

    @pytest.mark.parametrize("fields, message", [
        ({"trials": 0}, "field trials must be >= 1, got 0"),
        ({"dims": (2, 17)}, "field dims must stay within [1, 16], got (2, 17)"),
        ({"dims": (0,)}, "field dims must stay within [1, 16], got (0,)"),
        ({"dims": (2, 2)}, "field dims must name each dimension once, got (2, 2)"),
        ({"dims": [3, 2, 3]}, "field dims must name each dimension once, got (3, 2, 3)"),
        ({"s": 0.5}, "fields s, t: provide both or neither, got s=0.5, t=None"),
        ({"t": 2.0}, "fields s, t: provide both or neither, got s=None, t=2.0"),
        ({"M": 4.0}, "fields m, M: provide both or neither, got m=None, M=4.0"),
    ])
    def test_refusal_names_its_field(self, fields, message):
        with pytest.raises(ValueError) as info:
            SuiteConfig(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, ineq", [
        *(({name: value}, "polya-szego") for name, value in [
            ("sandwich_range", (4.0, 0.25)),
            ("sandwich_range", (0.0, 1.0)),
            ("sandwich_range", ("a", 1)),
            ("sandwich_range", (1.0, 2.0, 3.0)),
            ("maps", (1,)),
            ("kernels", (None,)),
            ("norms", (2,)),
            ("max_recorded_violations", -1),
            ("probe_refine_steps", -1),
            ("dims", 3),
            ("inequalities", 5),
            ("sandwich_range", (True, 2.0)),
        ]),
        # an empty pool that the inequality's row reads, named by the field
        # behind it: alpha-scaling reads the monotone and decreasing functions
        ({"maps": ()}, "polya-szego"),
        ({"kernels": ()}, "ando"),
        ({"monotone_fns": ()}, "main-monotone"),
        ({"decreasing_fns": ()}, "main-decreasing"),
        ({"convex_fns": ()}, "norm-ratio-tau"),
        ({"norms": ()}, "norm-ratio-tau"),
        ({"monotone_fns": (), "decreasing_fns": ()}, "alpha-scaling"),
        *_UNPARSED_SPECS,
    ], ids=lambda v: "-".join(v) if isinstance(v, dict) else v)
    def test_bad_field_is_refused_by_name_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                            fields, ineq):
        # in the library, and in the config of a report that recheck reads; a
        # spec that does not parse is refused as "field <name>: <spec>: ..."
        name = next(iter(fields))
        unparsed = (fields, ineq) in [case.values for case in _UNPARSED_SPECS]
        prefix = f"field {name}{':' if unparsed else ' '}"
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ValueError, match=f"^{prefix}"):
            run_suite(SuiteConfig(**{"inequalities": (ineq,), "dims": (2,), "trials": 2,
                                     **fields}))
        assert calls == []
        path = tmp_path / "hunt.json"
        cli_main(["hunt", "--ineq", ineq, "--dims", "2", "--trials", "20", "--seed", "7",
                  "--m", "1", "--M", "4", "--override-constant", "0.8", "--report", str(path)])
        data = json.loads(path.read_text())
        data["loewner_lab_report"]["config"].update(fields)
        path.write_text(json.dumps(data))
        calls.clear()
        capsys.readouterr()
        assert cli_main(["recheck", str(path), "0"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix}")
        assert calls == []

    @pytest.mark.parametrize("fields, name", [
        ({"tol_rel": "a"}, "tol_rel"),
        ({"tol_rel": None}, "tol_rel"),
        ({"constant_multiplier": "x"}, "constant_multiplier"),
        ({"trials": "3"}, "trials"),
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"s": "a", "t": 1.0}, "s"),
        ({"m": 1.0, "M": True}, "M"),
        ({"max_recorded_violations": True}, "max_recorded_violations"),
        ({"dims": ("3",)}, "dims"),
        ({"dims": (2.0,)}, "dims"),
        ({"dims": (True,)}, "dims"),
        ({"dims": 3}, "dims"),
        ({"inequalities": 5}, "inequalities"),
        ({"sandwich_range": (True, 2.0)}, "sandwich_range"),
    ])
    def test_mistyped_library_value_is_refused_by_name(self, fields, name):
        # a number field takes a number of its annotation, never a bool or a str,
        # and a tuple field a list or tuple of such items
        with pytest.raises(ValueError, match=f"^field {name} "):
            SuiteConfig(**{"inequalities": ("midpoint",), **fields})

    def test_round_trip_through_dict(self):
        cfg = small_config()
        assert config_from_dict(cfg.to_dict()) == cfg
        # a report's JSON gives the tuple fields back as lists
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_table_declares_every_id_in_order(self):
        # the checked ids come first, then the audit family, each on a declared cell
        assert ALL_INEQUALITIES == NON_AUDIT_INEQUALITIES + AUDIT_INEQUALITIES == tuple(ROWS)
        assert len(ALL_INEQUALITIES) == 21
        assert all(any(ROWS[ineq].cell is cell for cell in CELLS) for ineq in ALL_INEQUALITIES)

    def test_degenerate_bounded_cell_fails_before_any_trial(self, monkeypatch, capsys):
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        code = cli_main(["verify", "--ineq", "ando,polya-szego", "--dims", "2",
                         "--trials", "2", "--m", "1", "--M", "1"])
        assert code == 2
        assert calls == []
        assert "fields m, M need 0 < m < M" in capsys.readouterr().err

    @pytest.mark.parametrize("ineq", ["squared", "specht-bound"])
    def test_reversed_order_and_scalar_cells_fail_before_any_trial(self, ineq, monkeypatch,
                                                                   capsys):
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        code = cli_main(["verify", "--ineq", f"ando,{ineq}", "--dims", "2",
                         "--trials", "3", "--m", "2", "--M", "1"])
        assert code == 2
        assert calls == []
        assert "fields m, M need 0 < m <= M, got m=2.0, M=1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("ineq, flag, fn, classes", [
        ("squared-consequence-f", "--f", "power:1", None),
        ("squared-consequence-f", "--f", "inv_power:1", "('operator_monotone',)"),
        ("squared-consequence-g", "--g", "power:0.5", "('operator_monotone_decreasing',)"),
    ])
    def test_squared_consequence_takes_only_its_own_class(self, ineq, flag, fn, classes,
                                                           capsys):
        # each row vets its function's class; a function of the other class is
        # not evaluated as the other row's statement under this id
        code = cli_main(["verify", "--ineq", ineq, flag, fn, "--dims", "2", "--trials", "2"])
        assert code == (0 if classes is None else 2)
        if classes is not None:
            err = capsys.readouterr().err
            assert f"function {fn!r} has class" in err and f"expected one of {classes}" in err

    def test_gruss_without_unital_map_fails_before_any_trial(self, monkeypatch, capsys):
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        code = cli_main(["verify", "--ineq", "ando,gruss-f", "--dims", "2", "--trials", "3",
                         "--phi", "kraus:2"])
        assert code == 2
        assert calls == []
        assert ("error: field maps: gruss-f needs at least one unital map in the pool"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["verify", "probe"])
    def test_overflowing_constant_fails_before_any_trial(self, command, monkeypatch, capsys):
        # (M + m) ** 2 overflows a Python float at these bounds
        calls = []
        for name in ("_evaluate_trial", "_probe_evaluate"):
            real = getattr(suite, name)
            monkeypatch.setattr(suite, name, lambda *a, real=real: calls.append(a) or real(*a))
        code = cli_main([command, "--ineq", "kantorovich-f", "--dims", "2", "--trials", "2",
                         "--m", "1e200", "--M", "1e201"])
        assert code == 2
        assert calls == []
        assert capsys.readouterr().err == (
            "error: fields m, M: the constant of kantorovich-f is not a finite number at "
            "m=1e+200, M=1e+201\n")

    @pytest.mark.parametrize("command", [
        ["verify", "--ineq", "polya-szego"],
        ["hunt", "--ineq", "midpoint", "--override-constant", "0.5"],
    ])
    def test_repeated_dimension_fails_before_any_trial(self, command, monkeypatch, capsys):
        # a dimension named twice would run its trials twice and count them twice
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        assert cli_main(command + ["--dims", "2,2", "--trials", "3"]) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            "error: field dims must name each dimension once, got (2, 2)\n")

    @pytest.mark.parametrize("ineq, cell", [
        ("gruss-f", ("m", 1e-200, "M", 2e-200)),  # (M - m) ** 2 underflows to 0, then / 0
        ("specht-bound", ("m", 1e-300, "M", 1e300)),  # M / m overflows: S(inf) is nan
        ("norm-ratio-power4", ("s", 1e-100, "t", 1e200)),  # C(s, t) ** 2 overflows
        ("main-monotone", ("s", 1e-320, "t", 1e-300)),  # s * t underflows to 0
    ])
    def test_constant_that_is_not_finite_names_the_cell(self, ineq, cell):
        lo, lo_value, hi, hi_value = cell
        with pytest.raises(ValueError, match=f"^fields {lo}, {hi}: the constant of {ineq} "):
            SuiteConfig(inequalities=(ineq,), **{lo: lo_value, hi: hi_value})

    def test_remaining_arithmetic_errors_exit_2(self, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(suite, "_evaluate_trial", overflow)
        code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "2", "--trials", "2"])
        assert code == 2
        seed = derive_seed(0, fnv1a64("polya-szego"), 2, 0)
        assert capsys.readouterr().err == (
            f"error: inequality polya-szego, dim 2, trial 0, trial_seed {seed}: "
            "(34, 'Numerical result out of range')\n")

    @pytest.mark.parametrize("m, M", [("1e200", "1e201"), ("1e-200", "1e-199")])
    def test_polya_szego_constant_at_extreme_bounds_holds(self, m, M, capsys):
        # M * m over- and underflows here; the constant takes the roots apart
        code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "2", "--trials", "2",
                         "--m", m, "--M", M])
        assert code == 0
        assert "polya-szego: 2/2 hold (ok" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, field", [
        (["verify", "--tol", "-1"], "tol_rel"),
        (["verify", "--tol", "nan"], "tol_rel"),
        (["verify", "--tol", "inf"], "tol_rel"),
        (["hunt", "--override-constant", "nan"], "constant_multiplier"),
        (["hunt", "--override-constant", "inf"], "constant_multiplier"),
        (["hunt", "--override-constant", "0"], "constant_multiplier"),
        (["verify", "--dims", "a"], "dims"),
        (["verify", "--dims", ","], "dims"),
    ])
    def test_bad_tolerance_multiplier_or_dims_fails_before_any_trial(self, argv, field,
                                                                    monkeypatch, capsys):
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        code = cli_main([*argv, "--ineq", "polya-szego", "--trials", "2"])
        assert code == 2
        assert calls == []
        assert capsys.readouterr().err.startswith(f"error: field {field} ")

    @pytest.mark.parametrize("flag, spec, field", [
        ("--phi", "kraus:x", "maps"),
        ("--phi", "congruence:random:2x", "maps"),
        ("--phi", "mix:0.5@identity+x@identity", "maps"),
        ("--phi", "ntrace:0", "maps"),
        ("--norm", "schatten:abc", "norms"),
        ("--tau", "heinz:x", "kernels"),
        ("--f", "power:x", "monotone_fns"),
        ("--g", "inv_power:2", "decreasing_fns"),
        ("--tau", "geometric:0.3", "kernels"),
        ("--f", "log1p:7", "monotone_fns"),
        ("--f", "square:3", "monotone_fns"),
        ("--norm", "operator:5", "norms"),
        ("--phi", "identity:junk", "maps"),
        ("--phi", "ntrace:17", "maps"),
        ("--phi", "kraus:257", "maps"),
    ])
    def test_bad_pool_spec_names_its_field(self, flag, spec, field, monkeypatch, capsys):
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "2", "--trials", "2",
                         flag, spec])
        assert code == 2
        assert calls == []
        assert capsys.readouterr().err.startswith(f"error: field {field}: {spec}: ")

    def test_pinching_blocks_pass_through_phi(self, tmp_path):
        # a comma before a digit stays inside the pinching spec
        path = tmp_path / "report.json"
        code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "3", "--trials", "2",
                         "--phi", "identity,pinching:1,2", "--report", str(path)])
        assert code == 0
        assert load_report(str(path))["config"]["maps"] == ["identity", "pinching:1,2"]

    @pytest.mark.parametrize("ineq", [i for i in ALL_INEQUALITIES if len(ROWS[i].cell.bounds) == 2])
    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (1.0, 1.0), (-2.0, -1.0)])
    def test_config_and_vet_refuse_bounds_with_one_text(self, ineq, lo, hi):
        # SuiteConfig refuses fixed bounds with the fields' names before the
        # text that the row's vets raise for one slice of the same bounds
        # (s * t >= 1 at each, so strengthened-remark reaches its sandwich vet)
        row = ROWS[ineq]
        a, b = row.cell.bounds
        strict = row.cell is certificates.BOUNDED
        config = SuiteConfig(inequalities=(ineq,), dims=(2,), trials=1, seed=3)
        pools = suite._build_pools(config, 2)
        A, B, _ = suite._draw(ineq, 2, [0], config)
        try:
            certificates.check_stack(row, A, B, [(lo, hi)], suite._picked(row, [0], pools))
            vet = None
        except HypothesisError as exc:
            vet = str(exc)
        if (0 < lo < hi) if strict else (0 < lo <= hi):  # another check may refuse the slice
            SuiteConfig(inequalities=(ineq,), **{a: lo, b: hi})
            assert vet is None or not vet.startswith("need 0 <")
            return
        assert vet == f"need 0 < {a} {'<' if strict else '<='} {b}, got {a}={lo!r}, {b}={hi!r}"
        with pytest.raises(ValueError) as fixed:
            SuiteConfig(inequalities=(ineq,), **{a: lo, b: hi})
        assert str(fixed.value) == f"fields {a}, {b} {vet}"

    def test_no_inequality_is_refused(self):
        with pytest.raises(ValueError, match="^field inequalities "):
            SuiteConfig(inequalities=())

    @pytest.mark.parametrize("s, t", [(3.0, 1.0), (0.0, 2.0), (-1.0, 2.0)])
    def test_bad_sandwich_cell_names_fields(self, s, t):
        with pytest.raises(ValueError, match="fields s, t"):
            SuiteConfig(inequalities=("midpoint",), s=s, t=t)

    def test_cells_checked_only_for_ids_that_use_them(self):
        SuiteConfig(inequalities=("midpoint",), m=1.0, M=1.0)
        SuiteConfig(inequalities=("polya-szego",), s=3.0, t=1.0)

    def test_specht_bound_accepts_equal_bounds(self):
        report = run_suite(SuiteConfig(inequalities=("specht-bound",), dims=(2,), trials=2,
                                       m=1.0, M=1.0))
        assert report.results["specht-bound"]["violations"] == 0


class TestRunSuite:
    def test_all_non_audit_hold_on_small_run(self):
        report = run_suite(small_config())
        assert report.all_non_audit_hold
        for ineq, stats in report.results.items():
            assert stats["holds_count"] + stats["violations"] == stats["trials"], ineq
            assert stats["trials"] == 2 * 6

    def test_single_trial_dim_one_scalar_reduction(self):
        report = run_suite(SuiteConfig(inequalities=("all",), dims=(1,), trials=1, seed=3))
        assert report.all_non_audit_hold
        for stats in report.results.values():
            assert stats["violations"] == 0

    def test_trial_error_names_replayable_coordinates(self, monkeypatch, capsys):
        def capped(*args, **kwargs):
            raise ConditionCapError("condition number 1e9 exceeds cap")

        monkeypatch.setattr(certificates, "check_stack", capped)
        config = SuiteConfig(inequalities=("polya-szego",), dims=(3,), trials=2, seed=5)
        with pytest.raises(ConditionCapError) as info:
            run_suite(config)
        seed = derive_seed(5, fnv1a64("polya-szego"), 3, 0)
        assert str(info.value) == (f"inequality polya-szego, dim 3, trial 0, trial_seed {seed}: "
                                   "condition number 1e9 exceeds cap")
        assert isinstance(info.value.__cause__, ConditionCapError)
        code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "3", "--trials", "2",
                         "--seed", "5"])
        assert code == 2
        assert f"trial_seed {seed}: condition number" in capsys.readouterr().err

    def test_generation_error_surfaces_at_its_own_trial(self, monkeypatch):
        # trial 3's A misses the eigendecomposition contract, in its stack's solve
        # and when solved alone; trials 0-2 are still evaluated first
        config = SuiteConfig(inequalities=("polya-szego",), dims=(3,), trials=5, seed=5,
                             m=1.0, M=4.0)
        seed = derive_seed(5, fnv1a64("polya-szego"), 3, 3)
        bad = bounded_pair(3, 1.0, 4.0, seed).A.data
        real_eigh = np.linalg.eigh

        def eigh(a):
            w, q = real_eigh(a)
            return w, q + 1e-6 * (a == bad).all(axis=(-2, -1))[..., None, None]

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        seen = []
        real = suite._evaluate_trial
        # trial 1 picks ntrace:1, whose output dimension is 1, and the other
        # trials share the first stack; its draw fails at trial 3, and the cell
        # is drawn and evaluated again trial by trial
        monkeypatch.setattr(suite, "_evaluate_trial",
                            lambda *a: seen.append(list(a[2])) or real(*a))
        with pytest.raises(EigenSolverError) as info:
            run_suite(config)
        assert seen == [[0, 2, 3, 4], [0], [1], [2], [3]]
        assert str(info.value).startswith(
            f"inequality polya-szego, dim 3, trial 3, trial_seed {seed}: reconstruction residual")

    def test_slack_error_surfaces_at_its_own_trial(self, monkeypatch):
        # trial 3's slack solve fails, in its stack and alone: the verdict
        # columns are solved in _evaluate_trial, so the stack falls back to
        # trial by trial, as a failing draw does, and trial 3 names itself
        config = SuiteConfig(inequalities=("polya-szego",), dims=(3,), trials=5, seed=5,
                             m=1.0, M=4.0)
        seed = derive_seed(5, fnv1a64("polya-szego"), 3, 3)
        pools = suite._build_pools(config, 3)
        bad = suite._evaluate_trial("polya-szego", 3, [3], config, pools).sides[0].lhs.data[0]
        real_slack = certificates.loewner_slack

        def loewner_slack(X, Y):
            if (X.data == bad).all(axis=(-2, -1)).any():
                raise EigenSolverError("the slack solve fails")
            return real_slack(X, Y)

        monkeypatch.setattr(certificates, "loewner_slack", loewner_slack)
        seen = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial",
                            lambda *a: seen.append(list(a[2])) or real(*a))
        with pytest.raises(EigenSolverError) as info:
            run_suite(config)
        assert seen == [[0, 2, 3, 4], [0], [1], [2], [3]]
        assert str(info.value) == (f"inequality polya-szego, dim 3, trial 3, trial_seed "
                                   f"{seed}: the slack solve fails")
        assert isinstance(info.value.__cause__, EigenSolverError)

    def test_only_recorded_violations_are_serialized(self, monkeypatch):
        blobs = []
        real = suite._instance_blob
        monkeypatch.setattr(suite, "_instance_blob",
                            lambda *k, **m: blobs.append(m) or real(*k, **m))
        config = SuiteConfig(inequalities=("polya-szego",), dims=(2,), trials=50, seed=7,
                             m=1.0, M=4.0, max_recorded_violations=2)
        report = hunt_counterexamples(config, 0.8)
        stats = report.results["polya-szego"]
        assert stats["violations"] > 2
        assert len(blobs) == len(stats["violating_instances"]) == 2

    def test_determinism_byte_identical(self):
        a = run_suite(small_config()).to_json()
        b = run_suite(small_config()).to_json()
        assert a == b

    def test_hunt_report_bytes_are_pinned(self, tmp_path, capsys):
        # every id, a small and a large dim, at 0.9 x the constants: the seeds,
        # cell draws, matrix functions and alpha-scaling grid of a hunt, pinned
        path = tmp_path / "hunt.json"
        code = cli_main(["hunt", "--ineq", "all", "--dims", "3,12", "--trials", "6",
                         "--override-constant", "0.9", "--seed", "7", "--report", str(path)])
        assert code == 1
        raw = path.read_bytes()
        assert len(raw) == 510518
        assert hashlib.sha256(raw).hexdigest() == (
            "6fd7eef6b1072037d166fe6c2405f76034b49fa6cd6314c892d1bb8b6478ad7a")

    def test_seed_changes_stream(self):
        a = run_suite(small_config(seed=1)).to_json()
        b = run_suite(small_config(seed=2)).to_json()
        assert a != b

    def test_rotation_covers_catalogs(self, monkeypatch):
        stacks = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial",
                            lambda *a: stacks.append(real(*a)) or stacks[-1])
        cfg = SuiteConfig(inequalities=("main-monotone",), dims=(2,), trials=12, seed=5)
        run_suite(cfg)
        params = [stack.sides[0].params for stack in stacks]
        seen_maps = {value for p in params for value in p["map"]}
        seen_taus = {value for p in params for value in p["tau"]}
        seen_fs = {value for p in params for value in p["f"]}
        assert len(seen_maps) == len(cfg.maps)
        assert len(seen_taus) == len(cfg.kernels)
        assert len(seen_fs) == len(cfg.monotone_fns)

    def test_wall_time_not_serialized(self):
        report = run_suite(small_config(trials=1))
        assert report.wall_time_s > 0
        assert "wall_time" not in report.to_json()


class TestHunt:
    def test_weakened_polya_constant_violates(self):
        cfg = SuiteConfig(
            inequalities=("polya-szego",), dims=(2,), trials=50, seed=7, m=1.0, M=4.0
        )
        report = hunt_counterexamples(cfg, 0.8)
        stats = report.results["polya-szego"]
        assert stats["violations"] >= 1
        assert stats["violating_instances"]
        assert not report.all_non_audit_hold

    def test_multiplier_one_finds_nothing(self):
        cfg = SuiteConfig(inequalities=("main-monotone",), dims=(2, 3), trials=20, seed=9)
        report = hunt_counterexamples(cfg, 1.0)
        assert report.results["main-monotone"]["violations"] == 0

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            hunt_counterexamples(small_config(), 0.0)

    def test_audit_corner_instance_reported_at_multiplier_one(self):
        # trial 0 of the audit family pins the known boundary instance, so a
        # plain multiplier-1 run over the (0.25, 4) cell records it
        cfg = SuiteConfig(
            inequalities=("norm-ratio-tau",), dims=(2,), trials=5, seed=7,
            s=0.25, t=4.0,
        )
        report = hunt_counterexamples(cfg, 1.0)
        stats = report.audit_results["norm-ratio-tau"]
        assert stats["violations"] >= 1
        record = stats["violating_instances"][0]
        assert record["trial"] == 0
        assert record["instance"]["A"]["data"] == [1.0, 0.0, 0.0, 4.0]
        assert record["instance"]["B"]["data"] == [4.0, 0.0, 0.0, 1.0]
        cert = record["certificates"][0]
        assert cert["lhs"] == pytest.approx(3.4, abs=1e-10)
        assert cert["rhs"] == pytest.approx(3.125, abs=1e-10)
        assert report.all_non_audit_hold  # exit-code gate unaffected


class TestProbe:
    def test_polya_reaches_equality_witness(self):
        cfg = SuiteConfig(
            inequalities=("polya-szego",), dims=(2,), trials=20, seed=11, m=1.0, M=4.0
        )
        report = probe_tightness(cfg)
        assert report.probe["max_ratio"] >= 0.99 * 1.25

    def test_degenerate_sandwich_forces_ratio_one(self):
        cfg = SuiteConfig(
            inequalities=("main-monotone",), dims=(2,), trials=10, seed=13, s=1.0, t=1.0
        )
        report = probe_tightness(cfg)
        assert report.probe["max_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_probe_reaches_constant(self):
        cfg = SuiteConfig(
            inequalities=("midpoint",), dims=(2,), trials=20, seed=17, s=0.25, t=4.0
        )
        report = probe_tightness(cfg)
        # ratio tops out at the constant (sqrt(s)+sqrt(t))/2 = 1.25
        assert report.probe["max_ratio"] >= 0.99 * 1.25

    def test_several_dims_are_refused(self):
        cfg = SuiteConfig(inequalities=("midpoint",), dims=(2, 5), trials=2)
        with pytest.raises(ValueError, match=r"^field dims: probe takes one dimension, "
                                             r"got \(2, 5\)"):
            probe_tightness(cfg)

    def test_probe_reads_its_one_id_from_the_config(self):
        cfg = SuiteConfig(inequalities=("midpoint",), dims=(2,), trials=2, probe_refine_steps=5)
        payload = probe_tightness(cfg).to_payload()["loewner_lab_report"]
        assert payload["config"]["inequalities"] == ("midpoint",)
        assert payload["probe"]["inequality"] == "midpoint"

    def test_probe_with_every_spec_pool_empty_scans_one_pick(self):
        # midpoint reads no pool, so verify holds on this config, and probe scans pick 0
        cfg = SuiteConfig(inequalities=("midpoint",), dims=(2,), trials=2,
                          **dict.fromkeys(suite.SPEC_POOLS, ()))
        assert run_suite(cfg).results["midpoint"]["holds_count"] == 2
        report = probe_tightness(cfg)
        assert report.probe["pick_index"] == 0
        assert math.isfinite(report.probe["max_ratio"])

    def test_probe_cli_defaults_to_one_dimension(self, capsys):
        code = cli_main(["probe", "--ineq", "midpoint", "--trials", "2"])
        assert code == 0
        assert "max ratio" in capsys.readouterr().out

    def test_scalar_inequalities_not_probeable(self):
        with pytest.raises(ValueError):
            probe_tightness(small_config(inequalities=("specht-bound",)))

    @pytest.mark.parametrize("ineq", ALL_INEQUALITIES)
    def test_probe_accepts_exactly_sandwich_and_bounded_cells(self, ineq):
        cfg = SuiteConfig(inequalities=(ineq,), dims=(2,), trials=1, seed=3,
                          probe_refine_steps=3)
        if ineq in ("ando", "squared", "specht-bound", "alpha-scaling"):
            with pytest.raises(ValueError):
                probe_tightness(cfg)
        else:
            assert math.isfinite(probe_tightness(cfg).probe["max_ratio"])


def _first_violation(body: dict) -> dict:
    return body["results"]["polya-szego"]["violating_instances"][0]


class TestReportIO:
    def test_write_then_load_round_trip(self, tmp_path):
        report = run_suite(small_config(trials=2))
        path = tmp_path / "report.json"
        write_report(report, str(path))
        body = load_report(str(path))
        assert body["schema_version"] == 1
        assert body["config"]["seed"] == 7
        assert set(body["results"]) == set(report.results)
        # the versions are the tool's own, never a field a caller could set
        assert (body["schema_version"], body["tool_version"]) == (
            suite.SCHEMA_VERSION, suite.TOOL_VERSION)
        assert not {"schema_version", "tool_version"} & set(vars(report))

    def test_top_level_key_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="loewner_lab_report"):
            load_report(str(path))

    @pytest.mark.parametrize("field, value", [("schema_version", 2), ("tool_version", "0.0.9")])
    def test_report_of_another_version_is_refused(self, tmp_path, capsys, field, value):
        path = tmp_path / "hunt.json"
        cli_main(["hunt", "--ineq", "polya-szego", "--dims", "2", "--trials", "20", "--seed", "7",
                  "--m", "1", "--M", "4", "--override-constant", "0.8", "--report", str(path)])
        data = json.loads(path.read_text())
        data["loewner_lab_report"][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"field {field}: the report has {value!r}"):
            load_report(str(path))
        capsys.readouterr()
        assert cli_main(["recheck", str(path), "0"]) == 2
        assert f"error: field {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda body: body["config"].update(colour="red"), "config.colour"),
        (lambda body: body.pop("config"), "config"),
        (lambda body: body["results"]["polya-szego"]["violating_instances"][0].pop("dim"), "dim"),
        (lambda body: body["config"].update(trials="50"), "trials"),
        pytest.param(lambda body: body.update(results={"x": []}), "results.x",
                     id="entry-not-an-object"),
        # a violation at a trial the campaign never ran
        pytest.param(lambda body: _first_violation(body).update(dim=0), "dim", id="0"),
        pytest.param(lambda body: _first_violation(body).update(dim=3), "dim",
                     id="outside-the-dims"),
        pytest.param(lambda body: _first_violation(body).update(trial=-1), "trial",
                     id="negative"),
        # a field of another JSON type; a bool is never taken for a number
        pytest.param(lambda body: _first_violation(body).update(trial=True), "trial",
                     id="trial-true"),
        pytest.param(lambda body: _first_violation(body).update(trial=1.0), "trial",
                     id="trial-a-float"),
        pytest.param(lambda body: _first_violation(body).update(slack=True), "slack",
                     id="slack-true"),
        pytest.param(lambda body: _first_violation(body).update(slack="-0.5"), "slack",
                     id="slack-a-string"),
        pytest.param(lambda body: _first_violation(body).update(inequality=5), "inequality",
                     id="inequality-a-number"),
        pytest.param(lambda body: body["results"]["polya-szego"].update(violating_instances=[5]),
                     "violation 0", id="violation-not-an-object"),
        pytest.param(lambda body: body["results"]["polya-szego"].update(violating_instances=4),
                     "results.polya-szego.violating_instances", id="instances-not-a-list"),
        pytest.param(lambda body: body.update(results=[]), "results",
                     id="results-not-an-object"),
        pytest.param(lambda body: body.update(config=5), "config", id="config-not-an-object"),
    ])
    def test_malformed_report_is_refused_by_field(self, tmp_path, capsys, edit, field):
        path = tmp_path / "hunt.json"
        cli_main(["hunt", "--ineq", "polya-szego", "--dims", "2", "--trials", "20", "--seed", "7",
                  "--m", "1", "--M", "4", "--override-constant", "0.8", "--report", str(path)])
        data = json.loads(path.read_text())
        edit(data["loewner_lab_report"])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["recheck", str(path), "0"]) == 2
        assert capsys.readouterr().err.startswith(f"error: field {field} ")

    def test_report_whose_config_repeats_a_dimension_is_refused(self, tmp_path, capsys):
        path = tmp_path / "hunt.json"
        cli_main(["hunt", "--ineq", "polya-szego", "--dims", "2", "--trials", "20", "--seed", "7",
                  "--m", "1", "--M", "4", "--override-constant", "0.8", "--report", str(path)])
        data = json.loads(path.read_text())
        data["loewner_lab_report"]["config"]["dims"] = [2, 2]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli_main(["recheck", str(path), "0"]) == 2
        assert capsys.readouterr().err == (
            "error: field dims must name each dimension once, got (2, 2)\n")

    @pytest.mark.parametrize("content", [pytest.param("5", id="number"),
                                         pytest.param('{"loewner_lab_report": [1]}',
                                                      id="list-body")])
    def test_report_that_is_no_object_is_refused_by_field(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        assert cli_main(["recheck", str(path), "0"]) == 2
        assert capsys.readouterr().err.startswith("error: field loewner_lab_report ")


_KEYS = st.text() | st.sampled_from(["", '"', "\\", "\x00", "\n\t\x1f", "é", "\u2028", "😀",
                                     "a\"b"])
_FLOATS = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                          1.7976931348623157e308])
           | st.floats().map(np.float64))
_SCALARS = (_FLOATS | st.integers() | st.integers(2**64, 2**80) | st.integers(-2**80, -2**64)
            | st.booleans() | st.none() | _KEYS)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple) | st.lists(_FLOATS)
                   | st.dictionaries(_KEYS, inner)),
    max_leaves=40)


class TestReportWriter:
    """The report writer gives the bytes of json.dumps(payload, indent=2, sort_keys=True)."""

    @staticmethod
    def _oracle(payload) -> str:
        return json.dumps(payload, indent=2, sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(_PAYLOADS)
    def test_generated_payload_gives_the_bytes_of_json_dumps(self, payload):
        assert "".join(suite._json_pieces(payload, [])) == self._oracle(payload)

    @pytest.mark.parametrize("payload", [
        {}, [], (), "", 0, -0.0, math.nan, [math.nan], [-math.inf, math.inf, -0.0],
        [5e-324, 1.7976931348623157e308, np.float64(0.1)], [np.float64(math.nan), 1.0],
        [1.0, 2, None, math.nan, True], {"a": {}, "b": [], "c": [[]], "d": {"e": ()}},
        [2**64 + 1, -(2**70)], {'"\\\x00\x7f': "é\u2028😀"}, [True, False, None],
    ])
    def test_edge_payload_gives_the_bytes_of_json_dumps(self, payload):
        assert "".join(suite._json_pieces(payload, [])) == self._oracle(payload)

    @pytest.mark.parametrize("payload", [
        np.int64(3), [1.0, np.int64(3)], {"a": {1, 2}}, {1: "a"}, {"a": 1, None: 2},
        np.float32(1.5), object(),
    ])
    def test_other_type_or_key_is_refused(self, payload):
        with pytest.raises(TypeError):
            suite._json_pieces(payload, [])

    def test_hunt_report_file_is_the_bytes_of_json_dumps(self, tmp_path):
        report = hunt_counterexamples(SuiteConfig(inequalities=("all",), dims=(12,), trials=4,
                                                  seed=7), 0.9)
        assert len(collect_violations(report.to_payload()["loewner_lab_report"])) >= 10
        path = tmp_path / "hunt.json"
        write_report(report, str(path))
        expected = self._oracle(report.to_payload()) + "\n"
        assert path.read_bytes() == expected.encode("ascii")
        assert report.to_json() == expected


class TestRecheck:
    def test_violation_reproduces(self, tmp_path):
        cfg = SuiteConfig(
            inequalities=("polya-szego",), dims=(2,), trials=50, seed=7, m=1.0, M=4.0
        )
        report = hunt_counterexamples(cfg, 0.8)
        path = tmp_path / "hunt.json"
        write_report(report, str(path))
        body = load_report(str(path))
        violations = collect_violations(body)
        assert violations
        # recheck re-runs with the *recorded* config, which still carries the
        # constant multiplier, so the violation must reproduce exactly
        reproduced, detail = recheck(str(path), 0)
        assert reproduced
        assert detail["recomputed_slack"] == pytest.approx(detail["recorded_slack"], abs=0)

    def test_out_of_range_index(self, tmp_path):
        report = run_suite(small_config(trials=1))
        path = tmp_path / "clean.json"
        write_report(report, str(path))
        with pytest.raises(IndexError):
            recheck(str(path), 0)

    def test_report_without_violations_says_so(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        cli_main(["verify", "--ineq", "norm-ratio-tau", "--dims", "2", "--trials", "20",
                  "--seed", "7", "--report", str(path)])
        assert collect_violations(load_report(str(path))) == []
        capsys.readouterr()
        assert cli_main(["recheck", str(path), "0"]) == 2
        assert capsys.readouterr().err == (
            "error: violation index 0: the report records no violations\n")


class TestCli:
    def test_verify_exit_zero_and_report(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = cli_main([
            "verify", "--ineq", "midpoint,specht-bound", "--dims", "2",
            "--trials", "4", "--seed", "3", "--report", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert path.exists()
        assert "midpoint" in captured.out

    def test_verify_with_audit_violation_still_exit_zero(self, tmp_path):
        # the audit family may record violations without gating the exit code
        path = tmp_path / "audit.json"
        code = cli_main([
            "verify", "--ineq", "norm-ratio-tau", "--dims", "2",
            "--trials", "30", "--seed", "3", "--report", str(path),
        ])
        assert code == 0

    def test_large_schatten_norm_gives_a_finite_min_slack(self, capsys):
        # the p-th powers of schatten:1000 overflow unless they are rescaled
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", "--ineq", "norm-ratio-tau", "--dims", "3", "--trials",
                             "5", "--norm", "schatten:1000"])
        assert code == 0
        assert caught == []
        slack = re.search(r"min slack (\S+)\)", capsys.readouterr().out).group(1)
        assert math.isfinite(float(slack))

    def test_hunt_exit_one_on_violation(self, tmp_path):
        code = cli_main([
            "hunt", "--ineq", "polya-szego", "--dims", "2", "--trials", "50",
            "--seed", "7", "--m", "1", "--M", "4", "--override-constant", "0.8",
            "--report", str(tmp_path / "hunt.json"),
        ])
        assert code == 1

    def test_probe_cli(self, capsys):
        code = cli_main([
            "probe", "--ineq", "polya-szego", "--dims", "2", "--trials", "10",
            "--seed", "11", "--m", "1", "--M", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "max ratio" in captured.out

    def test_probe_without_unital_map_is_refused(self, capsys):
        code = cli_main([
            "probe", "--ineq", "gruss-f", "--dims", "2", "--trials", "2",
            "--phi", "congruence:random",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: field maps: gruss-f needs at least one unital map in the pool" in err

    @pytest.mark.parametrize("ineq", ["polya-szego,midpoint", "all", "all-non-audit"])
    def test_probe_refuses_more_than_one_id_by_its_field(self, ineq, monkeypatch, capsys):
        # the library and the CLI refuse with one text, naming the expanded ids
        calls = []
        real = suite._probe_evaluate
        monkeypatch.setattr(suite, "_probe_evaluate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        config = SuiteConfig(inequalities=tuple(ineq.split(",")), dims=(2,), trials=2)
        message = f"field inequalities: probe takes one inequality id, got {config.inequalities}"
        with pytest.raises(ValueError) as info:
            probe_tightness(config)
        assert str(info.value) == message
        assert cli_main(["probe", "--ineq", ineq, "--trials", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    def test_probe_refuses_several_dims_by_its_field(self, monkeypatch, capsys):
        calls = []
        real = suite._probe_evaluate
        monkeypatch.setattr(suite, "_probe_evaluate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert cli_main(["probe", "--ineq", "polya-szego", "--dims", "2,3"]) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            "error: field dims: probe takes one dimension, got (2, 3)\n")

    @pytest.mark.parametrize("args, field, spec, klass, expected", [
        (["--ineq", "norm-ratio-tau", "--g", "square"], "decreasing_fns", "square",
         "operator_convex_zero", "operator_monotone_decreasing"),
        (["--ineq", "main-decreasing", "--g", "square"], "decreasing_fns", "square",
         "operator_convex_zero", "operator_monotone_decreasing"),
        (["--ineq", "alpha-scaling", "--f", "inv_power:1"], "monotone_fns", "inv_power:1",
         "operator_monotone_decreasing", "operator_monotone"),
        (["--ineq", "ando", "--f", "power:1.5"], "monotone_fns", "power:1.5",
         "operator_convex_zero", "operator_monotone"),
    ])
    def test_function_of_another_class_than_its_pool_is_refused_by_field(
            self, args, field, spec, klass, expected, monkeypatch, capsys):
        # refused as the pools are built, before any trial, whether or not a
        # requested row reads the pool
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        assert cli_main(["verify", *args, "--dims", "2", "--trials", "3"]) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: field {field}: {spec}: function {spec!r} has class {klass!r}, "
            f"expected one of ({expected!r},)\n")

    def test_convex_pool_takes_only_convex_functions(self):
        with pytest.raises(HypothesisError, match=r"^field convex_fns: log1p: function 'log1p' "
                                                  r"has class 'operator_monotone'"):
            run_suite(SuiteConfig(inequalities=("ando",), dims=(2,), trials=1,
                                  convex_fns=("square", "log1p")))

    @pytest.mark.parametrize("command", list(_HELP))
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            cli_main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == _HELP[command]

    def test_one_parser_serves_every_command(self, tmp_path, capsys):
        # the cached parser keeps no state from one command to the next: probe
        # after verify still searches its own default dimension, 2
        assert build_parser() is build_parser()
        assert cli_main(["verify", "--ineq", "midpoint", "--dims", "3", "--trials", "2"]) == 0
        path = tmp_path / "probe.json"
        assert cli_main(["probe", "--ineq", "midpoint", "--trials", "2",
                         "--report", str(path)]) == 0
        body = load_report(str(path))
        assert (body["config"]["dims"], body["probe"]["dim"]) == ([2], 2)
        with pytest.raises(SystemExit) as info:
            cli_main([])
        assert info.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_verify_without_flags_builds_the_default_config(self):
        # the common flags take their defaults from SuiteConfig, declared there once
        args = build_parser().parse_args(["verify"])
        assert _config_from_args(args) == SuiteConfig()

    def test_scalarcheck(self, capsys):
        code = cli_main(["scalarcheck"])
        captured = capsys.readouterr()
        assert code == 0
        assert "FAIL" not in captured.out
        assert [line for line in captured.out.splitlines() if "scalar sandwich" in line] == [
            "PASS scalar sandwich bounds on [0.25, 4.0] (min slack 0.00e+00)",
            "PASS scalar sandwich bounds on [0.5, 0.8] (min slack 1.45e-01)",
            "PASS scalar sandwich bounds on [2.0, 3.0] (min slack 2.42e-01)",
        ]

    def test_map_whose_image_of_the_identity_overflows_is_refused_by_its_spec(self, capsys):
        # the weights are finite, but phi(I) is not: refused once, at pool build,
        # with the field and the spec, and without numpy's overflow warning
        spec = "mix:1e308@identity+1e308@identity"
        code = cli_main(["verify", "--ineq", "polya-szego", "--dims", "2", "--trials", "2",
                         "--phi", spec])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: field maps: {spec}: matrix entries must be finite, and so must their "
            "average with the transpose (entries above about 9e307 overflow)\n")

    def test_recheck_cli(self, tmp_path, capsys):
        path = tmp_path / "hunt.json"
        cli_main([
            "hunt", "--ineq", "polya-szego", "--dims", "2", "--trials", "50",
            "--seed", "7", "--m", "1", "--M", "4", "--override-constant", "0.8",
            "--report", str(path),
        ])
        code = cli_main(["recheck", str(path), "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "REPRODUCED" in captured.out

    def test_restricted_pools_respected(self, tmp_path):
        path = tmp_path / "narrow.json"
        code = cli_main([
            "verify", "--ineq", "main-monotone", "--dims", "2", "--trials", "4",
            "--seed", "1", "--tau", "geometric", "--f", "power:0.5",
            "--phi", "identity", "--report", str(path),
        ])
        assert code == 0
        body = load_report(str(path))
        assert body["config"]["kernels"] == ["geometric"]
        assert body["config"]["maps"] == ["identity"]
