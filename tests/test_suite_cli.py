import json
import math

import numpy as np
import pytest

from loewner_lab import (
    SymMatrix,
    load_matrix,
    load_report,
    save_matrix,
    write_report,
)
from loewner_lab import certificates, suite
from loewner_lab.certificates import ALL_INEQUALITIES
from loewner_lab.errors import ConditionCapError, EigenSolverError
from loewner_lab.generate import derive_seed, fnv1a64, random_bounded_pair
from loewner_lab.cli import main as cli_main
from loewner_lab.suite import (
    INEQUALITIES,
    SuiteConfig,
    collect_violations,
    config_from_dict,
    hunt_counterexamples,
    probe_tightness,
    recheck,
    run_suite,
)


def small_config(**overrides):
    base = dict(inequalities=("all",), dims=(2, 3), trials=6, seed=7)
    base.update(overrides)
    return SuiteConfig(**base)


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

    def test_round_trip_through_dict(self):
        cfg = small_config()
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_table_declares_every_id_in_order(self):
        assert tuple(INEQUALITIES) == ALL_INEQUALITIES

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

    def test_gruss_without_unital_map_fails_before_any_trial(self, monkeypatch, capsys):
        calls = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: calls.append(a) or real(*a))
        code = cli_main(["verify", "--ineq", "ando,gruss-f", "--dims", "2", "--trials", "3",
                         "--phi", "kraus:2"])
        assert code == 2
        assert calls == []
        assert ("error: gruss-f needs at least one unital map in the pool"
                in capsys.readouterr().err)

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

        monkeypatch.setattr(certificates, "check_polya_szego", capped)
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
        # trial 3's A misses the eigendecomposition contract, in the cell's stacked
        # solve and when solved alone; trials 0-2 are still evaluated first
        config = SuiteConfig(inequalities=("polya-szego",), dims=(3,), trials=5, seed=5,
                             m=1.0, M=4.0)
        seed = derive_seed(5, fnv1a64("polya-szego"), 3, 3)
        bad = random_bounded_pair(3, 1.0, 4.0, seed).A.data
        real_eigh = np.linalg.eigh

        def eigh(a):
            w, q = real_eigh(a)
            return w, q + 1e-6 * (a == bad).all(axis=(-2, -1))[..., None, None]

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        seen = []
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: seen.append(a[2]) or real(*a))
        with pytest.raises(EigenSolverError) as info:
            run_suite(config)
        assert seen == [0, 1, 2, 3]
        assert str(info.value).startswith(
            f"inequality polya-szego, dim 3, trial 3, trial_seed {seed}: reconstruction residual")

    def test_only_recorded_violations_are_serialized(self, monkeypatch):
        blobs = []
        real = suite._instance_blob
        monkeypatch.setattr(suite, "_instance_blob", lambda **m: blobs.append(m) or real(**m))
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

    def test_seed_changes_stream(self):
        a = run_suite(small_config(seed=1)).to_json()
        b = run_suite(small_config(seed=2)).to_json()
        assert a != b

    def test_rotation_covers_catalogs(self):
        trace = []
        cfg = SuiteConfig(inequalities=("main-monotone",), dims=(2,), trials=12, seed=5)
        run_suite(cfg, _trace=trace)
        seen_maps = {params[0]["map"] for (_, _, _, params) in trace}
        seen_taus = {params[0]["tau"] for (_, _, _, params) in trace}
        seen_fs = {params[0]["f"] for (_, _, _, params) in trace}
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
        report = probe_tightness("polya-szego", cfg)
        assert report.probe["max_ratio"] >= 0.99 * 1.25

    def test_degenerate_sandwich_forces_ratio_one(self):
        cfg = SuiteConfig(
            inequalities=("main-monotone",), dims=(2,), trials=10, seed=13, s=1.0, t=1.0
        )
        report = probe_tightness("main-monotone", cfg)
        assert report.probe["max_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_probe_reaches_constant(self):
        cfg = SuiteConfig(
            inequalities=("midpoint",), dims=(2,), trials=20, seed=17, s=0.25, t=4.0
        )
        report = probe_tightness("midpoint", cfg)
        # ratio tops out at the constant (sqrt(s)+sqrt(t))/2 = 1.25
        assert report.probe["max_ratio"] >= 0.99 * 1.25

    def test_several_dims_are_refused(self):
        cfg = SuiteConfig(inequalities=("midpoint",), dims=(2, 5), trials=2)
        with pytest.raises(ValueError, match=r"fields dims: probe takes one dimension, "
                                             r"got \(2, 5\)"):
            probe_tightness("midpoint", cfg)

    def test_probe_cli_defaults_to_one_dimension(self, capsys):
        code = cli_main(["probe", "--ineq", "midpoint", "--trials", "2"])
        assert code == 0
        assert "max ratio" in capsys.readouterr().out

    def test_scalar_inequalities_not_probeable(self):
        with pytest.raises(ValueError):
            probe_tightness("specht-bound", small_config())

    @pytest.mark.parametrize("ineq", ALL_INEQUALITIES)
    def test_probe_accepts_exactly_sandwich_and_bounded_cells(self, ineq):
        cfg = SuiteConfig(inequalities=(ineq,), dims=(2,), trials=1, seed=3,
                          probe_refine_steps=3)
        if ineq in ("ando", "squared", "specht-bound", "alpha-scaling"):
            with pytest.raises(ValueError):
                probe_tightness(ineq, cfg)
        else:
            assert math.isfinite(probe_tightness(ineq, cfg).probe["max_ratio"])


class TestReportIO:
    def test_write_then_load_round_trip(self, tmp_path):
        report = run_suite(small_config(trials=2))
        path = tmp_path / "report.json"
        write_report(report, str(path))
        body = load_report(str(path))
        assert body["schema_version"] == 1
        assert body["config"]["seed"] == 7
        assert set(body["results"]) == set(report.results)

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

    def test_matrix_round_trip_bit_equal(self, tmp_path):
        x = SymMatrix([[1.0, 0.25], [0.25, 2.0 / 3.0]])
        path = tmp_path / "m.json"
        save_matrix(x, str(path))
        again = load_matrix(str(path))
        assert np.array_equal(x.data, again.data)

    def test_matrix_loader_errors_name_fields(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"data": [1.0]}))
        with pytest.raises(ValueError, match="dim"):
            load_matrix(str(path))
        path.write_text(json.dumps({"dim": 2, "data": [1.0, 2.0]}))
        with pytest.raises(ValueError, match="data"):
            load_matrix(str(path))
        path.write_text(json.dumps({"dim": "two", "data": [1.0]}))
        with pytest.raises(ValueError, match="dim"):
            load_matrix(str(path))

    def test_matrix_loader_rejects_asymmetry(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "data": [1.0, 0.5, 0.0, 1.0]}))
        with pytest.raises(ValueError, match="asymmetric"):
            load_matrix(str(path))

    def test_loader_symmetrizes_small_noise(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "data": [1.0, 0.5 + 1e-12, 0.5, 1.0]}))
        x = load_matrix(str(path))
        assert x.data[0, 1] == x.data[1, 0]


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
        assert "error: gruss-f needs at least one unital map in the pool" in err

    def test_scalarcheck(self, capsys):
        code = cli_main(["scalarcheck"])
        captured = capsys.readouterr()
        assert code == 0
        assert "FAIL" not in captured.out

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
