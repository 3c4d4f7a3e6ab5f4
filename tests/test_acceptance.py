"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite asserts every criterion at its stated tolerance.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from loewner_lab import (
    GEOMETRIC,
    MixtureMap,
    NormalizedTraceMap,
    NotUnitalError,
    SplitMix64,
    loewner_compare,
    loewner_matrix_psd_test,
    matrix_function,
    op_norm,
    parse_function,
    random_spd,
    sandwich_constant,
    specht_ratio,
)
from loewner_lab.cli import main as cli_main
from loewner_lab.generate import derive_seed
from loewner_lab.kernels import ARITHMETIC, SQUARE, monotone_catalog
from loewner_lab.spectral import OPERATOR
from loewner_lab.suite import SuiteConfig, load_report, probe_tightness
from oracles import certify, one, quadratic_form_slack

A14 = one(np.diag([1.0, 4.0]))
A41 = one(np.diag([4.0, 1.0]))

ACCEPTANCE_ARGS = [
    "verify", "--ineq", "all-non-audit", "--dims", "2,3,4,6,8",
    "--trials", "200", "--seed", "7",
]
# The acceptance report's bytes, pinned: faster code must write the same file.
ACCEPTANCE_SHA256 = "5db8068edc3d1625c971302791310a0c27ef4a9e6a218b5803cffdcc8fe13f8e"
ACCEPTANCE_BYTES = 5611


def _line(ok: bool, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}", flush=True)
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="session")
def acceptance_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "report.json"
    start = time.perf_counter()
    code = cli_main(ACCEPTANCE_ARGS + ["--report", str(path)])
    elapsed = time.perf_counter() - start
    return code, path, elapsed


def test_criterion_01_randomized_theorem_suite(acceptance_run):
    code, path, elapsed = acceptance_run
    body = load_report(str(path))
    config = body["config"]
    all_hold = all(stats["violations"] == 0 for stats in body["results"].values())
    total = sum(stats["trials"] for stats in body["results"].values())
    per_cell = config["trials"]
    # rotation over catalog entries guarantees coverage once trials exceed
    # every pool size (largest pool: 6 maps)
    pools_covered = (
        per_cell >= max(len(config["maps"]), len(config["kernels"]),
                        len(config["monotone_fns"]), len(config["decreasing_fns"]))
        and set(config["kernels"])
        == {"arithmetic", "geometric", "harmonic", "logarithmic", "heinz:0.25"}
        and set(config["maps"])
        == {"identity", "ntrace:1", "ntrace:full", "pinching:halves",
            "congruence:random", "kraus:2"}
    )
    _line(
        code == 0 and all_hold and pools_covered and elapsed < 120.0,
        "criterion-1 randomized theorem suite",
        f"{total} trials, exit {code}, {elapsed:.1f}s",
    )


def test_criterion_02_equality_witnesses():
    polya = certify("polya-szego", A14, A41, 1.0, 4.0, phi=NormalizedTraceMap(2, 1))
    midpoint = certify("midpoint", A14, A41, 0.25, 4.0)
    lower, upper = certify("sandwich-lemma", A14, A41, 0.25, 4.0)
    ok = (
        abs(polya.ratio[0] - 1.25) <= 1e-10
        and abs(polya.slack[0]) <= 1e-10
        and abs(midpoint.slack[0]) <= 1e-10
        and abs(lower.slack[0]) <= 1e-10
        and abs(upper.slack[0]) <= 1e-10
    )
    _line(ok, "criterion-2 equality witnesses",
          f"polya ratio {polya.ratio[0]:.12f}, midpoint slack {midpoint.slack[0]:.2e}")


def test_criterion_03_constant_coherence():
    rng = SplitMix64(33)
    worst = 0.0
    for _ in range(50):
        m = rng.uniform(0.1, 2.0)
        M = m * rng.uniform(1.1, 10.0)
        gap = abs(sandwich_constant(m / M, M / m) - (M + m) ** 2 / (4.0 * M * m))
        worst = max(worst, gap)
    _line(worst <= 1e-12, "criterion-3 constant coherence", f"worst gap {worst:.2e}")


def test_criterion_04_swing_identity():
    worst = 0.0
    for i in range(100):
        dim = 1 + i % 8
        t_mat = random_spd(dim, 0.05, 20.0, derive_seed(44, i))
        inv = matrix_function(t_mat, lambda x: 1.0 / x)
        root = matrix_function(t_mat, math.sqrt)
        inv_root = matrix_function(t_mat, lambda x: 1.0 / math.sqrt(x))
        swing = root - inv_root
        left = t_mat.data[0] + inv.data[0]
        right = swing.data[0] @ swing.data[0] + 2.0 * np.eye(dim)
        rel = np.linalg.norm(left - right) / max(1.0, np.linalg.norm(left))
        worst = max(worst, rel)
    _line(worst <= 1e-9, "criterion-4 swing identity", f"worst residual {worst:.2e}")


def test_criterion_05_specht_comparison():
    ok = True
    for ratio in np.geomspace(1.01, 100.0, 200):
        cert = certify("specht-bound", None, None, 1.0, float(ratio))
        ok = ok and cert.holds[0]
    equal = certify("specht-bound", None, None, 2.0, 2.0)
    ok = ok and abs(equal.slack[0]) <= 1e-12 and specht_ratio(1.0) == 1.0
    _line(ok, "criterion-5 Specht comparison", f"degenerate slack {equal.slack[0]:.2e}")


def test_criterion_06_unitality_regression():
    ten_trace = MixtureMap((20.0,), (NormalizedTraceMap(2, 1),))
    ident = parse_function("id")
    from loewner_lab import geometric

    difference = float(
        (geometric(ten_trace.apply(A14), ten_trace.apply(A41))
         - ten_trace.apply(geometric(A14, A41))).data[0, 0, 0]
    )
    refused = False
    try:
        certify("gruss-f", A14, A41, 1.0, 4.0, phi=ten_trace, tau=GEOMETRIC, sigma=GEOMETRIC,
                fn=ident)
    except NotUnitalError:
        refused = True
    unital = certify("gruss-f", A14, A41, 1.0, 4.0, phi=NormalizedTraceMap(2, 1), tau=GEOMETRIC,
                     sigma=GEOMETRIC, fn=ident)
    ok = (
        abs(difference - 10.0) <= 1e-9
        and difference > 2.25
        and refused
        and unital.holds
        and abs(float(unital.lhs.data[0, 0, 0]) - 0.5) <= 1e-10
        and abs(unital.constant - 2.25) <= 1e-12
    )
    _line(ok, "criterion-6 unitality counterexample regression",
          f"difference {difference:.6f} > 2.25, refused={refused}, unital holds 0.5 <= 2.25")


def test_criterion_07_norm_ratio_audit_regression(tmp_path):
    tau_cert = certify("norm-ratio-tau", A14, A41, 0.25, 4.0, kernel=ARITHMETIC, g=SQUARE,
                       norm=OPERATOR)
    power4_cert = certify("norm-ratio-power4", A14, A41, 0.25, 4.0, kernel=ARITHMETIC, g=SQUARE,
                          norm=OPERATOR)
    eq15_cert = certify("norm-ratio-eq15", A14, A41, 1.0, 4.0, g=SQUARE, norm=OPERATOR)
    # exit code stays 0 even when an audit report records violations
    path = tmp_path / "audit.json"
    code = cli_main([
        "hunt", "--ineq", "norm-ratio-tau", "--dims", "2", "--trials", "20",
        "--seed", "3", "--override-constant", "0.5", "--report", str(path),
    ])
    audit_stats = load_report(str(path))["audit_results"]["norm-ratio-tau"]
    ok = (
        abs(tau_cert.lhs[0] - 3.4) <= 1e-10
        and abs(tau_cert.rhs[0] - 3.125) <= 1e-10
        and not tau_cert.holds[0]
        and power4_cert.holds[0]
        and abs(power4_cert.rhs[0] - 4.8828125) <= 1e-10
        and eq15_cert.holds[0]
        and abs(eq15_cert.rhs[0] - 6.25) <= 1e-10
        and code == 0
        and audit_stats["violations"] >= 1
        and audit_stats["violating_instances"]
    )
    _line(ok, "criterion-7 norm-ratio audit regression",
          f"tau {tau_cert.lhs[0]:.3f}>{tau_cert.rhs[0]:.3f} recorded, "
          f"power4<= {power4_cert.rhs[0]:.4f}, eq15<= {eq15_cert.rhs[0]:.2f}, exit {code}")


def test_criterion_08_sensitivity_hunt(tmp_path):
    path = tmp_path / "hunt.json"
    code = cli_main([
        "hunt", "--ineq", "polya-szego", "--dims", "2", "--trials", "500",
        "--seed", "7", "--m", "1", "--M", "4", "--override-constant", "0.8",
        "--report", str(path),
    ])
    stats = load_report(str(path))["results"]["polya-szego"]
    ok = stats["violations"] >= 1 and code == 1
    _line(ok, "criterion-8 sensitivity hunt",
          f"{stats['violations']} violations in {stats['trials']} trials")


def test_criterion_09_probe_tightness():
    cfg = SuiteConfig(
        inequalities=("polya-szego",), dims=(2,), trials=40, seed=11, m=1.0, M=4.0
    )
    report = probe_tightness(cfg)
    ratio = report.probe["max_ratio"]
    _line(ratio >= 1.2375, "criterion-9 probe tightness", f"max ratio {ratio:.6f}")


def test_criterion_10_oracle_cross_checks():
    strict_contradictions = 0
    detection_misses = 0
    checked_pairs = 0
    for i in range(500):
        dim = 2 + i % 3  # dims 2..4
        x = random_spd(dim, 0.25, 4.0, derive_seed(1010, i))
        y = random_spd(dim, 0.25, 4.0, derive_seed(1011, i))
        tol = 1e-9 * max(1.0, op_norm(x)[0] + op_norm(y)[0])
        verdict = loewner_compare(x, y, tol)
        checked_pairs += 1
        if verdict.relation in ("LE", "EQ"):
            if quadratic_form_slack(x, y, 1000, i) < -tol:
                strict_contradictions += 1
        if verdict.relation in ("GE", "EQ"):
            if quadratic_form_slack(y, x, 1000, i) < -tol:
                strict_contradictions += 1
        if verdict.relation == "INCOMPARABLE":
            # both directions carry substantial negativity on random pairs;
            # the sampler must see it in both signs
            scale = op_norm(y - x)[0]
            if min(verdict.slack_le, verdict.slack_ge) < -0.05 * scale:
                if (
                    quadratic_form_slack(x, y, 1000, i) >= 0.0
                    or quadratic_form_slack(y, x, 1000, i) >= 0.0
                ):
                    detection_misses += 1
    screen_ok = True
    rng = SplitMix64(505)
    point_sets = [[rng.uniform(1e-3, 1e3) for _ in range(5)] for _ in range(20)]
    for fn in monotone_catalog():
        screen_ok = screen_ok and all(loewner_matrix_psd_test(fn, pts) for pts in point_sets)
    square_rejected = any(not loewner_matrix_psd_test(SQUARE, pts) for pts in point_sets)
    ok = (
        strict_contradictions == 0
        and detection_misses == 0
        and screen_ok
        and square_rejected
    )
    _line(ok, "criterion-10 oracle cross-checks",
          f"{checked_pairs} pairs, 0 contradictions, screen ok")


def test_criterion_11_determinism(acceptance_run, tmp_path):
    _, first_path, _ = acceptance_run
    second_path = tmp_path / "report2.json"
    code = cli_main(ACCEPTANCE_ARGS + ["--report", str(second_path)])
    first = first_path.read_bytes()
    second = second_path.read_bytes()
    _line(code == 0 and first == second, "criterion-11 determinism",
          f"{len(first)} bytes, byte-identical={first == second}")


def test_acceptance_report_bytes_are_pinned(acceptance_run):
    _, path, _ = acceptance_run
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    _line(digest == ACCEPTANCE_SHA256 and len(raw) == ACCEPTANCE_BYTES,
          "acceptance report bytes pinned", f"{len(raw)} bytes, sha256 {digest[:16]}")
