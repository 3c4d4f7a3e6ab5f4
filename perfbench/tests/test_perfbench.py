"""Self-test of the benchmark at a tiny workload size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert f"{metric['name']} = {got['value']!r} {metric['unit']}" in lines


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_output_check_rejects_a_tampered_reference(workload):
    cli = run.import_package(ROOT)
    load = workloads.build(workload, SEED, tiny=True)
    out_dir = ROOT / run.OUT_DIR / f"selftest-{workload}"
    out_dir.mkdir(parents=True, exist_ok=True)
    rcs, _, _ = run.run_pass(cli, load, out_dir)
    summary = workloads.summarize(load, out_dir)
    reference = copy.deepcopy(summary)
    assert workloads.check(load, rcs, summary, reference) == []
    if len(load.commands) == 1:  # the hash is of the file the program wrote
        written = load.report_paths(out_dir)[0].read_bytes()
        assert summary["sha256"] == hashlib.sha256(written).hexdigest()

    if load.kind == "probe":
        ineq = next(iter(reference["probes"]))
        reference["probes"][ineq]["accepted_steps"] += 1
    else:
        ineq = next(iter(reference["counts"]))
        reference["counts"][ineq][2] += 1  # one more violation
    assert workloads.check(load, rcs, summary, reference)

    wrong_rc = [rc + 1 for rc in rcs]
    assert workloads.check(load, wrong_rc, summary, None)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload):
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "bytes") or m["name"].endswith("distinct_frac")]
    first = bench(workload, 1)[1]["metrics"]
    second = bench(workload, 1)[1]["metrics"]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["spectral.decompose.calls"]["value"] > 0


def test_every_run_compares_two_passes():
    cli = run.import_package(ROOT)
    load = workloads.build("hunt-large", SEED, tiny=True)
    out_dir = ROOT / run.OUT_DIR / "selftest-passes"
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = []

    class Drifting:  # the second pass writes one byte more
        @staticmethod
        def main(argv):
            rc = cli.main(argv)
            calls.append(argv)
            if len(calls) == 2:
                with open(argv[argv.index("--report") + 1], "ab") as report:
                    report.write(b" ")
            return rc

    passes = run.Passes(Drifting, load, out_dir, None)
    passes.run_for(0, min_passes=2)
    assert passes.attempted == 2 and passes.failed == 1
    assert "reports differ from the first pass of this run" in passes.problems


def test_a_command_that_writes_no_report_fails_the_pass():
    cli = run.import_package(ROOT)
    load = workloads.build("campaign", SEED, tiny=True)
    out_dir = ROOT / run.OUT_DIR / "selftest-noreport"
    out_dir.mkdir(parents=True, exist_ok=True)

    class Silent:  # exits like a clean campaign but writes nothing
        @staticmethod
        def main(argv):
            return 0

    passes = run.Passes(cli, load, out_dir, None)
    passes.run_one()  # leaves a good report behind
    passes.cli = Silent
    passes.run_one()
    assert passes.attempted == 2 and passes.failed == 1
    assert any("unreadable report" in problem for problem in passes.problems)


def test_peak_rss_counts_live_children():
    code = ("import sys, time; block = b'x' * (64 << 20); print('ready', flush=True); "
            "time.sleep(1)")
    with run.TreeRss() as rss:
        child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        assert child.stdout.readline() == "ready\n"
        time.sleep(0.3)
        child.wait()
        child.stdout.close()
    assert rss.peak_kb >= run.TreeRss.tree_kb(os.getpid()) + 60 * 1024


def test_clock_samples_the_speed_inside_a_command(monkeypatch):
    run.import_package(ROOT)
    import loewner_lab.suite as suite

    cli = sys.modules["loewner_lab.cli"]
    steps = {name: getattr(suite, name) for name in speed.STEP_FUNCTIONS}
    samples = []
    real_sample = speed.sample
    monkeypatch.setattr(speed, "sample", lambda: samples.append(1) or real_sample())
    monkeypatch.setattr(speed, "INTERVAL_S", 0.0)
    load = workloads.build("campaign", SEED, tiny=True)  # one command, 68 trials
    out_dir = ROOT / run.OUT_DIR / "selftest-clock"
    out_dir.mkdir(parents=True, exist_ok=True)

    run.run_pass(cli, load, out_dir, sample_steps=False)
    assert len(samples) == 2  # before and after the command
    samples.clear()
    run.run_pass(cli, load, out_dir)
    assert len(samples) >= 2 + 68
    assert {name: getattr(suite, name) for name in speed.STEP_FUNCTIONS} == steps


def test_the_pool_bounds_only_the_congruence_map():
    from loewner_lab.maps import DEFAULT_MAP_SPECS

    pool = workloads.map_pool().split(",")
    assert len(pool) == len(DEFAULT_MAP_SPECS)
    changed = [(a, b) for a, b in zip(DEFAULT_MAP_SPECS, pool) if a != b]
    assert changed == [(workloads.CONGRUENCE, workloads.BOUNDED_CONGRUENCE)]
    for name in ("campaign", "hunt-large"):
        assert "--phi" not in workloads.build(name, SEED, default_pool=True).commands[0][1]


def run_full(workload: workloads.Workload, out_dir: Path) -> tuple[list, dict | None]:
    cli = run.import_package(ROOT)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in workload.report_paths(out_dir):
        path.unlink(missing_ok=True)
    rcs, _, _ = run.run_pass(cli, workload, out_dir, sample_steps=False)
    paths = workload.report_paths(out_dir)
    return rcs, workloads.summarize(workload, out_dir) if all(map(Path.is_file, paths)) else None


def test_hunt_large_passes_where_the_default_pool_aborts():
    seed = workloads.KNOWN_ABORTS["hunt-large"][0]
    load = workloads.build("hunt-large", seed)
    rcs, summary = run_full(load, ROOT / run.OUT_DIR / "selftest-abort-seed")
    assert summary is not None, f"exit codes {rcs}"
    assert workloads.check(load, rcs, summary, workloads.load_references()
                           .get("hunt-large", {}).get(str(seed))) == []


def test_the_acceptance_check_hashes_the_written_report():
    load = workloads.acceptance()
    assert load.commands == workloads.build("campaign", 7, default_pool=True).commands
    tiny = dataclasses.replace(workloads.build("campaign", SEED, tiny=True, default_pool=True),
                               name="acceptance")
    rcs, summary = run_full(tiny, ROOT / run.OUT_DIR / "selftest-acceptance")
    assert workloads.check(tiny, rcs, summary, None) == [
        f"acceptance report sha256 {summary['sha256']} != {workloads.ACCEPTANCE_SHA256}"]


@pytest.mark.xfail(reason="program defect: with the default map pool a seeded congruence map "
                          "exceeds the condition cap and the whole command exits 2",
                   strict=False)
def test_the_default_pool_completes_at_a_known_abort_seed():
    seed = workloads.KNOWN_ABORTS["hunt-large"][0]
    load = workloads.build("hunt-large", seed, default_pool=True)
    rcs, summary = run_full(load, ROOT / run.OUT_DIR / "selftest-default-pool")
    assert summary is not None, f"exit codes {rcs}"
