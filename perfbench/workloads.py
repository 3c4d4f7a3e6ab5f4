"""Workload definitions and output checks for the loewner-lab benchmark.

Every workload is a list of ``loewner-lab`` command lines run one after the
other through ``loewner_lab.cli.main`` (a closed loop with one caller):
``campaign`` and ``hunt-large`` are one command each, ``probe-sweep`` is
one ``probe`` command per probeable inequality.  Each command writes its
own report, and the checks read and hash the files the program wrote.

``campaign`` and ``hunt-large`` pass ``--phi`` with the default map pool in
which ``congruence:random`` is mixed half and half with the identity (see
``map_pool``).  With the default pool the seeded congruence factor V is
near-singular at some seeds, V A V^T exceeds the means' condition cap, and
the whole command aborts with exit code 2 (2 of 25 ``hunt-large`` seeds,
5 of 401 ``campaign`` seeds).  ``KNOWN_ABORTS`` lists seeds where it does;
the self-test keeps that defect in view.

A pass's reports are checked against invariants that hold for every seed,
against the first pass of the run (reports must be byte-identical) and,
when one is recorded, against the reference for the seed in
``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# sha256 of the acceptance campaign report at seed 7 (5,611 bytes).
ACCEPTANCE_SEED = 7
ACCEPTANCE_SHA256 = "5db8068edc3d1625c971302791310a0c27ef4a9e6a218b5803cffdcc8fe13f8e"

NOT_PROBEABLE = ("ando", "squared", "specht-bound", "alpha-scaling")

# The congruence map keeps its place in the pool and its draw of V from the
# pool's generator, so every other map and every trial's pick is the same
# as with the default pool.  0.5 V A V^T + 0.5 A >= A / 2, so the image's
# condition number is at most (1 + ||V||^2) times that of A.
CONGRUENCE = "congruence:random"
BOUNDED_CONGRUENCE = "mix:0.5@congruence:random+0.5@identity"
# Seeds at which the default pool aborts the full-size command (exit 2).
KNOWN_ABORTS = {"campaign": (66, 102, 149, 190, 355), "hunt-large": (10, 12, 920039669)}
PROBE_RATIO_RTOL = 1e-9
MAX_RECORDED_VIOLATIONS = 10  # SuiteConfig.max_recorded_violations


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify", "hunt" or "probe"
    dims: tuple
    trials: int
    ids: tuple  # the inequality ids the workload covers
    commands: tuple  # (report name, argv without --report), run in order
    tiny: bool

    def argv(self, index: int, out_dir: Path) -> list:
        label, argv = self.commands[index]
        return [*argv, "--report", str(out_dir / f"{label}.json")]

    def report_paths(self, out_dir: Path) -> list:
        return [out_dir / f"{label}.json" for label, _ in self.commands]


def map_pool() -> str:
    """The ``--phi`` value of ``campaign`` and ``hunt-large``."""
    from loewner_lab.maps import DEFAULT_MAP_SPECS

    assert CONGRUENCE in DEFAULT_MAP_SPECS
    return ",".join(BOUNDED_CONGRUENCE if spec == CONGRUENCE else spec
                    for spec in DEFAULT_MAP_SPECS)


def build(name: str, seed: int, tiny: bool = False, default_pool: bool = False) -> Workload:
    """The named workload at ``seed``; ``tiny`` shrinks it for self-tests.

    ``default_pool`` drops ``--phi``, which gives the program's own command
    (see ``KNOWN_ABORTS``).
    """
    from loewner_lab.certificates import ALL_INEQUALITIES, NON_AUDIT_INEQUALITIES

    phi = () if default_pool else ("--phi", map_pool())
    if name == "campaign":
        kind, ids, selectors, extra = "verify", NON_AUDIT_INEQUALITIES, ("all-non-audit",), phi
        dims, trials = ((2, 3), 2) if tiny else ((2, 3, 4, 6, 8), 200)
    elif name == "hunt-large":
        kind, ids, selectors = "hunt", ALL_INEQUALITIES, ("all",)
        extra = ("--override-constant", "0.9", *phi)
        dims, trials = ((3,), 3) if tiny else ((12, 16), 60)
    elif name == "probe-sweep":
        kind, extra = "probe", ()
        ids = tuple(i for i in ALL_INEQUALITIES if i not in NOT_PROBEABLE)
        dims, trials = ((2,), 1) if tiny else ((6,), 20)
        if tiny:
            ids = ids[:3]
        selectors = ids
    else:
        raise ValueError(f"unknown workload {name!r}")
    shared = ("--dims", ",".join(str(d) for d in dims), "--trials", str(trials),
              *extra, "--seed", str(seed))
    commands = tuple((sel, (kind, "--ineq", sel, *shared)) for sel in selectors)
    return Workload(name, kind, dims, trials, tuple(ids), commands, tiny)


NAMES = ("campaign", "hunt-large", "probe-sweep")


def acceptance() -> Workload:
    """The acceptance campaign: ``campaign`` at seed 7 with the default pool,
    whose report must hash to ``ACCEPTANCE_SHA256``."""
    return replace(build("campaign", ACCEPTANCE_SEED, default_pool=True), name="acceptance")


def summarize(workload: Workload, out_dir: Path) -> dict:
    """Digest of a pass's reports: hash, size and the verdict counts."""
    raws = [path.read_bytes() for path in workload.report_paths(out_dir)]
    bodies = [json.loads(raw)["loewner_lab_report"] for raw in raws]
    summary = {"bytes": sum(len(raw) for raw in raws)}
    if len(raws) == 1:
        summary["sha256"] = hashlib.sha256(raws[0]).hexdigest()
    else:
        digests = "".join(hashlib.sha256(raw).hexdigest() for raw in raws)
        summary["sha256"] = hashlib.sha256(digests.encode()).hexdigest()
    summary["non_audit_violations"] = [
        sum(stats["violations"] for stats in body["results"].values()) for body in bodies]
    if workload.kind == "probe":
        summary["probes"] = {
            body["probe"]["inequality"]: {
                key: body["probe"][key]
                for key in ("max_ratio", "accepted_steps", "refine_steps", "dim")
            }
            for body in bodies
        }
        return summary
    summary["counts"] = {
        ineq: [stats["trials"], stats["holds_count"], stats["violations"],
               len(stats["violating_instances"])]
        for body in bodies for section in ("results", "audit_results")
        for ineq, stats in body[section].items()
    }
    return summary


def trials_done(workload: Workload, summary: dict) -> int:
    """Trials read from the reports (probe reports count their random starts)."""
    if workload.kind == "probe":
        return workload.trials * len(summary["probes"])
    return sum(c[0] for c in summary["counts"].values())


def _invariant_problems(workload: Workload, summary: dict) -> list:
    problems = []
    expected_trials = workload.trials * len(workload.dims)
    if workload.kind == "probe":
        if sorted(summary["probes"]) != sorted(workload.ids):
            return [f"probe reports cover {sorted(summary['probes'])}"]
        for ineq, probe in summary["probes"].items():
            ratio = probe["max_ratio"]
            if not (isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0):
                problems.append(f"{ineq}: max_ratio {ratio!r} is not a positive number")
            if not 0 <= probe["accepted_steps"] <= probe["refine_steps"]:
                problems.append(f"{ineq}: accepted_steps {probe['accepted_steps']} out of range")
            if probe["dim"] != workload.dims[0]:
                problems.append(f"{ineq}: probed dim {probe['dim']}")
        return problems
    counts = summary["counts"]
    if sorted(counts) != sorted(workload.ids):
        return [f"report covers {sorted(counts)}"]
    for ineq, (trials, holds, violations, recorded) in counts.items():
        if trials != expected_trials or holds + violations != trials:
            problems.append(f"{ineq}: {holds} holds + {violations} violations "
                            f"!= {expected_trials} trials")
        if recorded != min(violations, MAX_RECORDED_VIOLATIONS):
            problems.append(f"{ineq}: {recorded} recorded instances for {violations} violations")
        if workload.kind == "verify" and violations:
            problems.append(f"{ineq}: {violations} violations in a verify campaign")
    if workload.kind == "hunt" and not any(c[2] for c in counts.values()):
        problems.append("hunt at 0.9x the constants found no violation")
    return problems


def _reference_problems(workload: Workload, summary: dict, reference: dict) -> list:
    problems = []
    if workload.kind == "probe":
        for ineq, want in reference["probes"].items():
            got = summary["probes"].get(ineq)
            if got is None:
                problems.append(f"{ineq}: no probe report")
                continue
            gap = abs(got["max_ratio"] - want["max_ratio"])
            if gap > PROBE_RATIO_RTOL * abs(want["max_ratio"]):
                problems.append(f"{ineq}: max_ratio {got['max_ratio']!r} != "
                                f"reference {want['max_ratio']!r}")
            if got["accepted_steps"] != want["accepted_steps"]:
                problems.append(f"{ineq}: accepted_steps {got['accepted_steps']} != "
                                f"reference {want['accepted_steps']}")
        return problems
    for ineq, want in reference["counts"].items():
        got = summary["counts"].get(ineq)
        if got is None or got[:3] != want[:3]:
            problems.append(f"{ineq}: [trials, holds, violations] {got and got[:3]} != "
                            f"reference {want[:3]}")
    return problems


def load_references(path: Path = REFERENCES) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check(workload: Workload, rcs: list, summary: dict, reference: dict | None) -> list:
    """Problems with one pass's exit codes and reports (empty when correct).

    A command exits with 1 when its report has a non-audit violation and
    with 0 otherwise.
    """
    problems = [f"{workload.kind} --ineq {label}: exit code {rc}, expected {int(bool(v))}"
                for (label, _), rc, v in zip(workload.commands, rcs,
                                             summary["non_audit_violations"])
                if rc != int(bool(v))]
    problems += _invariant_problems(workload, summary)
    if workload.name == "acceptance" and summary["sha256"] != ACCEPTANCE_SHA256:
        problems.append(f"acceptance report sha256 {summary['sha256']} != {ACCEPTANCE_SHA256}")
    if reference is not None:
        problems += _reference_problems(workload, summary, reference)
    return problems
