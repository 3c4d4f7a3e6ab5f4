"""Benchmark of loewner-lab's batch verifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory.  The
workload (see ``workloads.py``) runs through ``loewner_lab.cli.main`` in
this process, one command after the other, in passes until ``--seconds``
is used up (at least two passes, so that a run can compare them).  Every
pass is checked for correctness.
End-to-end times are in reference seconds (see ``speed.py``); the raw
times are printed beside them.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` adds one traced pass and prints the per-layer
metrics.  Each metric is printed as ``name = value unit`` and the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits with 0 whenever it prints that line; a failed
check shows as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import micro
import spans
import speed
import workloads

SETUP_REPEATS = 11
OUT_DIR = ".perfbench_out"
# A fresh interpreter imports the package and builds the workload's config.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from loewner_lab import cli; "
    "cli._config_from_args(cli.build_parser().parse_args(sys.argv[1:]))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the workload, for self-tests")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as its reference")
    return parser.parse_args(argv)


def import_package(root: Path):
    """Import loewner_lab from ``root/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "loewner_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no loewner_lab package under {src}")
    sys.path.insert(0, str(src))
    import loewner_lab
    import loewner_lab.cli

    if Path(loewner_lab.__file__).resolve().parent != (src / "loewner_lab").resolve():
        raise SystemExit(f"perfbench: imported loewner_lab from {loewner_lab.__file__}")
    return loewner_lab.cli


def cpu_now() -> float:
    """CPU seconds of this process and its reaped children (a worker's CPU
    counts once the worker has been waited for)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class TreeRss:
    """Peak resident set size of this process and its live descendants.

    While running, a thread sums ``VmRSS`` over the process tree read from
    ``/proc`` every ``INTERVAL_S``; ``peak_mb`` is the largest sum, or this
    process's own peak if that is larger (it also covers spikes between
    samples).  Only the tree that exists while the workload runs counts,
    so the set-up interpreters do not.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def _rss_kb(pid: int) -> int:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        return 0

    @classmethod
    def tree_kb(cls, pid: int) -> int:
        total = cls._rss_kb(pid)
        for task in Path(f"/proc/{pid}/task").iterdir():
            for child in (task / "children").read_text().split():
                try:
                    total += cls.tree_kb(int(child))
                except OSError:  # the child has ended
                    pass
        return total

    def _sample(self):
        pid = os.getpid()
        while not self._stop.wait(self.INTERVAL_S):
            self.peak_kb = max(self.peak_kb, self.tree_kb(pid))

    def __enter__(self):
        if Path(f"/proc/{os.getpid()}/task").is_dir():
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.peak_kb) / 1024.0


def measure_setup(root: Path, argv: list) -> float:
    """Median raw seconds of a fresh interpreter importing the package and
    building the workload's config.

    Speed samples around each start-up are too few to scale it, so
    ``end_to_end`` divides the median by the speed factor of the whole run.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(cli, workload, out_dir: Path, sample_steps: bool = True):
    """Run every command once.

    Returns the exit codes and the pass's (wall, cpu) seconds, raw and in
    reference seconds.  Only the commands are timed.  Reports of an earlier
    pass are removed first, so a command that writes none is caught.
    A traced pass samples the speed only between commands
    (``sample_steps=False``), so that no sample falls inside a span.
    """
    for path in workload.report_paths(out_dir):
        path.unlink(missing_ok=True)
    rcs = []
    clock = speed.Clock(cpu_now)
    steps = (speed.sampling_steps(importlib.import_module("loewner_lab.suite"), clock)
             if sample_steps else contextlib.nullcontext())
    with contextlib.redirect_stdout(io.StringIO()), steps:
        for index in range(len(workload.commands)):
            try:
                rcs.append(cli.main(workload.argv(index, out_dir)))
            except Exception:  # a crash fails the pass; the run goes on
                traceback.print_exc()
                rcs.append(None)
            clock.mark()
    return rcs, clock.raw, clock.scaled


class Passes:
    """Timed, checked passes of one workload."""

    def __init__(self, cli, workload, out_dir: Path, reference):
        self.cli, self.workload = cli, workload
        self.out_dir, self.reference = out_dir, reference
        self.raw, self.scaled, self.problems = [], [], {}
        self.attempted = self.failed = 0
        self.summary = None

    def run_one(self, sample_steps: bool = True) -> tuple[list, list]:
        rcs, raw, scaled = run_pass(self.cli, self.workload, self.out_dir, sample_steps)
        try:
            summary = workloads.summarize(self.workload, self.out_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable report: {exc!r}; exit codes {rcs}"]
        else:
            problems = workloads.check(self.workload, rcs, summary, self.reference)
            if self.summary is None:
                self.summary = summary
            elif summary["sha256"] != self.summary["sha256"]:
                problems.append("reports differ from the first pass of this run")
        self.count(problems)
        return raw, scaled

    def count(self, problems: list) -> None:
        """Count one checked run of the commands and its problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:  # counted per run of the commands
                self.problems[problem] = self.problems.get(problem, 0) + 1

    def check_acceptance(self) -> None:
        """Run and check the acceptance campaign once, untimed."""
        load = workloads.acceptance()
        out_dir = self.out_dir / "acceptance"
        out_dir.mkdir(exist_ok=True)
        rcs, _, _ = run_pass(self.cli, load, out_dir, sample_steps=False)
        try:
            summary = workloads.summarize(load, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable acceptance report: {exc!r}; exit codes {rcs}"]
        else:
            problems = workloads.check(load, rcs, summary, None)
        self.count(problems)

    def run_for(self, seconds: float, min_passes: int) -> None:
        start = time.perf_counter()
        while True:
            raw, scaled = self.run_one()
            self.raw.append(raw)
            self.scaled.append(scaled)
            if (len(self.raw) >= min_passes
                    and time.perf_counter() - start + self.median(self.raw, 0) > seconds):
                return

    @staticmethod
    def median(times: list, which: int) -> float:
        """Median over passes of wall (0) or cpu (1) seconds."""
        return statistics.median(t[which] for t in times)


def end_to_end(passes: Passes, setup: float, peak_mb: float) -> dict:
    wall = passes.median(passes.scaled, 0)
    factor = passes.median(passes.raw, 0) / wall
    trials = workloads.trials_done(passes.workload, passes.summary) if passes.summary else 0
    print(f"raw: wall_s = {passes.median(passes.raw, 0)!r} s, cpu_s = "
          f"{passes.median(passes.raw, 1)!r} s, setup_s = {setup!r} s")
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (trials / wall, "1/s"),
        "cpu_s": (passes.median(passes.scaled, 1), "s"),
        "setup_s": (setup / factor, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(passes: Passes, out_dir: Path, seed: int) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        raw, scaled = passes.run_one(sample_steps=False)
    finally:
        tracer.uninstall()
    if passes.summary:
        tracer.report_bytes = passes.summary["bytes"]
    tracer.save(out_dir / "spans.npz")
    metrics = spans.layer_metrics(tracer, raw[0])
    untraced = passes.median(passes.scaled, 0)
    metrics["trace.wall_s"] = (raw[0], "s")
    metrics["trace.overhead_frac"] = ((scaled[0] - untraced) / untraced, "1")
    metrics["trace.speed_factor"] = (raw[0] / scaled[0], "1")
    metrics.update(micro.run(seed))
    return metrics


def record(workload_name: str, seed: int, summary: dict) -> None:
    refs = workloads.load_references()
    refs.setdefault(workload_name, {})[str(seed)] = summary
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    cli = import_package(root)
    tiny = args.size == "tiny"
    workload = workloads.build(args.workload, args.seed, tiny=tiny)
    reference = None
    if not tiny and not args.record:
        reference = workloads.load_references().get(args.workload, {}).get(str(args.seed))
    out_dir = root / OUT_DIR / args.workload
    (out_dir / "warmup").mkdir(parents=True, exist_ok=True)

    setup = None if args.trace else measure_setup(root, list(workload.commands[0][1]))
    # Warm-up: first-call costs are paid before timing starts.
    run_pass(cli, workloads.build(args.workload, args.seed, tiny=True), out_dir / "warmup")
    passes = Passes(cli, workload, out_dir, reference)
    if args.workload == "campaign" and not tiny and args.seed == workloads.ACCEPTANCE_SEED:
        passes.check_acceptance()
    if args.trace:
        # The traced pass is the second pass, checked against the first.
        passes.run_for(args.seconds, min_passes=1)
        metrics = per_layer(passes, out_dir, args.seed)
    else:
        with TreeRss() as rss:
            passes.run_for(args.seconds, min_passes=2)
        metrics = end_to_end(passes, setup, rss.peak_mb())

    failed_frac = passes.failed / passes.attempted
    print(f"workload {args.workload}, seed {args.seed}, {passes.attempted} passes, "
          f"reference {'recorded' if reference else 'none'}, "
          f"report sha256 {passes.summary and passes.summary['sha256']}")
    for problem, count in passes.problems.items():
        print(f"FAILED CHECK ({count} of {passes.attempted} passes): {problem}")
    print(f"failed_frac = {failed_frac!r} 1")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if args.record and not passes.problems:
        record(args.workload, args.seed, passes.summary)
    result = {
        "correct": not passes.problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
