"""Batch front end: verify / hunt / probe / scalarcheck / recheck."""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import suite as suite_mod
from .certificates import SCALAR_SANDWICH, check_stack
from .errors import LoewnerLabError
from .generate import SplitMix64, derive_seed
from .kernels import (
    ARITHMETIC,
    HARMONIC,
    SQUARE,
    default_grid,
    is_symmetric_kernel,
    kernel_catalog,
    kernel_dominance,
    loewner_matrix_psd_test,
    monotone_catalog,
    sandwich_constant,
    specht_ratio,
)
from .suite import SuiteConfig, hunt_counterexamples, probe_tightness, run_suite, write_report


def _add_common(parser: argparse.ArgumentParser) -> None:
    # the defaults are SuiteConfig's, written as the flags spell them
    parser.add_argument("--ineq", default=",".join(SuiteConfig.inequalities),
                        help="comma list of inequality ids, or all / all-non-audit")
    parser.add_argument("--dims", default=",".join(map(str, SuiteConfig.dims)),
                        help="comma list of dimensions")
    parser.add_argument("--trials", type=int, default=SuiteConfig.trials)
    parser.add_argument("--seed", type=int, default=SuiteConfig.seed)
    parser.add_argument("--tol", type=float, default=SuiteConfig.tol_rel,
                        help="relative slack tolerance")
    for name in ("s", "t", "m", "M"):
        parser.add_argument(f"--{name}", type=float, default=None)
    for _, flags, text in suite_mod.SPEC_POOLS.values():
        for flag in flags:
            parser.add_argument(f"--{flag}", default=None, help=f"restrict {text} (comma list)")
    parser.add_argument("--report", default=None, help="write the JSON report here")


def _config_from_args(args) -> SuiteConfig:
    kwargs = {name: getattr(args, name) for name in ("trials", "seed", "s", "t", "m", "M")}
    kwargs.update(
        inequalities=tuple(x.strip() for x in args.ineq.split(",") if x.strip()),
        # a dimension that is no decimal integer stays a str, which SuiteConfig refuses
        dims=tuple(int(x) if x.strip().isdecimal() else x for x in args.dims.split(",")
                   if x.strip()),
        tol_rel=args.tol)
    for name, (_, flags, _) in suite_mod.SPEC_POOLS.items():
        specs = [spec for flag in flags if getattr(args, flag)
                 for spec in _specs(getattr(args, flag))]
        if specs:  # --tau and --sigma fill one pool, which takes each kernel once
            kwargs[name] = tuple(dict.fromkeys(specs)) if len(flags) > 1 else specs
    return SuiteConfig(**kwargs)


def _specs(flag: str) -> tuple:
    """A comma list's specs; a comma before a digit stays inside one, as in pinching:1,2."""
    return tuple(x.strip() for x in re.split(r",(?!\d)", flag))


def _finish(report, args) -> int:
    if args.report:
        write_report(report, args.report)
    for section_name, section in (("results", report.results), ("audit", report.audit_results)):
        for ineq, stats in section.items():
            status = "ok" if stats["violations"] == 0 else f"{stats['violations']} violations"
            print(f"[{section_name}] {ineq}: {stats['holds_count']}/{stats['trials']} hold "
                  f"({status}, min slack {stats['min_slack']:.3e})")
    if report.probe is not None:
        print(f"[probe] {report.probe['inequality']}: max ratio "
              f"{report.probe['max_ratio']:.6f} over cell {report.probe['cell']}")
    print(f"wall time: {report.wall_time_s:.2f}s")
    return 0 if report.all_non_audit_hold else 1


def _cmd_verify(args) -> int:
    return _finish(run_suite(_config_from_args(args)), args)


def _cmd_hunt(args) -> int:
    return _finish(hunt_counterexamples(_config_from_args(args), args.override_constant), args)


def _cmd_probe(args) -> int:
    return _finish(probe_tightness(_config_from_args(args)), args)


def _cmd_recheck(args) -> int:
    reproduced, detail = suite_mod.recheck(args.report_path, args.index)
    status = "REPRODUCED" if reproduced else "NOT-REPRODUCED"
    print(f"{status} {detail['inequality']} dim={detail['dim']} trial={detail['trial']}: "
          f"recorded slack {detail['recorded_slack']:.6e}, "
          f"recomputed {detail['recomputed_slack']:.6e}")
    return 0 if reproduced else 1


def _cmd_scalarcheck(args) -> int:
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")

    for kernel in kernel_catalog():
        low = kernel_dominance(HARMONIC, kernel)
        high = kernel_dominance(kernel, ARITHMETIC)
        check(f"dominance harmonic <= {kernel.id} <= arithmetic",
              low.holds and high.holds,
              f"margins {low.margin:.2e}, {high.margin:.2e}")
        check(f"symmetry {kernel.id}", is_symmetric_kernel(kernel))
    rng = SplitMix64(derive_seed(args.seed, 0x5CA1AB1E))
    point_sets = [[rng.uniform(1e-3, 1e3) for _ in range(5)] for _ in range(20)]
    for fn in monotone_catalog():
        ok = all(loewner_matrix_psd_test(fn, pts) for pts in point_sets)
        check(f"loewner psd screen accepts {fn.id}", ok)
    rejected = sum(0 if loewner_matrix_psd_test(SQUARE, pts) else 1 for pts in point_sets)
    check("loewner psd screen rejects square", rejected >= 1, f"{rejected}/20 rejected")
    worst = min(specht_ratio(h) for h in default_grid())
    check("specht ratio >= 1 on grid", worst >= 1.0 - 1e-12, f"min {worst:.6f}")
    boundary_gap = max(
        abs(sandwich_constant(s, 1.0 / s) - (0.5 * (s**0.5 + (1.0 / s) ** 0.5)) ** 2)
        for s in (0.1, 0.5, 0.9, 1.0)
    )
    check("sandwich constant continuous across s*t = 1", boundary_gap <= 1e-12,
          f"max gap {boundary_gap:.2e}")
    cells = [(0.25, 4.0), (0.5, 0.8), (2.0, 3.0)]
    sandwich = check_stack(SCALAR_SANDWICH, None, None, cells, {})
    for (s, t), holds, slack in zip(cells, sandwich.holds, sandwich.slack):
        check(f"scalar sandwich bounds on [{s}, {t}]", holds, f"min slack {slack:.2e}")
    print(f"done: {failures} failures")
    return 0 if failures == 0 else 1


@functools.cache  # one parser serves every call: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner-lab",
        description="Verify, hunt, and probe operator-mean inequalities on "
                    "positive definite matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a randomized certificate suite")
    _add_common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_hunt = sub.add_parser("hunt", help="re-run with a scaled constant, collecting violations")
    _add_common(p_hunt)
    p_hunt.add_argument("--override-constant", type=float, required=True,
                        help="positive multiplier applied to every constant")
    p_hunt.set_defaults(fn=_cmd_hunt)

    p_probe = sub.add_parser("probe", help="hill-climb for the largest observed ratio")
    _add_common(p_probe)
    p_probe.set_defaults(fn=_cmd_probe, dims="2")  # probe searches one dimension

    p_scalar = sub.add_parser("scalarcheck", help="run the scalar-kernel invariants")
    p_scalar.add_argument("--seed", type=int, default=0)
    p_scalar.set_defaults(fn=_cmd_scalarcheck)

    p_recheck = sub.add_parser("recheck", help="re-evaluate a recorded violation")
    p_recheck.add_argument("report_path")
    p_recheck.add_argument("index", type=int)
    p_recheck.set_defaults(fn=_cmd_recheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError, OSError, ArithmeticError, LoewnerLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
