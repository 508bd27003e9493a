"""Command line interface.

    annsim run --algo {simple|general|near} --n N --d D --gamma G --k K
               [--c1 C1 --c2 C2 --c C] [--lambda L]
               [--dataset uniform|planted --plant-dist L --plant-gap G]
               [--override-s S --override-tau T] [--repeat R] [--jobs J]
               --trials T --seed S [--out FILE]
    annsim calibrate [--n N --d D --gamma G --seeds S --seed X --s S
                      --target R --out FILE]
    annsim selftest

Exit codes: 0 success, 1 invariant violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .core import CALIBRATED_C1, CALIBRATED_C2
from .errors import ConfigError
from .harness import (
    DatasetSpec,
    ExperimentConfig,
    calibrate,
    run_experiment,
    selftest,
    summarize,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annsim",
        description="Round-limited cell-probe simulator for approximate "
        "nearest neighbor search in Hamming space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write a CSV of trial records")
    run.add_argument("--algo", required=True, choices=["simple", "general", "near"])
    run.add_argument("--n", type=int, required=True, help="database size")
    run.add_argument("--d", type=int, required=True, help="dimension in bits")
    run.add_argument("--gamma", type=float, required=True, help="approximation ratio > 1")
    run.add_argument("--k", type=int, required=True, help="round budget")
    run.add_argument("--c1", type=float, default=CALIBRATED_C1, help="main sketch row factor")
    run.add_argument("--c2", type=float, default=CALIBRATED_C2, help="aux sketch row factor")
    run.add_argument("--c", type=float, default=4.0, help="phased-search exponent constant")
    run.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="distance budget for --algo near")
    run.add_argument("--dataset", choices=["uniform", "planted"], default="uniform")
    run.add_argument("--plant-dist", type=int, default=0)
    run.add_argument("--plant-gap", type=int, default=0)
    run.add_argument("--override-s", type=int, default=None)
    run.add_argument("--override-tau", type=int, default=None)
    run.add_argument("--repeat", type=int, default=1, help="parallel repetitions per trial")
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument("--no-assumption-checks", action="store_true",
                     help="skip the oracle assumption columns (faster)")
    run.add_argument("--trials", type=int, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", default=None, help="CSV output path")

    cal = sub.add_parser("calibrate", help="sweep c1/c2 and report assumption rates")
    cal.add_argument("--n", type=int, default=256)
    cal.add_argument("--d", type=int, default=128)
    cal.add_argument("--gamma", type=float, default=4.0)
    cal.add_argument("--seeds", type=int, default=200)
    cal.add_argument("--seed", type=int, default=7)
    cal.add_argument("--s", type=float, default=2.0, help="refinement parameter for c2 rates")
    cal.add_argument("--target", type=float, default=0.8)
    cal.add_argument("--out", default=None, help="optional CSV of sweep rates")

    sub.add_parser("selftest", help="run the fast invariant battery")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    dataset = DatasetSpec(
        kind=args.dataset, plant_dist=args.plant_dist, plant_gap=args.plant_gap
    )
    override = None
    if (args.override_s is None) != (args.override_tau is None):
        raise ConfigError("--override-s and --override-tau must be given together")
    if args.override_s is not None:
        override = (args.override_s, args.override_tau)
    return ExperimentConfig(
        algo=args.algo,
        n=args.n,
        d=args.d,
        gamma=args.gamma,
        k=args.k,
        c1=args.c1,
        c2=args.c2,
        c=args.c,
        dataset=dataset,
        repeat=args.repeat,
        override=override,
        lam=args.lam,
        out=args.out,
        check_assumptions=not args.no_assumption_checks,
        jobs=args.jobs,
        trials=args.trials,
        seed=args.seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    records = run_experiment(cfg)
    stats = summarize(records)
    print(f"trials:            {stats['trials']}")
    print(f"success rate:      {stats['success_rate']:.4f}")
    print(f"mean/max probes:   {stats['mean_probes']:.2f} / {stats['max_probes']}")
    print(f"mean rounds:       {stats['mean_rounds']:.2f}")
    if stats["assumption1_rate"] is not None:
        print(f"assumption1 rate:  {stats['assumption1_rate']:.4f}")
    if stats["joint_assumption_rate"] is not None:
        print(f"joint assumptions: {stats['joint_assumption_rate']:.4f}")
    if cfg.out:
        print(f"records written:   {cfg.out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    report = calibrate(
        n=args.n, d=args.d, gamma=args.gamma, seeds=args.seeds,
        seed=args.seed, s=args.s, target=args.target, out=args.out,
    )
    print(f"sandwich rate by c1 ({report.seeds} seeds):")
    for c1, rate in report.c1_rates:
        print(f"  c1={c1:<6g} rate={rate:.3f}")
    print(f"joint rate by c2 at c1={report.chosen_c1:g}:")
    for c2, rate in report.c2_rates:
        print(f"  c2={c2:<6g} rate={rate:.3f}")
    print(f"calibrated: c1={report.chosen_c1:g} c2={report.chosen_c2:g} "
          f"(target {report.target})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        ok = selftest(verbose=True)
        print("selftest:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
