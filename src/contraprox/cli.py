"""Command-line harness: solve | bench | validate | curves.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bench import (KNOWN_METHODS, bench_sweep, solve_experiment, validate_trace_file,
                    write_json)
from .contracting import order_dependence
from .objectives import SolverError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contraprox",
        description="Contracting proximal solvers, baselines and certificate validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run methods on one instance, write traces")
    solve.add_argument("--problem", required=True, choices=("quadratic", "lse"))
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--q", type=float, help="condition ratio for the quadratic")
    solve.add_argument("--alpha", type=float, help="spectrum steepness (instead of --q)")
    solve.add_argument("--mu", type=float, help="smoothing parameter for lse")
    solve.add_argument("--l2", type=float,
                       help="Lipschitz constant of the lse Hessian for the schedule (default 1)")
    solve.add_argument("--eps", type=float, default=1e-7)
    solve.add_argument("--method", action="append", required=True,
                       choices=KNOWN_METHODS, help="repeatable")
    solve.add_argument("--delta-schedule", default="power:1.0,2.0",
                       help="const:<v> | power:<c>,<s> | theorem")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--sigma", type=float, default=0.0,
                       help="weight of an added power regularizer psi")
    solve.add_argument("--gamma0", type=float, default=1.0)
    solve.add_argument("--out", required=True, help="output directory")
    solve.add_argument("--cap-outer", type=int, default=5000)

    bench = sub.add_parser("bench", help="Cartesian sweep with per-cell medians")
    bench.add_argument("--suite", required=True, choices=("quadratic", "lse"))
    bench.add_argument("--sizes", type=_int_list, default=[50, 100])
    bench.add_argument("--conditionings", type=_float_list, default=None,
                       help="q values (quadratic) or mu values (lse)")
    bench.add_argument("--eps", type=float, default=1e-7)
    bench.add_argument("--seeds", type=_int_list, default=[0, 1, 2])
    bench.add_argument("--method", action="append", choices=KNOWN_METHODS,
                       default=None)
    bench.add_argument("--delta-schedule", default="power:1.0,2.0")
    bench.add_argument("--cap-outer", type=int, default=200000)
    bench.add_argument("--out", required=True, help="output directory")

    validate = sub.add_parser("validate", help="re-check certificates on a trace file")
    validate.add_argument("--trace", required=True)
    validate.add_argument("--instance", default=None,
                          help="instance descriptor JSON (enables optimum-based checks)")

    curves = sub.add_parser("curves", help="inner accuracy and iteration count vs order")
    curves.add_argument("--p-min", type=int, default=1)
    curves.add_argument("--p-max", type=int, default=10)
    curves.add_argument("--out", required=True, help="output CSV file")
    return parser


def cmd_solve(args):
    keys = {"q": "q", "alpha": "alpha", "mu": "mu", "l2": "lipschitz_order2"}
    given = {flag: getattr(args, flag) for flag in keys if getattr(args, flag) is not None}
    ignored = [f"--{flag}" for flag in given
               if flag in {"quadratic": ("mu", "l2"), "lse": ("q", "alpha")}[args.problem]]
    if ignored:
        print(f"solve: --problem {args.problem} takes no {', '.join(ignored)}", file=sys.stderr)
        return EXIT_USAGE
    problem = {"problem": args.problem, "n": args.n, "seed": args.seed, "sigma": args.sigma,
               **{keys[flag]: value for flag, value in given.items()}}
    try:
        _, report, all_ok = solve_experiment(
            problem, args.method, args.eps, delta_schedule=args.delta_schedule,
            gamma0=args.gamma0, cap_outer=args.cap_outer, out_dir=args.out)
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solve: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for row in report["results"]:
        tail = (f"iter={row['iterations']} oracle={row['oracle']}"
                if "iterations" in row else row.get("error", ""))
        status = "ok" if row["converged"] else "FAILED"
        print(f"{row['method']:>8}: {status} {tail}")
    return EXIT_OK if all_ok else EXIT_SOLVER


def cmd_bench(args):
    conditionings = args.conditionings
    if conditionings is None:
        conditionings = [1e-2, 1e-4] if args.suite == "quadratic" else [1.0, 0.1]
    try:
        table = bench_sweep(args.suite, args.sizes, conditionings, args.eps,
                            args.seeds, methods=args.method,
                            delta_schedule=args.delta_schedule,
                            cap_outer=args.cap_outer)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"bench: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    write_json(os.path.join(args.out, f"bench_{args.suite}.json"), table)
    print(f"{'n':>6} {'cond':>10} {'method':>8} {'iter':>8} {'oracle':>10} {'fail':>5}")
    for row in table["rows"]:
        print(f"{row['n']:>6} {row['cond']:>10g} {row['method']:>8} "
              f"{row['iterations']:>8} {row['oracle']:>10} {row['failures']:>5}")
    failures = sum(row["failures"] for row in table["rows"])
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def cmd_validate(args):
    try:
        report = validate_trace_file(args.trace, args.instance)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"validate: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"validate: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for line in report.lines():
        print(line)
    if report.ok:
        print(f"validate: all {len(report.checks)} checks passed")
        return EXIT_OK
    print(f"validate: {len(report.failures())} of {len(report.checks)} checks FAILED",
          file=sys.stderr)
    return EXIT_VALIDATION


def cmd_curves(args):
    if args.p_min < 1 or args.p_max < args.p_min:
        print("curves: need 1 <= p-min <= p-max", file=sys.stderr)
        return EXIT_USAGE
    lines = ["p,delta,K"]
    for p in range(args.p_min, args.p_max + 1):
        try:
            delta, K = order_dependence(p)
        except OverflowError:
            delta, K = 0.0, math.inf
        if not (delta > 0 and math.isfinite(K)):
            print(f"curves: delta or K of order {p} leaves the float range", file=sys.stderr)
            return EXIT_USAGE
        lines.append(f"{p},{delta!r},{K!r}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:    # an --out that cannot be written is a usage error, found before any solve
        if args.command in ("solve", "bench"):
            os.makedirs(args.out, exist_ok=True)
        return {"solve": cmd_solve, "bench": cmd_bench, "validate": cmd_validate,
                "curves": cmd_curves}[args.command](args)
    except OSError as exc:    # validate reports its own input errors
        print(f"{args.command}: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
