"""Command-line harness: solve | bench | validate | curves.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (KNOWN_METHODS, ExperimentSpec, bench_sweep,
                    solve_experiment, validate_trace_file)
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
    solve.add_argument("--alpha", type=float, help="spectrum steepness (overrides --q)")
    solve.add_argument("--mu", type=float, help="smoothing parameter for lse")
    solve.add_argument("--l2", type=float, default=1.0,
                       help="Lipschitz constant of the lse Hessian used by the schedule")
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
    solve.add_argument("--cap-inner", type=int, default=None)

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
    bench.add_argument("--cap-inner", type=int, default=None)
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
    problem = {"problem": args.problem, "n": args.n, "seed": args.seed}
    if args.problem == "quadratic":
        if args.alpha is None and args.q is None:
            print("solve: quadratic needs --q or --alpha", file=sys.stderr)
            return EXIT_USAGE
        problem.update({"q": args.q, "alpha": args.alpha})
    else:
        if args.mu is None:
            print("solve: lse needs --mu", file=sys.stderr)
            return EXIT_USAGE
        problem.update({"mu": args.mu, "lipschitz_order2": args.l2})
    spec = ExperimentSpec(problem=problem, methods=args.method, eps=args.eps,
                          delta_schedule=args.delta_schedule, gamma0=args.gamma0,
                          sigma=args.sigma, out_dir=args.out,
                          cap_outer=args.cap_outer, cap_inner=args.cap_inner)
    try:
        spec.validate()
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _, report, all_ok = solve_experiment(spec)
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
                            cap_outer=args.cap_outer, cap_inner=args.cap_inner)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    table.write_json(os.path.join(args.out, f"bench_{args.suite}.json"))
    print(table.text())
    failures = sum(row["failures"] for row in table.rows)
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def cmd_validate(args):
    try:
        report = validate_trace_file(args.trace, args.instance)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"validate: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        delta, K = order_dependence(p)
        lines.append(f"{p},{delta!r},{K!r}")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "bench": cmd_bench,
               "validate": cmd_validate, "curves": cmd_curves}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
