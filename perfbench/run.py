"""Run one benchmark workload in this process and print its result line.

    python3 perfbench/run.py --workload quad-p1 --seed 0 --seconds 30 --trace 0

The last line of standard output is the JSON result; the line before it
records the environment and a summary.  BLAS threads are pinned to one before
numpy is imported.  The contraprox sources are taken from ``src/`` next to
this directory; without them the run stops with exit code 2.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "contraprox", "__init__.py")):
        print(f"run.py: no contraprox sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    from perfbench import harness
    if args.workload not in harness.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                       args.trace, os.path.join(ROOT, "perfbench", "out"))


if __name__ == "__main__":
    if "numpy" in sys.modules:
        sys.exit("run.py: numpy was imported before BLAS threads could be pinned")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
