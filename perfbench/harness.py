"""Workloads, timed passes, correctness checks and the result line.

A run builds every instance set of its workload (several times, to time
set-up).  Pass p solves instance set p mod ``sets``: every set gets one pass,
and further passes repeat the same sets while the next pass is expected to
end within ``--seconds``.  Each solve and each validation is one operation;
a time metric sums each operation's median time across its passes, i.e. it
is the time of one sweep over all instance sets.  The traced run makes one
untraced and one traced pass over the first instance set and reports
per-layer metrics instead.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy

from perfbench import THREAD_VARS
from perfbench.tracer import BASELINE_SPANS, SpanTable, Tracer, layer_metrics, reconcile

EPS = 1e-7
CAP_OUTER = 200000          # the outer cap `contraprox bench` uses
SETUP_REPS = 5
METHODS = ("gm", "agm", "ppa", "cptm-p1", "cn", "acn", "cptm-p2")


@dataclass(frozen=True)
class Cell:
    """One instance family member and the methods solved on it."""

    problem: str                 # "quadratic" or "lse"
    n: int
    cond: float                  # q for the quadratic, mu for lse
    methods: tuple
    l2: float | None = None      # lse L_2 for the schedule; None: the value bench uses
    sigma: float = 0.0           # weight of an added power regularizer psi


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    sets: int                    # instance seeds per run; pass p solves set p mod sets
    certified: bool              # validations are timed operations that must pass


WORKLOADS = {w.name: w for w in (
    Workload("quad-p1", tuple(Cell("quadratic", n, q, ("gm", "agm", "ppa", "cptm-p1"))
                              for n in (50, 100) for q in (1e-2, 1e-4)),
             sets=3, certified=True),
    Workload("lse-p2", tuple(Cell("lse", n, mu, ("cn", "acn", "cptm-p2"))
                             for n in (100, 200) for mu in (1.0, 0.1)),
             sets=2, certified=False),
    Workload("certify",
             tuple(Cell("lse", 50, mu, ("cptm-p2",), l2=2.0 / mu ** 2) for mu in (1.0, 0.1))
             + tuple(Cell("quadratic", 100, q, ("cptm-p1",), sigma=1e-4) for q in (1e-2, 1e-4)),
             sets=4, certified=True),
)}


def instance_seed(seed, j):
    return 1000 * seed + j


def _package_modules():
    return [name for name in sys.modules if name == "contraprox" or name.startswith("contraprox.")]


class Contraprox:
    """The package modules the benchmark calls, and the time to import them.

    ``import_s`` is the median of ``SETUP_REPS`` fresh imports of the
    package's own modules.  Its third-party dependencies are imported first,
    because their one-off import cost belongs to the machine, not the package.
    Modules the process had already imported are put back afterwards, so
    callers that hold them keep a consistent package.
    """

    MODULES = ("bench", "bregman", "contracting", "objectives", "validate")

    def __init__(self):
        for name in ("scipy.linalg", "scipy.optimize", "scipy.special"):
            importlib.import_module(name)
        loaded = {name: sys.modules[name] for name in _package_modules()}
        times = []
        for _ in range(SETUP_REPS):
            for name in _package_modules():
                del sys.modules[name]
            t0 = perf_counter()
            for name in self.MODULES:
                importlib.import_module("contraprox." + name)
            times.append(perf_counter() - t0)
        if loaded:
            for name in _package_modules():
                del sys.modules[name]
            sys.modules.update(loaded)
        self.import_s = statistics.median(times)
        for name in self.MODULES:
            setattr(self, name, importlib.import_module("contraprox." + name))


def build_cell(cp, cell, seed):
    if cell.problem == "quadratic":
        obj = cp.bench.build_instance("quadratic", cell.n, seed, q=cell.cond)
        if cell.sigma > 0:
            # the same psi that `contraprox solve --sigma` adds
            prox = cp.bregman.PowerProx(1, np.zeros(obj.dim), obj.metric)
            obj = obj.with_simple(cp.objectives.power_regularizer_component(cell.sigma, prox))
            cp.objectives.attach_reference(obj)
        return obj
    l2 = cp.bench.BENCH_LSE_LIPSCHITZ2 if cell.l2 is None else cell.l2
    return cp.bench.build_instance("lse", cell.n, seed, mu=cell.cond, lipschitz_order2=l2)


def build_or_error(cp, cell, seed):
    """The instance, or the exception its construction raised (reported as failed solves)."""
    try:
        return build_cell(cp, cell, seed)
    except Exception as exc:  # e.g. a reference optimum that does not converge
        return exc


def build_sets(cp, workload, seed, sets):
    return [[build_or_error(cp, cell, instance_seed(seed, j)) for cell in workload.cells]
            for j in range(sets)]


@dataclass
class Op:
    key: tuple                   # (set, cell, method, kind)
    kind: str                    # "cptm", "baseline" or "validate"
    seconds: float
    ok: bool
    detail: dict


def _schedule(cp, desc):
    if desc["kind"] == "sublinear":
        return cp.contracting.SublinearSchedule(desc["c"], desc["p"])
    return cp.contracting.GeometricSchedule(desc["omega"], desc["c"], desc["p"])


def _kind(method):
    return "cptm" if method.startswith("cptm") else "baseline"


def solve_op(cp, key, obj, method):
    if isinstance(obj, Exception):
        return Op(key, _kind(method), 0.0, False,
                  {"error": f"set-up: {type(obj).__name__}: {obj}"}), None
    t0 = perf_counter()
    try:
        trace = cp.bench.run_method(method, obj, EPS, cap_outer=CAP_OUTER)
    except Exception as exc:  # a raising solve is a failed operation, not a crash
        return Op(key, _kind(method), perf_counter() - t0, False,
                  {"error": f"{type(exc).__name__}: {exc}"}), None
    seconds = perf_counter() - t0
    # recompute F(x_K) - f* from the returned point instead of trusting the trace
    check = obj.fresh()
    x = trace.final.x
    gap = check.smooth.value(x) + check.simple.value(x) - obj.fstar
    detail = {"iterations": trace.iterations, "counters": dict(trace.final.counters),
              "status": trace.status, "gap": gap}
    if method.startswith("cptm"):
        detail["inner_steps"] = sum(rec.t_inner for rec in trace.records if rec.k >= 1)
    ok = trace.status == "converged" and gap <= EPS
    return Op(key, _kind(method), seconds, ok, detail), trace


def validate_op(cp, key, obj, trace, path):
    prox = cp.bregman.PowerProx(trace.header["p"], np.zeros(obj.dim), obj.metric)
    schedule = _schedule(cp, trace.header["schedule"])
    t0 = perf_counter()
    try:
        memory = cp.validate.validate_trace(trace, prox, obj.xstar, obj.fstar, schedule)
        trace.write_csv(path)
        from_file = cp.bench.validate_trace_file(path)
    except Exception as exc:  # a raising validation is a failed operation
        return Op(key, "validate", perf_counter() - t0, False,
                  {"error": f"{type(exc).__name__}: {exc}"})
    seconds = perf_counter() - t0
    failed = len(memory.failures()) + len(from_file.failures())
    detail = {"checks_memory": len(memory.checks), "checks_file": len(from_file.checks),
              "failed_checks": failed, "rows": len(trace.records),
              "bytes": os.path.getsize(path)}
    return Op(key, "validate", seconds, failed == 0, detail)


def run_pass(cp, workload, j, row, scratch, validate, spans=None):
    """Solve every (instance, method) of instance set ``j`` once; cptm traces are
    validated when asked."""
    ops = []
    path = os.path.join(scratch, "trace.csv")
    for c, (cell, obj) in enumerate(zip(workload.cells, row)):
        for method in cell.methods:
            if spans is not None:
                spans.begin_op()
            op, trace = solve_op(cp, (j, c, method, "solve"), obj, method)
            ops.append(op)
            if validate and trace is not None and op.kind == "cptm":
                if spans is not None:
                    spans.begin_op()
                ops.append(validate_op(cp, (j, c, method, "validate"), obj, trace, path))
    return ops


def _fingerprint(op):
    return op.detail.get("iterations"), op.detail.get("counters")


def repeat_problems(reference, repeats):
    """Iterations and oracle counters must repeat exactly for the same solve."""
    first = {}
    for op in reference:
        if op.kind != "validate":
            first.setdefault(op.key, op)
    return [f"{op.key}: {_fingerprint(op)} != {_fingerprint(first[op.key])}"
            for op in repeats
            if op.key in first and _fingerprint(op) != _fingerprint(first[op.key])]


def failure_lines(ops):
    """Every failed operation: one that raised, or one whose output is wrong."""
    return [f"{op.key}: {op.detail.get('error') or op.detail}" for op in ops if not op.ok]


def wrong_outputs(ops):
    """Failed operations that returned instead of raising: a solve that claimed
    convergence above eps, or a validation with a failed check."""
    return [f"{op.key}: {op.detail}" for op in ops if not op.ok and "error" not in op.detail]


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sum_medians(passes, kinds):
    """Time of one sweep over every instance set: each operation's median across passes."""
    times = defaultdict(list)
    for ops in passes:
        for op in ops:
            if op.kind in kinds:
                times[op.key].append(op.seconds)
    return sum(statistics.median(v) for v in times.values())


def measure(cp, workload, seed, seconds, scratch):
    """Untraced run: end-to-end metrics, operations, a summary with every
    issue-level metric, and repeatability problems.

    Pass p solves instance set p mod ``workload.sets``.  Every set gets one
    pass; further passes repeat the same sets while time allows.
    """
    builds = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        objs = build_sets(cp, workload, seed, workload.sets)
        builds.append(perf_counter() - t0)
    setup_s = cp.import_s + statistics.median(builds)

    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        j = len(passes) % workload.sets
        passes.append(run_pass(cp, workload, j, objs[j], scratch, validate=workload.certified))
        last = perf_counter() - t0
        if len(passes) >= workload.sets and perf_counter() - start + last > seconds:
            break
    ops = [op for pass_ops in passes for op in pass_ops]
    problems = repeat_problems(ops, ops)
    # one untimed re-solve per method, so a run without repeats also checks repeatability
    first_cell = {}
    for c, cell in enumerate(workload.cells):
        for method in cell.methods:
            first_cell.setdefault(method, c)
    for method, c in first_cell.items():
        op, _ = solve_op(cp, (0, c, method, "solve"), objs[0][c], method)
        problems += repeat_problems(ops, [op])

    kinds = {op.kind for op in ops}
    failed = sum(not op.ok for op in ops)
    cptm_s = _sum_medians(passes, {"cptm"})
    total_s = _sum_medians(passes, {"cptm", "baseline", "validate"})
    metrics = {"setup_s": (setup_s, "s"), "cptm_s": (cptm_s, "s"), "total_s": (total_s, "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    summary = dict(metrics,
                   baseline_s=(_sum_medians(passes, {"baseline"})
                               if "baseline" in kinds else None, "s"),
                   validate_s=(_sum_medians(passes, {"validate"})
                               if "validate" in kinds else None, "s"),
                   failed_frac=(failed / len(ops), f"of {len(ops)} attempted"),
                   import_s=(cp.import_s, "s"),
                   passes=(len(passes), "count"),
                   instance_seeds=([instance_seed(seed, j) for j in range(workload.sets)],
                                   "seeds"))
    return metrics, ops, summary, problems


def facts_of(ops):
    facts = {"outer_iters": 0, "inner_steps": 0, "cptm_solves": 0,
             "baseline_iters": Counter(), "baseline_solves": Counter(), "rows": 0, "bytes": 0,
             "checks_memory": 0, "checks_file": 0, "failed_checks": 0}
    for op in ops:
        d = op.detail
        if "error" in d:
            continue
        if op.kind == "cptm":
            facts["cptm_solves"] += 1
            facts["outer_iters"] += d["iterations"]
            facts["inner_steps"] += d["inner_steps"]
        elif op.kind == "baseline":
            facts["baseline_solves"][op.key[2]] += 1
            facts["baseline_iters"][op.key[2]] += d["iterations"]
        else:
            for key in ("rows", "bytes", "checks_memory", "checks_file", "failed_checks"):
                facts[key] += d[key]
    return facts


def traced(cp, workload, seed, scratch, out_dir, tracer=None):
    """Traced run over the first instance set: per-layer metrics, counted
    operations, a summary and repeatability problems.

    Raises :class:`TracingError` when span counts do not reconcile with the
    program's counters or a wrapper outlives the run.  Reconciliation needs
    every solve's iteration counts, so it is skipped when an operation raised.
    """
    row = build_sets(cp, workload, seed, 1)[0]
    t0 = perf_counter()
    plain = run_pass(cp, workload, 0, row, scratch, validate=True)
    plain_wall = perf_counter() - t0

    tracer = tracer or Tracer()
    tracer.install()
    try:
        tracer.spans.begin_op()
        row = build_sets(cp, workload, seed, 1)[0]
        t0 = perf_counter()
        ops = run_pass(cp, workload, 0, row, scratch, validate=True, spans=tracer.spans)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()

    counted = [op for op in plain + ops if op.kind != "validate" or workload.certified]
    problems = repeat_problems(plain, ops)
    facts = facts_of(ops)
    table = SpanTable(tracer.spans)
    raised = any("error" in op.detail for op in ops)
    if not raised:
        reconcile(table, tracer.counter_totals(), facts)
    metrics = layer_metrics(table, tracer.counter_totals(), facts)
    solve_s = defaultdict(float)
    for op in plain:
        if op.kind != "validate":
            solve_s[op.key[2]] += op.seconds
    for method in METHODS:
        metrics[f"bench.solve_s.{method}"] = (solve_s[method], "s")
    metrics["bench.baseline_s"] = (sum(solve_s[m] for m in BASELINE_SPANS), "s")
    metrics["bench.validate_s"] = (sum(op.seconds for op in plain if op.kind == "validate"), "s")
    metrics["tracing.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")

    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.npz")
    tracer.spans.save(spans_path)
    failed = sum(not op.ok for op in counted)
    summary = {"spans": (len(tracer.spans.start), "count"),
               "spans_file": (os.path.relpath(spans_path), "path"),
               "plain_wall_s": (plain_wall, "s"), "traced_wall_s": (traced_wall, "s"),
               "failed_frac": (failed / len(counted), f"of {len(counted)} attempted"),
               "reconciled": (not raised, "bool"),
               "instance_seeds": ([instance_seed(seed, 0)], "seeds")}
    return metrics, counted, summary, problems


def run(workload, seed, seconds, trace, out_dir):
    """Run one workload; prints a summary line, then the result line.

    A failed operation is counted in ``failed``; the run is ``correct`` (exit
    code 0) unless an output is wrong or a repeat differs.  A solve that
    raises is a failure the program reports itself, not a wrong output.
    """
    cp = Contraprox()
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if trace:
            metrics, ops, summary, problems = traced(cp, workload, seed, scratch, out_dir)
        else:
            metrics, ops, summary, problems = measure(cp, workload, seed, seconds, scratch)
    finally:
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)
    problems = wrong_outputs(ops) + problems
    print(json.dumps({"workload": workload.name, "seed": seed, "trace": int(trace),
                      "environment": environment(),
                      "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
                      "failures": failure_lines(ops), "problems": problems}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(not op.ok for op in ops),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1
