"""Runtime validation of convergence certificates along recorded traces.

One check body runs over a dict of columns with one entry per outer
iteration, row 0 being x_0.  A serialized trace brings its CSV columns, and
the body replays from them and the header the residual F - f*, F >= f*, the
outer residual-plus-divergence
certificate, the telescoped proximal coefficients, the sum A_k = A_{k-1} + a_k,
the coefficient-schedule growth envelopes, the requested inner accuracy, the
inner condition ratio and the inner iteration budget: L_p(g) and ell/mu are
derived, not recorded.  Against a rebuilt instance a file's D(x_0; x*) is
recomputed from the header's x_0 as well, checked against row 0 and used in
its place.  An in-memory trace adds the iterates x and v as read-only views,
D(v_k; x*) recomputed per row and the table of inner steps,
``RunTrace.steps``, and the body then also replays per-step descent and
gradient progress of the inner method and the contraction combination that
makes x_{k+1}.

Each check is one array expression over its rows, except the inner budget
(the scalar :func:`inner_iteration_bound` per iteration) and the contraction
combination, which loop over the iterations so that no K-by-n temporary is
made.  The report is one record array: a row per check with its name, the
outer iteration k and inner step t (-1 where they do not apply), whether it
passed and its margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bregman import PowerProx, divergence_from
from .contracting import (INNER_SLACK, GeometricSchedule, SublinearSchedule,
                          contracted_lipschitz, ell_mu, inexact_certificate_bounds,
                          inner_iteration_bound)

CHECK_DTYPE = [("name", object), ("k", np.int64), ("t", np.int64), ("passed", bool),
               ("margin", float)]


@dataclass
class ValidationReport:
    """The checks of one validation, as a record array with :data:`CHECK_DTYPE` rows."""

    checks: np.recarray

    @property
    def ok(self):
        return bool(np.all(self.checks.passed))

    def failures(self):
        return self.checks[~self.checks.passed]

    def lines(self):
        return [f"[{'ok  ' if c.passed else 'FAIL'}] {c.name}"
                + (f" k={c.k}" if c.k >= 0 else "") + (f" t={c.t}" if c.t >= 0 else "")
                + f" margin={c.margin:.3e}" for c in self.checks]


def _rows(name, k, passed, margin, t=-1):
    """The report rows of one check, one for each entry of k."""
    rows = np.recarray(np.shape(k), dtype=CHECK_DTYPE)
    rows.name, rows.k, rows.t, rows.passed, rows.margin = name, k, t, passed, margin
    return rows


def _header_schedule(header):
    """The schedule a trace header describes, or None; ValueError unless p and a schedule's
    p are the same int, 1 or 2, and the other fields the checks read are finite numbers."""
    sched = header.get("schedule")
    kind = sched.get("kind") if isinstance(sched, dict) else None
    p = header.get("p")
    fields = [(name, header.get(name))
              for name in ("gamma0", "lipschitz", "sigma_simple", "sigma_uniform")]
    fields += [("fstar", header["fstar"])] if header.get("fstar") is not None else []
    fields += [(f"schedule {name}", sched.get(name)) for name in
               {"sublinear": ("c",), "geometric": ("omega", "c")}.get(kind, ())]
    bad = [f"{name} = {value!r}" for name, value in fields if isinstance(value, bool)
           or not isinstance(value, (int, float)) or not math.isfinite(value)]
    if type(p) is not int or p not in (1, 2):
        bad.insert(0, f"p = {p!r}")
    elif kind in ("sublinear", "geometric") and (type(sched.get("p")), sched.get("p")) != (int, p):
        bad.insert(0, f"schedule p = {sched.get('p')!r}")
    if bad:
        raise ValueError(f"the trace header has {', '.join(bad)}, but p must be the int 1 or "
                         "2, the schedule's p the same and the rest finite numbers")
    if kind == "sublinear":
        return SublinearSchedule(sched["c"], sched["p"])
    if kind == "geometric":
        return GeometricSchedule(sched["omega"], sched["c"], sched["p"])
    return None


def _check(header, columns, fstar, schedule, bregman0):
    """Every check the columns support.

    Residuals are F - f* when f* is known, else the ``residual`` column, which
    must be F minus the header's f*, the one the run used, bit for bit.
    ``bregman0`` is D(v_0; x*) recomputed from the instance, which row 0's must
    match, or None to take row 0's; one that is not a finite number >= 0
    fails the certificate at every row.  Schedule growth needs a sublinear or
    geometric schedule.  A trace without iterations fails one "nonempty" check
    and is checked no further."""
    mask = columns["k"] >= 1
    ks = columns["k"][mask].astype(int)
    if ks.size == 0:
        return ValidationReport(_rows("nonempty", [-1], False, -1.0))
    p, gamma0, sigma_simple = header["p"], header["gamma0"], header["sigma_simple"]
    A, gamma, s_norm = columns["A_k"][mask], columns["gamma_k"][mask], columns["s_norm"][mask]
    F, div = columns["F"], columns["bregman_vstar"]
    residual = F - fstar if fstar is not None else columns["residual"]
    parts = []
    if header.get("fstar") is not None:
        err = np.abs(columns["residual"] - (F - header["fstar"]))
        parts.append(_rows("residual_consistent", columns["k"], err == 0.0, 0.0 - err))
    # F(x_k) >= f* but for round-off: 157 honest runs (default bench grids, benchmark
    # instances) keep F - f* >= 2.4e-11, and f* moves 1.6e-16 |f*| between two solves
    floor = -1e-12 * (np.abs(F) + 1.0)
    parts.append(_rows("above_optimum", columns["k"], residual >= floor, residual - floor))
    recorded = next(iter(div[columns["k"] == 0].tolist()), math.nan)
    if bregman0 is None:
        bregman0 = recorded
    else:
        err = abs(recorded - bregman0) / max(abs(bregman0), 1.0)
        parts.append(_rows("initial_divergence", [0], err <= 1e-12, 1e-12 - err))
    if not 0.0 <= bregman0 < math.inf:
        bregman0 = math.nan    # a negative one would make the head term complex
    lhs = A * residual[mask] + gamma * div[mask] + np.cumsum(gamma * columns["bregman_step"][mask])
    rhs = inexact_certificate_bounds(p, gamma0, sigma_simple, bregman0, header["sigma_uniform"],
                                     s_norm, A)[1:]
    slack = 1e-9  # relative, and 1e-3 of it absolute
    margin = ((rhs * (1.0 + slack) + slack * 1e-3 - lhs)
              / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0))
    parts.append(_rows("outer_certificate", ks, margin >= 0.0, margin))
    expected = gamma0 + sigma_simple * A
    err = np.abs(gamma - expected) / np.maximum(np.abs(expected), 1.0)
    parts.append(_rows("gamma_telescope", ks, err <= 1e-12, 1e-12 - err))
    # A_k = A_{k-1} + a_k on each row after the first, as the run computes A_k
    A_k, a_k = columns["A_k"], columns["a_k"]
    err = np.abs(A_k[1:] - (A_k[:-1] + a_k[1:])) / np.maximum(np.abs(A_k[1:]), 1.0)
    parts.append(_rows("coefficient_sum", columns["k"][1:], err <= 1e-12, 1e-12 - err))
    if isinstance(schedule, (SublinearSchedule, GeometricSchedule)):
        if isinstance(schedule, SublinearSchedule):
            lo, hi = schedule.lower(ks), schedule.upper(ks)
        else:
            w = schedule.omega
            lo = A[0] * np.exp(w * (ks - 1))
            hi = A[0] * np.exp(w * math.e / (math.e - 1) * (ks - 1))
        lo, hi = lo * (1 - 1e-12), hi * (1 + 1e-12)
        parts.append(_rows("schedule_growth", ks, (A >= lo) & (A <= hi),
                           np.minimum(A - lo, hi - A)))
    allowed = columns["delta_req"][mask] * (1 + 1e-12)
    parts.append(_rows("delta_honored", ks, s_norm <= allowed, allowed - s_norm))
    # L_p(g) and ell/mu of each row in Python scalars, as the run computes them
    A_all, gamma_all = columns["A_k"], columns["gamma_k"].tolist()
    L_g = [contracted_lipschitz(p, a, A_k, header["lipschitz"])
           for a, A_k in zip(columns["a_k"].tolist(), A_all.tolist())]
    ratio = np.array([ell / mu for ell, mu in (ell_mu(p, L, g, header["sigma_uniform"])
                                               for L, g in zip(L_g, gamma_all))])[mask]
    parts.append(_rows("inner_condition_ratio", ks, ratio <= 1.0 + 1e-12, 1.0 + 1e-12 - ratio))
    # t_k stays under INNER_SLACK times the sufficient count from the state at k - 1
    budgeted = [i for i in range(1, len(F))
                if math.isfinite(div[i - 1]) and math.isfinite(residual[i - 1])]
    budget = INNER_SLACK * np.array([inner_iteration_bound(
        p, L_g[i], gamma_all[i - 1], gamma_all[i], header["sigma_uniform"],
        columns["delta_req"][i], A_all[i - 1] * residual[i - 1], div[i - 1]) for i in budgeted])
    t_k = columns["t_k"][budgeted]
    parts.append(_rows("inner_budget", columns["k"][budgeted], t_k <= budget, budget - t_k))
    if "x" in columns:
        steps = columns["steps"]
        scale = np.maximum(np.maximum(np.abs(steps.h_before), np.abs(steps.h_after)), 1.0)
        parts.append(_rows("inner_descent", steps.k,
                           steps.h_after <= steps.h_before + 1e-10 * scale,
                           (steps.h_before - steps.h_after) / scale, steps.t))
        # the sub-minimizer residual perturbs the extracted subgradient, so the
        # gradient progress allows a residual-proportional slack on top of round-off;
        # a step whose L is not a positive number passes with margin 0
        L = np.array(L_g)[steps.k]
        proper = np.isfinite(L) & (L > 0)
        coef = (math.factorial(p) / ((p + 1) * np.where(proper, L, 1.0))) ** (1.0 / p)
        rhs = coef * steps.s_dual ** ((p + 1.0) / p)
        allowance = steps.sub_residual * steps.step_norm + 1e-9 * np.maximum(np.abs(rhs), 1.0)
        progress = steps.decrease_pairing + allowance
        parts.append(_rows("inner_gradient_progress", steps.k, ~proper | (progress >= rhs),
                           np.where(proper, progress - rhs, 0.0), steps.t))
        # x_{k+1} is exactly the recorded combination (a v_{k+1} + A_k x_k) / A_{k+1}
        x, v, a = columns["x"], columns["v"], columns["a_k"]
        err = np.array([np.max(np.abs((a[i] * v[i] + A_all[i - 1] * x[i - 1]) / A_all[i] - x[i]))
                        / max(np.max(np.abs(x[i])), 1.0) for i in range(1, len(x))])
        parts.append(_rows("contraction_combination", ks, err <= 1e-12, 1e-12 - err))
    return ValidationReport(np.concatenate(parts).view(np.recarray))


def validate_trace(trace, prox, xstar, fstar, schedule):
    """Replay every certified inequality along an in-memory trace.

    Needs the true optimum (``ValueError`` without f* or a finite x* of the
    trace's dimension); divergences to x* are recomputed from the recorded
    iterates, so the check does not trust the run's own numbers.  The
    per-step checks read ``trace.steps``, each step with its row's L.
    ``schedule`` is the run's coefficient schedule; any other than a
    sublinear or geometric one skips the growth envelopes.
    """
    missing = " and ".join(name for name, value in (("x*", xstar), ("f*", fstar)) if value is None)
    if missing:
        raise ValueError(f"validate_trace needs the optimum, but {missing} not given")
    columns = {**trace.columns(), "x": [row.x for row in trace], "v": [row.v for row in trace]}
    xstar, n = np.asarray(xstar, dtype=float), columns["x"][0].size
    if xstar.shape != (n,) or not np.isfinite(xstar).all():
        raise ValueError(f"x* must be a finite vector of the trace's dimension {n}")
    d_star = prox.value(xstar)
    columns["bregman_vstar"] = np.array([divergence_from(prox.linearization(v), xstar, d_star)
                                         for v in columns["v"]])
    columns["steps"] = trace.steps
    return _check(trace.header, columns, fstar, schedule, None)


def validate_columns(header, columns, instance):
    """The checks a serialized trace supports, against ``instance`` or, if None, its header.

    A rebuilt instance gives f* and, with the header's x_0, D(x_0; x*) for
    the power prox of the header's order; without one, residuals are scored
    against the header's f* or, if it has none, the ``residual`` column, and
    D(x_0; x*) is row 0's."""
    schedule = _header_schedule(header)
    if instance is None:
        return _check(header, columns, header.get("fstar"), schedule, None)
    x0 = np.asarray(header.get("x0"), dtype=float)
    bregman0 = PowerProx(header["p"], x0, instance.metric).divergence(x0, instance.xstar)
    return _check(header, columns, instance.fstar, schedule, bregman0)
