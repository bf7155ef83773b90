"""Runtime validation of convergence certificates along recorded traces.

The in-memory validator replays every certified inequality a trace claims:
the outer residual-plus-divergence bound, the coefficient-schedule growth
envelopes, the telescoped proximal coefficients, per-step descent and
gradient-progress of the inner method, and the inner iteration budget.
A serialized trace supports the subset of checks its columns carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contracting import (INNER_SLACK, GeometricSchedule, SublinearSchedule,
                          inexact_certificate_bound, inner_iteration_bound)


@dataclass
class CheckResult:
    name: str
    k: int | None
    passed: bool
    margin: float
    detail: str = ""

    def line(self):
        status = "ok  " if self.passed else "FAIL"
        where = f" k={self.k}" if self.k is not None else ""
        return f"[{status}] {self.name}{where} margin={self.margin:.3e} {self.detail}"


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, k, passed, margin, detail=""):
        self.checks.append(CheckResult(name, k, bool(passed), float(margin), detail))

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        return [c.line() for c in self.checks]

    def worst(self, name):
        vals = [c.margin for c in self.checks if c.name == name]
        return min(vals) if vals else math.nan


def _relative_margin(lhs, rhs, slack):
    # pass iff lhs <= rhs * (1 + slack) + slack ; margin normalized by scale
    scale = max(abs(lhs), abs(rhs), 1.0)
    return (rhs * (1.0 + slack) + slack * 1e-3 - lhs) / scale


def check_certificate(report, ks, residuals, A_vals, gammas, bregman_vstar,
                      bregman_steps, s_norms, p, gamma0, sigma_simple, bregman0,
                      sigma_uniform, slack=1e-9):
    """Outer certificate at every k: residual and divergence terms stay under
    the inexactness envelope built from the achieved subgradient norms."""
    running = 0.0
    for i, k in enumerate(ks):
        running += gammas[i] * bregman_steps[i]
        lhs = A_vals[i] * residuals[i] + gammas[i] * bregman_vstar[i] + running
        rhs = inexact_certificate_bound(p, gamma0, sigma_simple, bregman0,
                                        sigma_uniform, s_norms[:i + 1], A_vals[:i + 1])
        margin = _relative_margin(lhs, rhs, slack)
        report.add("outer_certificate", int(k), margin >= 0.0, margin,
                   f"lhs={lhs:.6e} rhs={rhs:.6e}")


def check_gamma_telescope(report, ks, gammas, A_vals, gamma0, sigma_simple, tol=1e-12):
    for i, k in enumerate(ks):
        expected = gamma0 + sigma_simple * A_vals[i]
        err = abs(gammas[i] - expected) / max(abs(expected), 1.0)
        report.add("gamma_telescope", int(k), err <= tol, tol - err)


def check_schedule_growth(report, schedule, ks, A_vals, tol=1e-12):
    if isinstance(schedule, SublinearSchedule):
        for i, k in enumerate(ks):
            lo, hi = schedule.lower(k), schedule.upper(k)
            ok = (A_vals[i] >= lo * (1 - tol)) and (A_vals[i] <= hi * (1 + tol))
            report.add("schedule_growth", int(k), ok,
                       min(A_vals[i] - lo * (1 - tol), hi * (1 + tol) - A_vals[i]))
    elif isinstance(schedule, GeometricSchedule):
        A1 = A_vals[0]
        w = schedule.omega
        for i, k in enumerate(ks):
            lo = A1 * math.exp(w * (k - 1))
            hi = A1 * math.exp(w * math.e / (math.e - 1) * (k - 1))
            ok = (A_vals[i] >= lo * (1 - tol)) and (A_vals[i] <= hi * (1 + tol))
            report.add("schedule_growth", int(k), ok,
                       min(A_vals[i] - lo * (1 - tol), hi * (1 + tol) - A_vals[i]))


def check_delta_honored(report, ks, s_norms, deltas, tol=1e-12):
    for i, k in enumerate(ks):
        ok = s_norms[i] <= deltas[i] * (1 + tol)
        report.add("delta_honored", int(k), ok, deltas[i] * (1 + tol) - s_norms[i])


def check_condition_ratio(report, ks, ratios, tol=1e-12):
    for i, k in enumerate(ks):
        report.add("inner_condition_ratio", int(k), ratios[i] <= 1.0 + tol,
                   1.0 + tol - ratios[i])


def check_inner_budget(report, ks, t_inner, residuals, A_prev, gammas_prev,
                       gammas_next, bregman_v_prev_star, lipschitz_g, deltas,
                       p, sigma_uniform, slack=INNER_SLACK):
    """t_k never exceeds ``slack`` times the sufficient inner-step count."""
    for i, k in enumerate(ks):
        if not math.isfinite(bregman_v_prev_star[i]) or not math.isfinite(residuals[i]):
            continue
        bound = inner_iteration_bound(p, lipschitz_g[i], gammas_prev[i], gammas_next[i],
                                      sigma_uniform, deltas[i], A_prev[i] * residuals[i],
                                      bregman_v_prev_star[i])
        budget = slack * bound
        report.add("inner_budget", int(k), t_inner[i] <= budget,
                   budget - t_inner[i], f"t={int(t_inner[i])} bound={bound:.2f}")


def check_inner_descent(report, records, tol=1e-10):
    """Each accepted inner step is monotone in the subproblem value."""
    for rec in records:
        for step in rec.inner_steps:
            scale = max(abs(step.h_before), abs(step.h_after), 1.0)
            ok = step.h_after <= step.h_before + tol * scale
            report.add("inner_descent", int(rec.k), ok,
                       (step.h_before - step.h_after) / scale,
                       f"t={step.t}")


def check_inner_gradient_progress(report, records, p, tol=1e-9):
    """Gradient-progress inequality at every accepted inner step.

    The sub-minimizer residual perturbs the extracted subgradient, so the
    check allows a residual-proportional slack on top of float tolerance.
    """
    for rec in records:
        L = rec.lipschitz_g
        if not math.isfinite(L) or L <= 0:
            for step in rec.inner_steps:
                report.add("inner_gradient_progress", int(rec.k), True, 0.0,
                           f"t={step.t} (degenerate L)")
            continue
        coef = (math.factorial(p) / ((p + 1) * L)) ** (1.0 / p)
        for step in rec.inner_steps:
            rhs = coef * step.s_dual ** ((p + 1.0) / p)
            allowance = step.sub_residual * step.step_norm + tol * max(abs(rhs), 1.0)
            ok = step.decrease_pairing + allowance >= rhs
            report.add("inner_gradient_progress", int(rec.k), ok,
                       step.decrease_pairing + allowance - rhs, f"t={step.t}")


def check_contraction_combination(report, records, tol=1e-12):
    """x_{k+1} is exactly the recorded affine combination of x_k and v_{k+1}."""
    prev_x = None
    prev_A = 0.0
    for rec in records:
        if rec.k == 0:
            prev_x, prev_A = rec.x, rec.A
            continue
        expected = (rec.a * rec.v + prev_A * prev_x) / rec.A
        err = float(np.max(np.abs(expected - rec.x))) / max(float(np.max(np.abs(rec.x))), 1.0)
        report.add("contraction_combination", int(rec.k), err <= tol, tol - err)
        prev_x, prev_A = rec.x, rec.A


def validate_trace(trace, prox, xstar, fstar, schedule=None, slack=1e-9,
                   inner_slack=INNER_SLACK):
    """Replay every certified inequality along an in-memory trace.

    Needs the true optimum; divergence terms involving x* are recomputed from
    the recorded iterates so the check does not trust the run's own numbers.
    """
    report = ValidationReport()
    recs = [r for r in trace.records if r.k >= 1]
    if not recs:
        report.add("nonempty", None, False, -1.0, "trace has no iterations")
        return report
    header = trace.header
    p = header["p"]
    gamma0 = header["gamma0"]
    sigma_simple = header["sigma_simple"]
    sigma_uniform = header["sigma_uniform"]
    xstar = np.asarray(xstar, dtype=float)
    x0 = np.asarray(header["x0"], dtype=float)
    bregman0 = prox.divergence(x0, xstar)

    ks = [r.k for r in recs]
    A_vals = [r.A for r in recs]
    gammas = [r.gamma for r in recs]
    s_norms = [r.s_norm for r in recs]
    deltas = [r.delta_requested for r in recs]
    t_inner = [r.t_inner for r in recs]
    lipschitz_g = [r.lipschitz_g for r in recs]
    residuals = [r.f_value - fstar for r in recs]
    bregman_vstar = [prox.divergence(r.v, xstar) for r in recs]
    bregman_steps = [r.bregman_step for r in recs]
    ratios = [r.ell_mu for r in recs]

    check_certificate(report, ks, residuals, A_vals, gammas, bregman_vstar,
                      bregman_steps, s_norms, p, gamma0, sigma_simple, bregman0,
                      sigma_uniform, slack=slack)
    check_gamma_telescope(report, ks, gammas, A_vals, gamma0, sigma_simple)
    if schedule is not None:
        check_schedule_growth(report, schedule, ks, A_vals)
    check_delta_honored(report, ks, s_norms, deltas)
    check_condition_ratio(report, ks, ratios)

    prev = [r for r in trace.records]
    A_prev = [prev[i].A for i in range(len(prev) - 1)]
    gammas_prev = [prev[i].gamma for i in range(len(prev) - 1)]
    residual_prev = [prev[i].f_value - fstar for i in range(len(prev) - 1)]
    bregman_v_prev = [prox.divergence(prev[i].v, xstar) for i in range(len(prev) - 1)]
    gammas_next = gammas
    check_inner_budget(report, ks, t_inner, residual_prev, A_prev, gammas_prev,
                       gammas_next, bregman_v_prev, lipschitz_g, deltas, p,
                       sigma_uniform, slack=inner_slack)
    check_inner_descent(report, recs)
    check_inner_gradient_progress(report, recs, p)
    check_contraction_combination(report, trace.records)
    return report


def validate_columns(header, columns, xstar=None, fstar=None, slack=1e-9):
    """Checks available for a serialized trace (column data only)."""
    report = ValidationReport()
    mask = columns["k"] >= 1
    ks = columns["k"][mask].astype(int)
    if ks.size == 0:
        report.add("nonempty", None, False, -1.0, "trace has no iterations")
        return report
    A_vals = columns["A_k"][mask]
    gammas = columns["gamma_k"][mask]
    s_norms = columns["s_norm"][mask]
    deltas = columns["delta_req"][mask]
    bregman_steps = columns["bregman_step"][mask]
    bregman_vstar = columns["bregman_vstar"][mask]
    p = header["p"]
    gamma0 = header["gamma0"]
    sigma_simple = header["sigma_simple"]
    sigma_uniform = header["sigma_uniform"]

    check_gamma_telescope(report, ks, gammas, A_vals, gamma0, sigma_simple)
    check_delta_honored(report, ks, s_norms, deltas)

    sched = header.get("schedule", {})
    if sched.get("kind") == "sublinear":
        check_schedule_growth(report, SublinearSchedule(sched["c"], sched["p"]),
                              ks, A_vals)
    elif sched.get("kind") == "geometric":
        check_schedule_growth(report, GeometricSchedule(sched["omega"], sched["c"],
                                                        sched["p"]), ks, A_vals)

    if fstar is None:
        fstar = header.get("fstar")
    residual_col = columns["F"][mask] - fstar if fstar is not None else columns["residual"][mask]
    bregman0 = None
    k0 = columns["k"] == 0
    if np.any(k0):
        bregman0 = float(columns["bregman_vstar"][k0][0])
    if bregman0 is not None and math.isfinite(bregman0) and np.all(np.isfinite(bregman_vstar)):
        check_certificate(report, ks, residual_col, A_vals, gammas, bregman_vstar,
                          bregman_steps, s_norms, p, gamma0, sigma_simple,
                          bregman0, sigma_uniform, slack=slack)
    return report
