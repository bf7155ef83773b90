"""Independent references for the tests: a minimizer of a :class:`Subproblem`'s
step objective (through ``model_objective``, with phi at the base from
``Subproblem.phi_value``), the step Newton as it stood when it evaluated the step
objective at its base itself, the first-order baselines gm and ppa in their
callback form, cn as its own loop around ``tensor_step`` with its own radius
hint and a row-by-row trace writer.

No solver calls them: the tests check :func:`contraprox.tensor_steps.minimize_model_newton`
and the closed-form order-1 step against the minimizer, the Newton started
from a handed-in phi evaluation against the self-evaluating one, the
production gm, ppa and cn against the baselines, and
:meth:`RunTrace.write_csv` against the writer.
"""

import functools
import itertools
import json
import math

import numpy as np
import scipy.linalg

from contraprox.baselines import CUBIC_REG, PPA_INNER_CAP, _cubic_subproblem
from contraprox.metric import cholesky_solve
from contraprox.objectives import QuadraticOracle, SolverError
from contraprox.tensor_steps import (NEWTON_CAP, SmoothData, Subproblem, assemble_step_hessian,
                                     model_objective, tensor_step)
from contraprox.trace import CSV_COLUMNS, drive


def minimize_model_descent(sub: Subproblem, base: SmoothData, y0, tol, cap=20000):
    """Safeguarded Barzilai-Borwein descent on the step objective in the B-metric.

    Works on the objective's increment relative to the step base and allows a
    round-off-sized slack in the Armijo test; the best value seen is what gets
    returned, so descent from the base point holds to float precision.
    Returns (y, dual residual, iterations).  No solver calls it: it is the
    independent reference against which tests check
    :func:`minimize_model_newton` and the closed-form steps.
    """
    y = np.asarray(y0, dtype=float).copy()
    phi_base = sub.phi_value(base.x)
    val, grad, _, _ = model_objective(sub, base, y, phi_base)
    precond = sub.metric.solve(grad)
    sq = float(grad @ precond)
    alpha = 1.0 / max(1.0, math.sqrt(sq))
    best_y, best_val, best_res = y, val, math.sqrt(max(sq, 0.0))
    noise = 0.0
    for it in range(cap):
        res = math.sqrt(max(sq, 0.0))
        if res < best_res:
            best_y, best_val, best_res = y, val, res
        if res <= tol:
            return y, res, it
        direction = -precond
        t = alpha
        accepted = False
        noise = 1e-14 * (abs(val) + abs(best_val)) + 1e-300
        for _ in range(60):
            y_trial = y + t * direction
            val_t, grad_t, _, _ = model_objective(sub, base, y_trial, phi_base)
            if val_t <= val - 1e-4 * t * sq + noise:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # decrements below float resolution; the best point is the answer
            return best_y, best_res, it
        dgrad = grad_t - grad
        denom = float((y_trial - y) @ dgrad)
        if denom > 1e-300:
            alpha = min(max(t * t * sq / denom, 1e-14), 1e14)
        else:
            alpha = t * 2.0
        y, val, grad = y_trial, val_t, grad_t
        precond = sub.metric.solve(grad)
        sq = float(grad @ precond)
    raise SolverError(f"step sub-minimizer exceeded {cap} iterations "
                      f"(residual {math.sqrt(max(sq, 0.0)):.3e}, tol {tol:.3e})")


def reference_newton(sub: Subproblem, base: SmoothData, tol):
    """The step Newton as it stood when it started by evaluating the step
    objective at ``base.x`` with ``model_objective``; returns (y, residual,
    iters, at) as :func:`minimize_model_newton` does."""
    y = base.x.copy()
    val, grad, terms, at = model_objective(sub, base, y, 0.0)
    phi_base = at[0][0]
    val -= phi_base
    H = np.empty((y.size, y.size), order="F")
    best_y, best_res, best_at, stalled = y, math.inf, at, 0
    for it in range(NEWTON_CAP):
        res = sub.metric.dual_norm(grad)
        stalled = 0 if res < best_res else stalled + 1
        if res < best_res:
            best_y, best_res, best_at = y, res, at
        if res <= tol:
            return y, res, it, at
        if stalled == 3:
            return best_y, best_res, it, best_at
        assemble = functools.partial(assemble_step_hessian, H, sub, base, terms, 0.0)
        try:
            step = -cholesky_solve(assemble(), grad, refill=assemble)
        except scipy.linalg.LinAlgError:
            raise SolverError("step Hessian could not be factorized") from None
        slope = float(grad.dot(step))
        if slope >= 0.0:
            step = -sub.metric.solve(grad)
            slope = float(grad.dot(step))
        t = 1.0
        noise = 1e-14 * (abs(val) + 1.0)
        for _ in range(60):
            y_trial = y + t * step
            val_t, grad_t, terms_t, at_t = model_objective(sub, base, y_trial, phi_base)
            if (val_t <= val + 1e-4 * t * slope + noise
                    or (t == 1.0 and sub.metric.dual_norm(grad_t) <= 0.5 * res)):
                break
            t *= 0.5
        else:
            return best_y, best_res, it, best_at
        y, val, grad, terms, at = y_trial, val_t, grad_t, terms_t, at_t
    raise SolverError(f"step Newton sub-minimizer exceeded {NEWTON_CAP} iterations")


# The first-order baselines as they stood before their line search computed
# ppa's objective inline: a callback objective, phi recomputed at the start of
# every inner step, and the quadratic oracle's products written with ``@``.
# The tests require the production gm and ppa to give bitwise these traces.

class ReferenceQuadraticOracle(QuadraticOracle):
    """f(x) = 1/2 <Ax, x> - <b, x> with every product written as ``@``."""

    def _ax(self, x):
        self.counters.matvec += 1
        return self.matrix @ x

    def value(self, x):
        self.counters.value += 1
        ax = self._ax(x)
        return 0.5 * float(x @ ax) - float(self.rhs @ x)

    def grad(self, x):
        self.counters.grad += 1
        return self._ax(x) - self.rhs

    def value_and_grad(self, x):
        self.counters.value += 1
        self.counters.grad += 1
        ax = self._ax(x)
        return 0.5 * float(x @ ax) - float(self.rhs @ x), ax - self.rhs


def reference_line_search(value, z, phi, direction, dn, L, L_cap, objective=None):
    """One monotone step z - direction/L_try, L_try >= 1 for ppa's 1-strongly convex
    objective; returns (z_t, f_t, L_try, trials)."""
    L_try = max(0.5 * L, 1e-14 if objective is None else 1.0)
    for trials in range(1, 121):
        z_t = z - direction / L_try
        f_t = value(z_t)
        phi_t = objective(z_t, f_t) if objective is not None else f_t
        if (phi_t <= phi - dn * dn / (2.0 * L_try) + 1e-15 * max(abs(phi), 1.0)
                or L_try >= L_cap):
            return z_t, f_t, L_try, trials
        L_try = min(2.0 * L_try, L_cap)
    raise SolverError("line search failed to find a decrease step")


def reference_gradient_method_ls(obj, x0, eps, cap):
    obj = obj.fresh()
    metric = obj.metric
    L_known = obj.smooth.lipschitz.get(1)
    L_start = L_known if L_known is not None else 1.0
    L_cap = L_known if L_known is not None else math.inf

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        f, L = obj.smooth.value(x), L_start
        row = {"x": x}
        while True:
            yield f, row
            g = obj.smooth.grad(x)
            gn = metric.dual_norm(g)
            x_t, f_t, L, trials = reference_line_search(obj.smooth.value, x, f,
                                                        metric.solve(g), gn, L, L_cap)
            row = {"s_norm": gn, "t_inner": trials, "x": x_t}
            x, f = x_t, f_t

    header = {"method": "gm", "line_search": {"l0": L_start, "grow": 2.0, "shrink": 0.5}}
    return drive(obj, header, eps, cap, iterates())


def reference_classical_ppa(obj, x0, eps, cap):
    obj = obj.fresh()
    metric = obj.metric
    a = 1.0 / obj.smooth.lipschitz[1]
    L_smooth = obj.smooth.lipschitz.get(1)
    L_cap = a * L_smooth + 1.0 if L_smooth is not None else math.inf

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        fz, gz = obj.smooth.value_and_grad(x)
        yield fz, {"x": x}
        L_loc = a * (L_smooth if L_smooth is not None else 1.0) + 1.0

        def objective(z, f_z):
            return a * f_z + 0.5 * metric.norm(z - x) ** 2

        for k in itertools.count(1):
            delta_k = 1.0 / k ** 2
            z = x
            sub_grad = a * gz
            dn = metric.dual_norm(sub_grad)
            t = 0
            while dn > delta_k:
                t += 1
                if t > PPA_INNER_CAP:
                    raise SolverError("proximal subproblem solve exceeded its inner cap")
                z, fz, L_loc, _ = reference_line_search(obj.smooth.value, z, objective(z, fz),
                                                        metric.solve(sub_grad), dn, L_loc,
                                                        L_cap, objective)
                gz = obj.smooth.grad(z)
                sub_grad = a * gz + metric.apply(z - x)
                dn = metric.dual_norm(sub_grad)
            x = z
            yield fz, {"a": a, "delta_requested": delta_k, "s_norm": dn, "t_inner": t, "x": x}

    return drive(obj, {"method": "ppa", "a": a}, eps, cap, iterates())


# cn as it stood before it iterated ``model_steps``: its own loop around
# ``tensor_step``, which it hands phi's evaluation at each base afresh, and a
# radius hint of its own: r_{k-1}^2 / r_{k-2} from the last two step radii,
# r_1 at the second step and 0.0 at the first.  The tests require the
# production cn to give bitwise its trace.

def reference_cubic_newton(obj, x0, eps, cap):
    obj = obj.fresh()
    metric = obj.metric

    def iterates():
        sub, inner_tol = _cubic_subproblem(obj, eps)
        z = np.asarray(x0, dtype=float).copy()
        data = sub.smooth.data(z)
        row = {"x": z}
        radii = []
        while True:
            yield data.value + obj.simple.value(z), row
            data.hess = sub.smooth.hess(data.x)
            hint = (0.0 if not radii else radii[-1] if len(radii) == 1 or radii[-2] == 0.0
                    else radii[-1] * radii[-1] / radii[-2])
            z, residual, _, (_, model_grad, reg_grad, r) = tensor_step(sub, data, sub.phi(data.x),
                                                                       inner_tol, hint)
            radii.append(r)
            data = sub.smooth.data(z)
            s = data.grad - model_grad - reg_grad
            row = {"s_norm": metric.dual_norm(s) + residual, "t_inner": 1, "x": z}

    return drive(obj, {"method": "cn", "reg": CUBIC_REG}, eps, cap, iterates())


def reference_write_csv(trace, path):
    """Write a trace as CSV one row at a time, formatting each cell on its own:
    the int columns with ``str(int(.))`` and the rest with ``repr(float(.))``."""
    int_columns = {"k", "t_k", "oracle_f", "oracle_g", "oracle_h", "matvec"}
    header = dict(trace.header)
    header["status"] = trace.status
    lines = ["# " + json.dumps(header, sort_keys=True), ",".join(CSV_COLUMNS)]
    for rec in trace.records:
        counters = rec.counters
        row = [rec.k, rec.A, rec.gamma, rec.a, rec.f_value, rec.residual,
               rec.delta_requested, rec.s_norm, rec.t_inner, counters["oracle_f"],
               counters["oracle_g"], counters["oracle_h"], counters["matvec"],
               rec.bregman_step, rec.bregman_vstar]
        lines.append(",".join(str(int(value)) if name in int_columns else repr(float(value))
                              for name, value in zip(CSV_COLUMNS, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
