"""Reference first- and second-order solvers for the benchmark comparisons.

All baselines share the contracting solver's trace format and counter
semantics, so oracle columns remain comparable across methods.  Fields that
have no meaning for a given method (coefficients, inner accuracies) are NaN.

Counters on row k are cumulative up to and including x_k, and row 0 is
charged the query the method makes at every later iterate (see ``trace``).
Per iteration, each method is charged:

- cn: what cptm's inner loop is charged per step, as both run
  ``tensor_steps.model_steps``: one first-order query at x_k and one Hessian
  at x_{k-1}, the base of the step that reached x_k (row 0: the first-order
  query at x_0);
- acn: one first-order query and one Hessian at the look-ahead point y_k,
  and one first-order query at x_k (row 0: the first-order query at x_0);
- gm: one gradient at x_{k-1} plus its line-search value trials, the last of
  which is the value at x_k (row 0: the value at x_0);
- agm: one gradient at y_k and one value at x_k (row 0: the value at x_0);
- ppa: the value trials and the gradient of each inner gradient step, the
  last of which are the value and gradient at x_k (row 0: the value and
  gradient at x_0), so row k shows ``oracle_g = 1 + t_1 + ... + t_k``;
- cptm: one value at x_k, one first-order query at each inner iterate
  (start point included) and, at order 2, one Hessian per inner step taken,
  at that step's base; the exit point and a start point that already meets
  delta are never charged a Hessian (row 0: the value at x_0).

Every method is recorded, stopped and capped by :func:`trace.drive`, whose
docstring states the rules.  cn and acn warm-start each step's Newton at the
radius their last two steps predict (``tensor_steps.extrapolated_radius``),
which moves no iteration or counter on the lse-p2 instance sets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .objectives import CompositeObjective, SolverError
from .tensor_steps import (ContractedSmooth, Subproblem, extrapolated_radius, model_steps,
                           tensor_step)
from .trace import drive

CUBIC_REG = 1.0          # the cubic coefficient M of cn and acn, and acn's prox coefficient
PPA_INNER_CAP = 20000    # gradient steps allowed for one ppa proximal subproblem


def _line_search(value, z, phi, direction, dn, L, L_cap, a=None, center=None, norm=None):
    """One monotone step z - direction/L_try with a doubling/halving L_try.

    ``phi`` is the searched objective at z, ``direction`` the primal image of its
    gradient and ``dn`` that gradient's dual norm.  The objective is f, or ppa's
    a*f(z) + ||z - center||^2/2 in the primal ``norm`` when ``center`` is given.
    The first trial is 0.5*L, at least 1e-14, or 1 for ppa: its objective is 1-strongly
    convex, so L_try < 1 misses the decrease by (1 - L_try) dn^2/(2 L_try^2) or more.
    L_try doubles until phi - dn^2/(2 L_try) holds up to round-off.  At ``L_cap``,
    the true constant, it holds mathematically, so a rejection there is round-off
    and that step is taken unconditionally.  Each trial costs one value query.
    Returns (z_t, f_t, phi_t, z_t - center or None, L_try, trials).
    """
    L_try = max(0.5 * L, 1e-14 if center is None else 1.0)
    dn2, slack = dn * dn, 1e-15 * max(abs(phi), 1.0)
    for trials in range(1, 121):
        z_t = z - direction / L_try
        f_t = value(z_t)
        d_t = z_t - center if center is not None else None
        phi_t = f_t if d_t is None else a * f_t + 0.5 * norm(d_t) ** 2
        if phi_t <= phi - dn2 / (2.0 * L_try) + slack or L_try >= L_cap:
            return z_t, f_t, phi_t, d_t, L_try, trials
        L_try = min(2.0 * L_try, L_cap)
    raise SolverError("line search failed to find a decrease step")


def gradient_method_ls(obj: CompositeObjective, x0, eps, cap):
    """Gradient descent with a doubling/halving local Lipschitz estimate.

    Monotone: a trial step is accepted only under the standard sufficient
    decrease f(x+) <= f(x) - ||grad||_*^2 / (2 L) (see :func:`_line_search`),
    starting from the known L.  The gradient at x_k is queried when
    the next step needs it, so a run that stops at x_k never queries it.
    """
    if not obj.simple.is_zero:
        raise ValueError("the first-order baselines run on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    L_start = L_cap = obj.smooth.lipschitz[1]

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        f, L = obj.smooth.value(x), L_start
        row = {"x": x}
        while True:
            yield f, row
            g = obj.smooth.grad(x)
            gn = metric.dual_norm(g)
            x, f, _, _, L, trials = _line_search(obj.smooth.value, x, f, metric.solve(g), gn,
                                                 L, L_cap)
            row = {"s_norm": gn, "t_inner": trials, "x": x}

    header = {"method": "gm", "line_search": {"l0": L_start, "grow": 2.0, "shrink": 0.5}}
    return drive(obj, header, eps, cap, iterates())


def accelerated_gradient(obj: CompositeObjective, x0, eps, cap):
    """Estimating-sequence accelerated gradient with a_{k+1}^2 = (a_{k+1}+A_k)/L."""
    if not obj.simple.is_zero:
        raise ValueError("the first-order baselines run on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    L = obj.smooth.lipschitz[1]

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        v = x.copy()
        A = 0.0
        yield obj.smooth.value(x), {"A": 0.0, "a": 0.0, "x": x, "v": v}
        while True:
            a = (1.0 + math.sqrt(1.0 + 4.0 * L * A)) / (2.0 * L)
            A_next = A + a
            y = (a * v + A * x) / A_next
            g = obj.smooth.grad(y)
            step = metric.solve(g)
            x = y - step / L
            v = v - a * step
            A = A_next
            f = obj.smooth.value(x)
            yield f, {"a": a, "A": A, "s_norm": metric.dual_norm(g), "t_inner": 1,
                      "x": x, "v": v}

    return drive(obj, {"method": "agm", "L": L}, eps, cap, iterates())


def classical_ppa(obj: CompositeObjective, x0, eps, cap):
    """Constant-coefficient proximal point: each step approximately minimizes
    a*f(z) + ||z - x_k||^2/2 with a = 1/L_1, solved by the line-search gradient
    method, never below its modulus L = 1, to the inner accuracy 1/k^2.

    Each step starts from the value and gradient at x_k that the previous
    solve ended with (at x_0, one value-and-gradient query).
    """
    if not obj.simple.is_zero:
        raise ValueError("the first-order baselines run on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    a = 1.0 / obj.smooth.lipschitz[1]
    L_cap = a * obj.smooth.lipschitz[1] + 1.0

    value, grad = obj.smooth.value, obj.smooth.grad   # bound after a profiler wraps them
    norm, apply, solve, dual_norm = metric.norm, metric.apply, metric.solve, metric.dual_norm

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        fz, gz = obj.smooth.value_and_grad(x)
        yield fz, {"x": x}
        L_loc = L_cap
        for k in itertools.count(1):
            delta_k = 1.0 / k ** 2
            z = x
            phi = a * fz    # the subproblem a f(z) + ||z - x_k||^2/2 at z = x_k
            sub_grad = a * gz
            dn = dual_norm(sub_grad)
            t = 0
            while dn > delta_k:
                t += 1
                if t > PPA_INNER_CAP:
                    raise SolverError("proximal subproblem solve exceeded its inner cap")
                z, fz, phi, d, L_loc, _ = _line_search(value, z, phi, solve(sub_grad), dn,
                                                       L_loc, L_cap, a, x, norm)
                gz = grad(z)
                sub_grad = a * gz + apply(d)
                dn = dual_norm(sub_grad)
            x = z
            yield fz, {"a": a, "delta_requested": delta_k, "s_norm": dn, "t_inner": t, "x": x}

    return drive(obj, {"method": "ppa", "a": a}, eps, cap, iterates())


def _cubic_subproblem(obj, eps):
    """(subproblem, step tolerance) of cn and acn: f itself, regularized by CUBIC_REG.

    f is the contracted part with a = A_next = 1 and A_prev = 0, which is
    bitwise the oracle in value, gradient and Hessian.  The step's tolerance
    is eps/100, floored at 1e-13.
    """
    smooth = ContractedSmooth(obj.smooth, 1.0, 1.0, np.zeros(obj.dim), 0.0)
    return (Subproblem(2, obj.metric, smooth, CUBIC_REG, obj.simple, weight=1.0),
            max(eps * 1e-2, 1e-13))


def cubic_newton(obj: CompositeObjective, x0, eps, cap):
    """Cubic-regularized Newton: :func:`tensor_steps.model_steps` on h = F itself.

    Its steps are cptm's inner steps with M = ``CUBIC_REG`` (practical default
    1), each solved to :func:`_cubic_subproblem`'s tolerance and warm-started
    at the radius its last two steps predict; it stops on F.
    """
    obj = obj.fresh()

    def iterates():
        sub, inner_tol = _cubic_subproblem(obj, eps)
        for data, F, s_norm, row in model_steps(sub, np.asarray(x0, dtype=float), inner_tol,
                                                True):
            yield F, ({"x": data.x} if row is None
                      else {"s_norm": s_norm, "t_inner": 1, "x": data.x})

    return drive(obj, {"method": "cn", "reg": CUBIC_REG}, eps, cap, iterates())


def accelerated_cubic_newton(obj: CompositeObjective, x0, eps, cap):
    """Estimating-sequence acceleration of the cubic Newton step.

    Linear lower models are accumulated against a cubic prox term centered at
    the start, with coefficient ``CUBIC_REG`` like the step itself; the
    auxiliary point has a closed form.  The objective may oscillate; the
    certificate is the estimating-sequence bound, not per-step descent.  Per
    iteration, a first-order query and a Hessian at the look-ahead point and
    a first-order query at the new iterate; the start x0 gets the same
    first-order query, so every row records s_norm = ||grad f(x_k)||_*.  The
    step's tolerance is that of :func:`cubic_newton`, and its Newton starts at
    the radius r_{k-1}^2 / r_{k-2} of the steps before it, r_j = ||x_j - y_j||,
    as ``tensor_steps.extrapolated_radius`` gives it.
    """
    if not obj.simple.is_zero:
        raise ValueError("the accelerated cubic baseline runs on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric

    def iterates():
        sub, inner_tol = _cubic_subproblem(obj, eps)
        x_anchor = np.asarray(x0, dtype=float).copy()
        x = x_anchor.copy()
        s_acc = np.zeros_like(x)
        A = last = before = 0.0
        f, g = obj.smooth.value_and_grad(x)
        yield f, {"A": 0.0, "a": 0.0, "s_norm": metric.dual_norm(g), "x": x}
        for k in itertools.count(1):
            a = 0.5 * k * (k + 1)
            A_next = A + a
            sn = metric.dual_norm(s_acc)
            if sn == 0.0:
                v = x_anchor.copy()
            else:
                r = math.sqrt(2.0 * sn / CUBIC_REG)
                v = x_anchor - (2.0 / (CUBIC_REG * r)) * metric.solve(s_acc)
            y = (A * x + a * v) / A_next
            base = sub.smooth.data(y)
            base.hess = sub.smooth.hess(y)
            x, _, _, at = tensor_step(sub, base, sub.phi(base.x), inner_tol,
                                      extrapolated_radius(last, before))
            before, last = last, at[3]
            A = A_next
            f, g = obj.smooth.value_and_grad(x)
            s_acc = s_acc + a * g
            yield f, {"a": a, "A": A, "s_norm": metric.dual_norm(g), "t_inner": 1,
                      "x": x, "v": v}

    header = {"method": "acn", "reg": CUBIC_REG, "prox_reg": CUBIC_REG, "monotone": False}
    return drive(obj, header, eps, cap, iterates())
