"""Reference first- and second-order solvers for the benchmark comparisons.

All baselines share the contracting solver's trace format and counter
semantics, so oracle columns remain comparable across methods.  Fields that
have no meaning for a given method (coefficients, inner accuracies) are NaN.

Counters on row k are cumulative up to and including x_k, and row 0 is
charged the query the method makes at every later iterate (see ``trace``).
Per iteration, each method is charged:

- cn: one second-order query, at x_k (row 0: the same query at x_0);
- acn: one second-order query at the look-ahead point y_k and one
  first-order query at x_k (row 0: the first-order query at x_0);
- gm: one gradient at x_{k-1} plus its line-search value trials, the last of
  which is the value at x_k (row 0: the value at x_0);
- agm: one gradient at y_k and one value at x_k (row 0: the value at x_0);
- ppa: one value and gradient at x_{k-1} plus the value trials and gradients
  of its inner gradient steps (row 0: the value at x_0);
- cptm: one value at x_k plus the queries of its inner steps (row 0: the
  value at x_0).

Every baseline stops by one rule, checked after each row: F(x_k) - f* <= eps
when the instance knows f*, and otherwise a gradient norm <= eps.  gm, cn and
acn use ||grad F(x_k)||_*.  agm uses ||grad f(y_k)||_*, the gradient its step
queried; ppa uses ||grad f(x_k)||_*, the last gradient of its inner solve,
which ends at z = x_k.  Neither makes a query for the test, and row 0, which
has no such gradient, never stops them.  A run that has not stopped after
row ``cap`` raises :class:`SolverError`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .objectives import CompositeObjective, SolverError
from .tensor_steps import (CompositePart, PlainSmooth, Subproblem, TaylorModel,
                           step_subgradient, tensor_step)
from .trace import IterationRecord, RunTrace

_ROW_DEFAULTS = {"A": math.nan, "gamma": math.nan, "a": math.nan,
                 "delta_requested": math.nan, "s_norm": math.nan, "t_inner": 0}


def _drive(obj, method, eps, cap, knobs, iterates):
    """Record, stop and cap one baseline run; returns the converged trace.

    ``iterates`` yields ``(F(x_k), grad_norm, row)`` for k = 0, 1, ...: row k
    is recorded with the counters as they stand when it is yielded, and
    ``grad_norm()`` is called only when f* is unknown, so a method can defer
    the query behind it until its next step needs that query anyway.
    """
    fstar = obj.fstar
    trace = RunTrace({"method": method, "eps": eps, "cap": cap,
                      "instance": dict(obj.descriptor), "fstar": fstar, **knobs})
    for k, (f, grad_norm, row) in enumerate(iterates):
        residual = f - fstar if fstar is not None else math.nan
        trace.append(IterationRecord(k=k, f_value=f, residual=residual,
                                     counters=obj.counters.as_dict(),
                                     **{**_ROW_DEFAULTS, **row}))
        if (residual <= eps) if fstar is not None else (grad_norm() <= eps):
            trace.status = "converged"
            return trace
        if k >= cap:
            trace.status = "cap"
            raise SolverError(f"{method} exhausted {cap} iterations (residual {residual:.3e})")


def gradient_method_ls(obj: CompositeObjective, x0, eps, cap, l0=None):
    """Gradient descent with a doubling/halving local Lipschitz estimate.

    Monotone: a trial step is accepted only under the standard sufficient
    decrease f(x+) <= f(x) - ||grad||_*^2 / (2 L).  Every trial costs one
    value query (one matvec on a quadratic).  The gradient at x_k is queried
    when the next step needs it, or earlier when f* is unknown and the stop
    test needs its norm.
    """
    if not obj.simple.is_zero:
        raise ValueError("the first-order baselines run on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    L_known = obj.smooth.lipschitz.get(1)
    L_start = float(l0) if l0 is not None else (L_known if L_known is not None else 1.0)
    # at the true constant the decrease holds mathematically, so a rejection
    # there is round-off; stop doubling and take that step unconditionally
    L_cap = L_known if L_known is not None else math.inf

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        f, L = obj.smooth.value(x), L_start
        g = gn = None

        def grad_norm():
            nonlocal g, gn
            if g is None:
                g = obj.smooth.grad(x)
                gn = metric.dual_norm(g)
            return gn

        row = {"x": x}
        while True:
            yield f, grad_norm, row
            grad_norm()
            direction = metric.solve(g)
            L_try = max(0.5 * L, 1e-14)
            trials = 0
            while True:
                trials += 1
                if trials > 120:
                    raise SolverError("gradient line search failed to find a decrease step")
                x_t = x - direction / L_try
                f_t = obj.smooth.value(x_t)
                if f_t <= f - gn * gn / (2.0 * L_try) + 1e-15 * max(abs(f), 1.0):
                    break
                if L_try >= L_cap:
                    break
                L_try = min(2.0 * L_try, L_cap)
            row = {"s_norm": gn, "t_inner": trials, "x": x_t}
            x, f, L, g = x_t, f_t, L_try, None

    knobs = {"line_search": {"l0": L_start, "grow": 2.0, "shrink": 0.5}}
    return _drive(obj, "gm", eps, cap, knobs, iterates())


def accelerated_gradient(obj: CompositeObjective, x0, eps, cap, L=None):
    """Estimating-sequence accelerated gradient with a_{k+1}^2 = (a_{k+1}+A_k)/L.

    With f* unknown the run stops on ||grad f(y_k)||_*, the gradient its step
    at the look-ahead point y_k queried.  That bounds the residual of x_k:
    the 1/L step gives f(x_k) <= f(y_k) - ||grad f(y_k)||_*^2/(2L) <= f(y_k),
    and convexity gives f(y_k) - f* <= <grad f(y_k), y_k - x*>
    <= ||grad f(y_k)||_* ||y_k - x*||.
    """
    if not obj.simple.is_zero:
        raise ValueError("the first-order baselines run on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    L = float(L) if L is not None else obj.smooth.lipschitz[1]

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        v = x.copy()
        A = 0.0
        yield obj.smooth.value(x), lambda: math.nan, {"A": 0.0, "a": 0.0, "x": x, "v": v}
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
            gn = metric.dual_norm(g)
            yield f, lambda gn=gn: gn, {"a": a, "A": A, "s_norm": gn, "t_inner": 1,
                                        "x": x, "v": v}

    return _drive(obj, "agm", eps, cap, {"L": L}, iterates())


def classical_ppa(obj: CompositeObjective, x0, eps, cap, a_const=None,
                  inner_cap=20000):
    """Constant-coefficient proximal point: each step approximately minimizes
    a*f(z) + ||z - x_k||^2/2, solved by the line-search gradient method to the
    inner accuracy 1/k^2.

    With f* unknown the run stops on ||grad f(x_k)||_*, taken from the last
    gradient of the inner solve, whose final point z is x_k.
    """
    if not obj.simple.is_zero:
        raise ValueError("the first-order baselines run on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    a = float(a_const) if a_const is not None else 1.0 / obj.smooth.lipschitz[1]
    L_smooth = obj.smooth.lipschitz.get(1)
    L_cap = a * L_smooth + 1.0 if L_smooth is not None else math.inf

    def iterates():
        x = np.asarray(x0, dtype=float).copy()
        yield obj.smooth.value(x), lambda: math.nan, {"x": x}
        L_loc = a * (L_smooth if L_smooth is not None else 1.0) + 1.0
        for k in itertools.count(1):
            delta_k = 1.0 / k ** 2
            z = x.copy()
            fz, gz = obj.smooth.value_and_grad(z)
            sub_grad = a * gz
            dn = metric.dual_norm(sub_grad)
            t = 0
            while dn > delta_k:
                t += 1
                if t > inner_cap:
                    raise SolverError("proximal subproblem solve exceeded its inner cap")
                phi = a * fz + 0.5 * metric.norm(z - x) ** 2
                L_try = max(0.5 * L_loc, 1e-14)
                trials = 0
                while True:
                    trials += 1
                    if trials > 120:
                        raise SolverError("proximal inner line search failed")
                    z_t = z - metric.solve(sub_grad) / L_try
                    f_t = obj.smooth.value(z_t)
                    phi_t = a * f_t + 0.5 * metric.norm(z_t - x) ** 2
                    if phi_t <= phi - dn * dn / (2.0 * L_try) + 1e-15 * max(abs(phi), 1.0):
                        break
                    if L_try >= L_cap:
                        break
                    L_try = min(2.0 * L_try, L_cap)
                z, fz, L_loc = z_t, f_t, L_try
                gz = obj.smooth.grad(z)
                sub_grad = a * gz + metric.apply(z - x)
                dn = metric.dual_norm(sub_grad)
            x = z
            yield fz, lambda gz=gz: metric.dual_norm(gz), {
                "a": a, "delta_requested": delta_k, "s_norm": dn, "t_inner": t, "x": x}

    return _drive(obj, "ppa", eps, cap, {"a": a}, iterates())


def cubic_newton(obj: CompositeObjective, x0, eps, cap, reg=1.0):
    """Cubic-regularized Newton: iterated order-2 regularized model steps on F.

    ``reg`` is the cubic coefficient M (practical default 1).  One
    second-order oracle query per iteration.
    """
    obj = obj.fresh()
    metric = obj.metric
    smooth = PlainSmooth(obj.smooth)
    composite = CompositePart(obj.simple, 1.0, 0.0, None, None)
    sub = Subproblem(p=2, metric=metric, smooth=smooth, composite=composite,
                     M=reg, lipschitz_g=obj.smooth.lipschitz.get(2, reg))

    def iterates():
        z = np.asarray(x0, dtype=float).copy()
        data = smooth.data(z, 2)
        row = {"x": z}
        while True:
            grad_norm = lambda z=z, g=data.grad: metric.dual_norm(g + obj.simple.subgrad(z))
            yield data.value + obj.simple.value(z), grad_norm, row
            step = tensor_step(sub, data, inner_tol=max(eps * 1e-2, 1e-13))
            model = TaylorModel(data, 2)
            z = step.point
            data = smooth.data(z, 2)
            s = step_subgradient(sub, model, data.grad, z)
            row = {"s_norm": metric.dual_norm(s) + step.sub_residual, "t_inner": 1, "x": z}

    return _drive(obj, "cn", eps, cap, {"reg": reg}, iterates())


def accelerated_cubic_newton(obj: CompositeObjective, x0, eps, cap, reg=1.0,
                             prox_reg=None, monotone=False):
    """Estimating-sequence acceleration of the cubic Newton step.

    Linear lower models are accumulated against a cubic prox term centered at
    the start; the auxiliary point has a closed form.  With ``monotone`` off
    the objective may oscillate; the certificate is the estimating-sequence
    bound, not per-step descent.  Two smooth-oracle queries per iteration
    (one second-order at the look-ahead point, one first-order at the new
    iterate); the start x0 gets the same first-order query, so every row
    records s_norm = ||grad f(x_k)||_* and the run stops on the gradient norm
    when f* is unknown.
    """
    if not obj.simple.is_zero:
        raise ValueError("the accelerated cubic baseline runs on smooth instances only")
    obj = obj.fresh()
    metric = obj.metric
    # the same fixed regularization constant works well for the prox term
    N = float(prox_reg) if prox_reg is not None else reg
    smooth = PlainSmooth(obj.smooth)
    composite = CompositePart(obj.simple, 1.0, 0.0, None, None)
    sub = Subproblem(p=2, metric=metric, smooth=smooth, composite=composite,
                     M=reg, lipschitz_g=obj.smooth.lipschitz.get(2, reg))

    def iterates():
        x_anchor = np.asarray(x0, dtype=float).copy()
        x = x_anchor.copy()
        s_acc = np.zeros_like(x)
        A = 0.0
        f, g = obj.smooth.value_and_grad(x)
        gn = metric.dual_norm(g)
        yield f, lambda gn=gn: gn, {"A": 0.0, "a": 0.0, "s_norm": gn, "x": x}
        for k in itertools.count(1):
            a = 0.5 * k * (k + 1)
            A_next = A + a
            sn = metric.dual_norm(s_acc)
            if sn == 0.0:
                v = x_anchor.copy()
            else:
                r = math.sqrt(2.0 * sn / N)
                v = x_anchor - (2.0 / (N * r)) * metric.solve(s_acc)
            y = (A * x + a * v) / A_next
            data_y = smooth.data(y, 2)
            step = tensor_step(sub, data_y, inner_tol=max(eps * 1e-2, 1e-13))
            x_next = step.point
            f_next, g_next = obj.smooth.value_and_grad(x_next)
            s_acc = s_acc + a * g_next
            if monotone and f_next > f:
                x_next, f_next, g_next = x, f, g
            x, f, g, A = x_next, f_next, g_next, A_next
            gn = metric.dual_norm(g)
            yield f, lambda gn=gn: gn, {"a": a, "A": A, "s_norm": gn, "t_inner": 1,
                                        "x": x, "v": v}

    knobs = {"reg": reg, "prox_reg": N, "monotone": monotone}
    return _drive(obj, "acn", eps, cap, knobs, iterates())
