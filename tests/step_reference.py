"""Independent reference minimizer of the step objective, for the tests.

No solver calls it: the tests check :func:`contraprox.tensor_steps.minimize_model_newton`
and the closed-form order-1 step against it.
"""

import math

import numpy as np

from contraprox.objectives import SolverError
from contraprox.tensor_steps import SmoothData, Subproblem, model_objective


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
    phi_base = sub.composite.value(base.x)
    val, grad, _ = model_objective(sub, base, y, phi_base)
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
            val_t, grad_t, _ = model_objective(sub, base, y_trial, phi_base)
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
