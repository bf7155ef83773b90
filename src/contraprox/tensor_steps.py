"""Regularized Taylor-model steps and the inner loop that drives them.

One inner iteration minimizes
    Omega_p(g, x; y) + M/(p+1)! * ||y - x||^{p+1} + phi(y)
over y, where g is the (possibly contracted) smooth part and phi collects the
simple component and the proximal divergence term.  Orders p = 1, 2 run:
p = 1 steps with quadratic phi are closed-form linear solves, p = 2 steps with
a single regularization center reduce to a scalar secular equation, and the
general p = 2 step (two distinct centers) is minimized by damped Newton
(:func:`minimize_model_newton`).  :func:`minimize_model_descent`, a
Barzilai-Borwein descent that no solver calls, is kept as the independent
reference against which tests check the Newton and closed-form steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .bregman import ProxFunction, power_hessian
from .metric import Metric
from .objectives import SimpleComponent, SmoothOracle, SolverError


@dataclass
class SmoothData:
    """Oracle data of the smooth part at one base point."""

    x: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray | None = None


class ContractedSmooth:
    """Smooth part  x -> A_next * f((a*x + A_prev*x_prev) / A_next).

    The affine reparametrization rescales derivatives by powers of a/A_next,
    which is exactly what shrinks the subproblem's Lipschitz constants.
    """

    def __init__(self, oracle: SmoothOracle, a, A_next, x_prev, A_prev):
        if a <= 0 or A_next <= 0:
            raise ValueError("coefficients must be positive")
        self.oracle = oracle
        self.a = float(a)
        self.A_next = float(A_next)
        self.scale = self.a / self.A_next
        self.shift = (float(A_prev) / self.A_next) * np.asarray(x_prev, dtype=float)

    def map_point(self, x):
        return self.scale * x + self.shift

    def data(self, x, order):
        y = self.map_point(x)
        v, g, H = self.oracle.taylor_data(y, order)
        hess = None if H is None else (self.a * self.scale) * H
        return SmoothData(np.asarray(x, float).copy(), self.A_next * v, self.a * g, hess)

    def lipschitz(self, p):
        return self.a ** (p + 1) / self.A_next ** p * self.oracle.lipschitz[p]


class PlainSmooth:
    """Identity wrapper so baselines can run the same step machinery on f itself."""

    def __init__(self, oracle: SmoothOracle):
        self.oracle = oracle

    def data(self, x, order):
        v, g, H = self.oracle.taylor_data(x, order)
        return SmoothData(np.asarray(x, float).copy(), v, g, H)

    def lipschitz(self, p):
        return self.oracle.lipschitz[p]


class CompositePart:
    """phi(y) = weight*psi(y) + gamma * divergence(anchor; y)."""

    def __init__(self, psi: SimpleComponent, weight, gamma, prox: ProxFunction | None, anchor):
        if gamma < 0 or weight < 0:
            raise ValueError("weight and gamma must be nonnegative")
        if gamma > 0 and prox is None:
            raise ValueError("a positive gamma needs a prox function")
        self.psi = psi
        self.weight = float(weight)
        self.gamma = float(gamma)
        self.prox = prox
        self.anchor = None if anchor is None else np.asarray(anchor, dtype=float)
        if self.gamma > 0:
            self._d_anchor = prox.value(self.anchor)
            self._grad_anchor = prox.gradient(self.anchor)

    def value(self, y):
        out = 0.0
        if self.weight > 0 and not self.psi.is_zero:
            out += self.weight * self.psi.value(y)
        if self.gamma > 0:
            out += self.gamma * (self.prox.value(y) - self._d_anchor
                                 - float(self._grad_anchor @ (y - self.anchor)))
        return out

    def grad(self, y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        if self.weight > 0 and not self.psi.is_zero:
            out = out + self.weight * self.psi.subgrad(y)
        if self.gamma > 0:
            out = out + self.gamma * (self.prox.gradient(y) - self._grad_anchor)
        return out

    def hess(self, y):
        out = None
        if self.weight > 0 and not self.psi.is_zero:
            out = self.weight * self.psi.hess(y)
        if self.gamma > 0:
            u = np.asarray(y, dtype=float) - self.prox.center
            out = (0 if out is None else out) + self.gamma * power_hessian(
                self.prox.metric, u, self.prox.order)
        if out is None:
            n = self.psi.dim if hasattr(self.psi, "dim") else len(np.asarray(y))
            out = np.zeros((n, n))
        return out

    @property
    def gradient_is_affine(self):
        """True when phi has an affine gradient, i.e. the step is a linear solve."""
        psi_ok = (self.weight == 0.0 or self.psi.is_zero
                  or (hasattr(self.psi, "prox") and self.psi.prox is not None
                      and self.psi.prox.order == 1))
        div_ok = self.gamma == 0.0 or self.prox.order == 1
        return psi_ok and div_ok

    def affine_terms(self):
        """(total curvature coefficient, B-weighted center combination) of grad phi.

        Only valid when ``gradient_is_affine``; grad phi(y) = coeff*B*y - B*combo.
        """
        coeff = 0.0
        combo = None
        if self.gamma > 0:
            coeff += self.gamma
            combo = self.gamma * self.anchor
        if self.weight > 0 and not self.psi.is_zero:
            sigma = self.psi.sigma
            coeff += self.weight * sigma
            c = self.weight * sigma * self.psi.prox.center
            combo = c if combo is None else combo + c
        return coeff, combo


class TaylorModel:
    """Order-p polynomial model of the smooth part around a cached base point."""

    def __init__(self, data: SmoothData, p):
        if p not in (1, 2):
            raise ValueError("only orders 1 and 2 are runnable")
        if p == 2 and data.hess is None:
            raise ValueError("order-2 model needs Hessian data")
        self.data = data
        self.p = p

    def increment_and_gradient(self, y):
        """(model value minus the base value, model gradient) at y.

        The contracted smooth part carries a constant of size A*f, which would
        drown line-search decrements in round-off; increments stay small.
        """
        u = np.asarray(y, dtype=float) - self.data.x
        if self.p == 1:
            return float(self.data.grad @ u), self.data.grad.copy()
        hu = self.data.hess @ u
        return float(self.data.grad @ u) + 0.5 * float(u @ hu), self.data.grad + hu

    def value_and_gradient(self, y):
        increment, grad = self.increment_and_gradient(y)
        return self.data.value + increment, grad


@dataclass
class Subproblem:
    """One regularized inner subproblem h = g + phi with its step constant M.

    ``strong_modulus`` is the strong-convexity coefficient of h relative to
    ``prox`` (the post-update proximal coefficient).  The contracting solver
    sets M = p * L_p(g), which keeps the step subproblem convex at every
    order; practical baselines may run smaller M at their own risk.
    """

    p: int
    metric: Metric
    smooth: ContractedSmooth | PlainSmooth
    composite: CompositePart
    M: float
    lipschitz_g: float
    strong_modulus: float = 0.0
    prox: ProxFunction | None = None

    def h_value_from(self, data: SmoothData):
        return data.value + self.composite.value(data.x)

    def h_grad_from(self, data: SmoothData):
        return data.grad + self.composite.grad(data.x)


def regularizer_gradient(metric, M, p, u, r=None):
    """Gradient M/p! * ||u||^{p-1} B u of the step regularizer."""
    if p == 1:
        return M * metric.apply(u)
    if r is None:
        r = metric.norm(u)
    return (M / math.factorial(p)) * r ** (p - 1) * metric.apply(u)


def model_objective(sub: Subproblem, model: TaylorModel, y, phi_base=0.0):
    """(value relative to the step base, gradient) of the step objective at y.

    The value omits the model's base constant and ``phi_base`` (phi at the
    step base, for callers that compare values) so that line searches compare
    quantities of the size of the actual progress, not of A*f.
    """
    u = np.asarray(y, dtype=float) - model.data.x
    r = sub.metric.norm(u)
    mval, mgrad = model.increment_and_gradient(y)
    val = mval + sub.M / math.factorial(sub.p + 1) * r ** (sub.p + 1) \
        + sub.composite.value(y) - phi_base
    grad = mgrad + regularizer_gradient(sub.metric, sub.M, sub.p, u, r) + sub.composite.grad(y)
    return val, grad


def model_objective_hessian(sub: Subproblem, model: TaylorModel, y):
    """Hessian of the step objective; all pieces come from cached data."""
    u = np.asarray(y, dtype=float) - model.data.x
    H = sub.composite.hess(y)
    if model.p >= 2:
        H = H + model.data.hess
    if sub.M > 0:
        H = H + sub.M / math.factorial(sub.p) * power_hessian(sub.metric, u, sub.p)
    return H


def minimize_model_newton(sub: Subproblem, model: TaylorModel, y0, tol, cap=200):
    """Damped Newton on the step objective, to dual gradient norm <= tol.

    The model Hessian is cached oracle data and the remaining curvature is
    B-rank-one algebra, so iterations cost linear algebra only.  Backtracks on
    the increment value with a round-off allowance; quadratic local
    convergence makes tight tolerances cheap.  Returns (y, residual, iters).
    """
    y = np.asarray(y0, dtype=float).copy()
    phi_base = sub.composite.value(model.data.x)
    val, grad = model_objective(sub, model, y, phi_base)
    best_y, best_res = y, math.inf
    for it in range(cap):
        res = sub.metric.dual_norm(grad)
        if res < best_res:
            best_y, best_res = y, res
        if res <= tol:
            return y, res, it
        H = model_objective_hessian(sub, model, y)
        jitter = 0.0
        for _ in range(8):
            try:
                step = -scipy.linalg.cho_solve(
                    scipy.linalg.cho_factor(
                        H + jitter * np.eye(H.shape[0]) if jitter else H), grad)
                break
            except scipy.linalg.LinAlgError:
                jitter = max(10.0 * jitter, 1e-12 * (1.0 + abs(float(np.trace(H)))))
        else:
            raise SolverError("step Hessian could not be factorized")
        slope = float(grad @ step)
        if slope >= 0.0:  # numerically non-descent; fall back to steepest
            step = -sub.metric.solve(grad)
            slope = float(grad @ step)
        t = 1.0
        noise = 1e-14 * (abs(val) + 1.0)
        accepted = False
        for _ in range(60):
            y_trial = y + t * step
            val_t, grad_t = model_objective(sub, model, y_trial, phi_base)
            if val_t <= val + 1e-4 * t * slope + noise:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return best_y, best_res, it
        y, val, grad = y_trial, val_t, grad_t
    raise SolverError(f"step Newton sub-minimizer exceeded {cap} iterations "
                      f"(residual {sub.metric.dual_norm(grad):.3e}, tol {tol:.3e})")


def _closed_form_order1(sub: Subproblem, base: SmoothData):
    # M*B(T-x) + grad g(x) + [affine grad phi](T) = 0  =>  one B-solve
    coeff, combo = sub.composite.affine_terms()
    denom = sub.M + coeff
    if denom <= 0:
        raise ValueError("step subproblem is unbounded: M and phi curvature are both zero")
    rhs = sub.M * base.x - sub.metric.solve(base.grad)
    if combo is not None:
        rhs = rhs + combo
    return rhs / denom


def cubic_step_single_center(base: SmoothData, M, metric: Metric):
    """Exact minimizer of the quadratic model plus M/6*||y-x||^3 (no other terms).

    Reduces to a scalar secular equation in r = ||y - x||: after whitening,
    u(r) = -(H + M r/2 I)^{-1} g and r solves ||u(r)|| = r.
    """
    g = metric.dewhiten_dual(base.grad)
    W = scipy.linalg.solve_triangular(metric.chol(), base.hess, lower=True)
    H = scipy.linalg.solve_triangular(metric.chol(), W.T, lower=True)
    H = 0.5 * (H + H.T)
    lam, V = np.linalg.eigh(H)
    lam = np.maximum(lam, 0.0)
    c = V.T @ g
    cnorm = float(np.linalg.norm(c))
    if cnorm == 0.0:
        return base.x.copy()
    if M == 0.0:
        if lam.min() <= 1e-14 * max(lam.max(), 1.0):
            raise SolverError("Newton model is singular and no cubic regularization is set")
        u = -(c / lam)
    else:
        def radius_gap(r):
            return float(np.linalg.norm(c / (lam + 0.5 * M * r))) - r

        # the gap is strictly decreasing in r; expand up for a negative end,
        # walk down for a positive one (lam may have zero entries)
        r_hi = max(1.0, cnorm / max(lam.max(), 1e-16))
        for _ in range(200):
            if radius_gap(r_hi) < 0.0:
                break
            r_hi *= 2.0
        else:
            raise SolverError("could not bracket the cubic step radius")
        r_lo = 0.5 * r_hi
        for _ in range(2000):
            if radius_gap(r_lo) > 0.0:
                break
            r_hi = r_lo
            r_lo *= 0.5
            if r_lo < 1e-280:
                return base.x.copy()
        r = scipy.optimize.brentq(radius_gap, r_lo, r_hi, xtol=1e-280, rtol=8.9e-16)
        u = -(c / (lam + 0.5 * M * r))
    step = scipy.linalg.solve_triangular(metric.chol().T, V @ u, lower=False) \
        if not metric.is_identity else V @ u
    return base.x + step


def minimize_model_descent(sub: Subproblem, model: TaylorModel, y0, tol, cap=20000):
    """Safeguarded Barzilai-Borwein descent on the step objective in the B-metric.

    Works on the objective's increment relative to the step base and allows a
    round-off-sized slack in the Armijo test; the best value seen is what gets
    returned, so descent from the base point holds to float precision.
    Returns (y, dual residual, iterations).  No solver calls it: it is the
    independent reference against which tests check
    :func:`minimize_model_newton` and the closed-form steps.
    """
    y = np.asarray(y0, dtype=float).copy()
    phi_base = sub.composite.value(model.data.x)
    val, grad = model_objective(sub, model, y, phi_base)
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
            val_t, grad_t = model_objective(sub, model, y_trial, phi_base)
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


@dataclass
class StepResult:
    point: np.ndarray
    sub_residual: float
    sub_iterations: int = 0


def tensor_step(sub: Subproblem, base: SmoothData, inner_tol):
    """Minimize the order-p regularized model around ``base``.

    Closed forms are used whenever the structure allows: a linear solve at
    p = 1 with quadratic phi, the secular equation at p = 2 without phi.
    Otherwise damped Newton (:func:`minimize_model_newton`) runs until the
    step objective's dual gradient norm is at most ``inner_tol``.
    """
    if inner_tol <= 0:
        raise ValueError("inner_tol must be positive")
    if sub.p == 1 and sub.composite.gradient_is_affine:
        T = _closed_form_order1(sub, base)
        return StepResult(T, 0.0, 0)
    if sub.p == 2 and sub.composite.gamma == 0.0 and (
            sub.composite.weight == 0.0 or sub.composite.psi.is_zero):
        T = cubic_step_single_center(base, sub.M, sub.metric)
        model = TaylorModel(base, 2)
        _, grad = model_objective(sub, model, T)
        return StepResult(T, sub.metric.dual_norm(grad), 0)
    model = TaylorModel(base, sub.p)
    y, rho, iters = minimize_model_newton(sub, model, base.x, inner_tol)
    return StepResult(y, rho, iters)


def step_subgradient(sub: Subproblem, model: TaylorModel, grad_g_at_T, T):
    """Implicit subgradient of h at the step's result.

    The step's first-order condition pins the phi-subgradient to minus the
    model-plus-regularizer gradient, leaving
        s = grad g(T) - grad Omega_p(g, x; T) - M/p! * ||T-x||^{p-1} B (T-x),
    which is a true subgradient when the step solved its subproblem exactly;
    any sub-minimizer residual must be added on top of ||s||_* to stay a
    valid certificate.
    """
    u = np.asarray(T, dtype=float) - model.data.x
    model_grad = model.increment_and_gradient(T)[1]
    return grad_g_at_T - model_grad - regularizer_gradient(sub.metric, sub.M, sub.p, u)


@dataclass
class InnerStepRecord:
    """One accepted inner step, with everything the lemma-level checks need."""

    t: int
    h_before: float
    h_after: float
    step_norm: float
    s_norm: float
    s_dual: float
    sub_residual: float
    decrease_pairing: float
    sub_iterations: int = 0


@dataclass
class InnerResult:
    point: np.ndarray
    subgradient: np.ndarray
    s_norm: float
    iterations: int
    steps: list = field(default_factory=list)
    h_final: float = math.nan
    lipschitz_g: float = math.nan   # of the subproblem's smooth part; set by contracting_step


class InnerLoopError(SolverError):
    def __init__(self, message, last_norm):
        super().__init__(message)
        self.last_norm = last_norm


def inner_loop(sub: Subproblem, z0, delta, cap):
    """Iterate regularized model steps until a subgradient of h is delta-small.

    The dual norm reported per iterate is conservative: the sub-minimizer's
    own residual is added to the extracted subgradient's norm.  Each iterate
    costs one smooth-oracle query (shared between the stopping test and the
    next model).  Raises :class:`InnerLoopError` past ``cap`` steps, which in
    a correctly configured run means the Lipschitz estimate is wrong.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    sub_tol = delta / 10.0
    data = sub.smooth.data(z0, sub.p)
    s0 = sub.h_grad_from(data)
    s0_norm = sub.metric.dual_norm(s0)
    if s0_norm <= delta:
        return InnerResult(np.asarray(z0, float).copy(), s0, s0_norm, 0,
                           h_final=sub.h_value_from(data))
    h_prev = sub.h_value_from(data)
    z = np.asarray(z0, dtype=float).copy()
    records = []
    last_norm = s0_norm
    for t in range(1, max(int(cap), 1) + 1):
        model = TaylorModel(data, sub.p)
        step = tensor_step(sub, data, sub_tol)
        T = step.point
        data_T = sub.smooth.data(T, sub.p)
        s = step_subgradient(sub, model, data_T.grad, T)
        s_dual = sub.metric.dual_norm(s)
        s_norm = s_dual + step.sub_residual
        h_T = sub.h_value_from(data_T)
        records.append(InnerStepRecord(
            t=t, h_before=h_prev, h_after=h_T,
            step_norm=sub.metric.norm(T - z), s_norm=s_norm, s_dual=s_dual,
            sub_residual=step.sub_residual,
            decrease_pairing=float(s @ (z - T)),
            sub_iterations=step.sub_iterations,
        ))
        z, data, h_prev, last_norm = T, data_T, h_T, s_norm
        if s_norm <= delta:
            return InnerResult(z, s, s_norm, t, records, h_final=h_prev)
    raise InnerLoopError(
        f"inner loop hit its cap of {cap} steps (last certified norm "
        f"{last_norm:.3e}, target {delta:.3e}); check the Lipschitz estimate",
        last_norm,
    )


def exact_quadratic_inner(sub: Subproblem, z0, delta=None, cap=None):
    """Exact minimizer of h for order-1 subproblems whose h is quadratic.

    Available when the smooth part is a (contracted) quadratic and phi has an
    affine gradient; it is the ``inner="exact"`` shortcut of the contracting
    step, which hand-worked outer-step checks use.  The reported norm is the
    float residual at the solve.
    """
    oracle = sub.smooth.oracle
    if not hasattr(oracle, "matrix"):
        raise ValueError("exact inner solve needs a quadratic smooth part")
    if sub.p != 1 or not sub.composite.gradient_is_affine:
        raise ValueError("exact inner solve needs order 1 and quadratic phi")
    oracle.counters.hess += 1
    scale = getattr(sub.smooth, "scale", 1.0)
    shift = getattr(sub.smooth, "shift", np.zeros(oracle.dim))
    a_eff = sub.smooth.a if isinstance(sub.smooth, ContractedSmooth) else 1.0
    coeff, combo = sub.composite.affine_terms()
    B = sub.metric.matrix
    H = a_eff * scale * oracle.matrix + coeff * B
    rhs = a_eff * (oracle.rhs - oracle.matrix @ shift)
    if combo is not None:
        rhs = rhs + B @ combo
    v = np.linalg.solve(H, rhs)
    data = sub.smooth.data(v, 1)
    s = sub.h_grad_from(data)
    return InnerResult(v, s, sub.metric.dual_norm(s), 1, h_final=sub.h_value_from(data))
