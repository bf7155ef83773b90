"""Regularized Taylor-model steps and the inner loop that drives them.

One inner iteration minimizes
    Omega_p(g, x; y) + M/(p+1)! * ||y - x||^{p+1} + phi(y)
over y, where g is the contracted smooth part and phi collects the simple
component and the proximal divergence term.  The cubic baselines run the same
step on f itself, as the part contracted with a = A_next = 1 and A_prev = 0.
Every order-2 step takes first-order data from ``smooth.data(x)`` and its
Hessian from ``smooth.hess(x)``, and both must be finite.  Every divergence
term and psi is built on the power prox (see ``bregman``), so the step
dispatches on p alone: a p = 1 step is a closed-form linear solve, and a
p = 2 step, cptm's and the cubic baselines' alike, is minimized by damped
Newton (:func:`minimize_model_newton`); :class:`Subproblem` rejects what
neither solves when it is built.  :func:`cubic_step_single_center`, the
exact single-center p = 2 step, is a reference no solver calls; the descent
reference the tests also use is in ``tests/step_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .bregman import PowerProx, ProxFunction, power_hessian
from .metric import Metric
from .objectives import PowerRegularizer, SimpleComponent, SmoothOracle, SolverError

_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


@dataclass
class SmoothData:
    """Oracle data of the smooth part at one base point, and its Taylor model.

    The model is of order 2 when ``hess`` is set and of order 1 otherwise.
    """

    x: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray | None = None

    def model_increment(self, y):
        """(model value minus the base value, model gradient) at y.

        The contracted smooth part carries a constant of size A*f, which would
        drown line-search decrements in round-off; increments stay small.
        """
        u = np.asarray(y, dtype=float) - self.x
        if self.hess is None:
            return float(self.grad @ u), self.grad.copy()
        hu = self.hess @ u
        return float(self.grad @ u) + 0.5 * float(u @ hu), self.grad + hu


class ContractedSmooth:
    """Smooth part  x -> A_next * f((a*x + A_prev*x_prev) / A_next).

    The affine reparametrization rescales derivatives by powers of a/A_next,
    which is exactly what shrinks the subproblem's Lipschitz constants.  With
    a = A_next = 1 and A_prev = 0 the part is f itself, bitwise: value,
    gradient and Hessian are the oracle's.
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

    def data(self, x):
        """Value and gradient at x, both finite; the Hessian comes from :meth:`hess`."""
        v, g, _ = self.oracle.taylor_data(self.map_point(x), 1)
        if not (math.isfinite(v) and np.isfinite(g).all()):
            raise SolverError(f"the oracle returned a non-finite value or gradient (f = {v!r})")
        return SmoothData(np.asarray(x, float).copy(), self.A_next * v, self.a * g)

    def hess(self, x):
        H = (self.a * self.scale) * self.oracle.hess(self.map_point(x))
        if not np.isfinite(H).all():
            raise SolverError("the oracle returned a non-finite Hessian")
        return H

    def lipschitz(self, p):
        return self.a ** (p + 1) / self.A_next ** p * self.oracle.lipschitz[p]


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

    def affine_terms(self):
        """(total curvature coefficient, B-weighted center combination) of grad phi.

        Only valid when every term has order 1; grad phi(y) = coeff*B*y - B*combo.
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


@dataclass
class Subproblem:
    """One regularized inner subproblem h = g + phi with its step constant M.

    The contracting solver sets M = p * L_p(g), which keeps the step
    subproblem convex at every order; the cubic baselines run g = f with a
    fixed M.  Building one raises ``ValueError`` unless p is 1 or 2, psi is
    zero or a :class:`PowerRegularizer`, and each term in use is built on a
    :class:`PowerProx` on ``metric``, of order 1 when p = 1.
    """

    p: int
    metric: Metric
    smooth: ContractedSmooth
    composite: CompositePart
    M: float

    def __post_init__(self):
        c = self.composite
        psi_used = c.weight > 0 and not c.psi.is_zero
        if self.p not in (1, 2):
            raise ValueError("only orders 1 and 2 are runnable")
        if psi_used and not isinstance(c.psi, PowerRegularizer):
            raise ValueError(f"psi is a {type(c.psi).__name__}, not zero or a PowerRegularizer")
        for part, prox, used in (("the divergence term", c.prox, c.gamma > 0),
                                 ("psi", c.psi.prox, psi_used)):
            if used and not (isinstance(prox, PowerProx) and prox.metric is self.metric):
                raise ValueError(f"{part} is not built on a PowerProx on the step's metric")
            if used and self.p == 1 and prox.order != 1:
                raise ValueError(f"{part} has order {prox.order}; an order-1 step needs 1")

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


def model_objective(sub: Subproblem, base: SmoothData, y, phi_base=0.0):
    """(value relative to the step base, gradient) of the step objective at y.

    The value omits the model's base constant and ``phi_base`` (phi at the
    step base, for callers that compare values) so that line searches compare
    quantities of the size of the actual progress, not of A*f.
    """
    u = np.asarray(y, dtype=float) - base.x
    r = sub.metric.norm(u)
    mval, mgrad = base.model_increment(y)
    val = mval + sub.M / math.factorial(sub.p + 1) * r ** (sub.p + 1) \
        + sub.composite.value(y) - phi_base
    grad = mgrad + regularizer_gradient(sub.metric, sub.M, sub.p, u, r) + sub.composite.grad(y)
    return val, grad


def model_objective_hessian(sub: Subproblem, base: SmoothData, y):
    """Hessian of the step objective; all pieces come from cached data."""
    u = np.asarray(y, dtype=float) - base.x
    H = sub.composite.hess(y)
    if base.hess is not None:
        H = H + base.hess
    if sub.M > 0:
        H = H + sub.M / math.factorial(sub.p) * power_hessian(sub.metric, u, sub.p)
    return H


def cholesky_solve(H, g):
    """H^{-1} g as ``cho_solve(cho_factor(H), g)`` computes it, by potrf/potrs directly."""
    c, info = _potrf(np.asarray_chkfinite(H), lower=False, clean=False)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info == 0:
        x, info = _potrs(np.asarray_chkfinite(c), np.asarray_chkfinite(g), lower=False)
    if info:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
    return x


def minimize_model_newton(sub: Subproblem, base: SmoothData, y0, tol, cap=200):
    """Damped Newton on the step objective, to dual gradient norm <= tol.

    The model Hessian is cached oracle data and the remaining curvature is
    B-rank-one algebra, so iterations cost linear algebra only.  The step
    solve is :func:`cholesky_solve`, LAPACK potrf/potrs called directly (at
    n <= 200 scipy's wrappers cost more than the solve), jittered when H does
    not factorize.  Backtracks on the increment value with a round-off
    allowance, and takes a full step without a measurable decrease when it
    halves the residual; quadratic local convergence makes tight tolerances
    cheap.  Returns (y, residual, iters).
    """
    y = np.asarray(y0, dtype=float).copy()
    phi_base = sub.composite.value(base.x)
    val, grad = model_objective(sub, base, y, phi_base)
    best_y, best_res = y, math.inf
    for it in range(cap):
        res = sub.metric.dual_norm(grad)
        if res < best_res:
            best_y, best_res = y, res
        if res <= tol:
            return y, res, it
        H = model_objective_hessian(sub, base, y)
        jitter = 0.0
        for _ in range(8):
            try:
                step = -cholesky_solve(H + jitter * np.eye(H.shape[0]) if jitter else H, grad)
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
            val_t, grad_t = model_objective(sub, base, y_trial, phi_base)
            # near the minimizer the decrease falls below the round-off of phi's
            # Bregman term, a difference of far larger numbers; a full step that
            # halves the residual is then taken on the residual alone
            if (val_t <= val + 1e-4 * t * slope + noise
                    or (t == 1.0 and sub.metric.dual_norm(grad_t) <= 0.5 * res)):
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
    u(r) = -(H + M r/2 I)^{-1} g and r solves ||u(r)|| = r.  No solver calls
    it: it is the exact reference against which tests check the Newton step
    on single-center subproblems.  It stays here, not in the tests, because
    the benchmark tracer's ``SPAN_TARGETS`` lists the entry
    ``("tensor_steps", "cubic_step_single_center", None)``.
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


@dataclass
class StepResult:
    point: np.ndarray
    sub_residual: float
    sub_iterations: int = 0


def tensor_step(sub: Subproblem, base: SmoothData, inner_tol):
    """Minimize the order-p regularized model around ``base``.

    A p = 1 step is a closed-form linear solve.  A p = 2 step runs damped
    Newton (:func:`minimize_model_newton`) until the step objective's dual
    gradient norm is at most ``inner_tol``.  The model is ``base``'s, so
    ``base.hess`` must be set exactly when p = 2; a subproblem neither can
    solve was already rejected when it was built (see :class:`Subproblem`).
    """
    if not inner_tol > 0:
        raise ValueError("inner_tol must be positive")
    if (base.hess is not None) != (sub.p == 2):
        raise ValueError("an order-2 step needs Hessian data, and only an order-2 step")
    if sub.p == 1:
        return StepResult(_closed_form_order1(sub, base), 0.0, 0)
    y, rho, iters = minimize_model_newton(sub, base, base.x, inner_tol)
    return StepResult(y, rho, iters)


def step_subgradient(sub: Subproblem, base: SmoothData, grad_g_at_T, T):
    """Implicit subgradient of h at the step's result.

    The step's first-order condition pins the phi-subgradient to minus the
    model-plus-regularizer gradient, leaving
        s = grad g(T) - grad Omega_p(g, x; T) - M/p! * ||T-x||^{p-1} B (T-x),
    which is a true subgradient when the step solved its subproblem exactly;
    any sub-minimizer residual must be added on top of ||s||_* to stay a
    valid certificate.
    """
    u = np.asarray(T, dtype=float) - base.x
    model_grad = base.model_increment(T)[1]
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
    costs one first-order query (shared between the stopping test and the
    next model), and each step taken at order p >= 2 one Hessian at its
    base, so the exit point and a start point that already meets delta are
    never charged a Hessian.  Raises :class:`InnerLoopError` past ``cap``
    steps, which in a correctly configured run means the Lipschitz estimate
    is wrong.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    sub_tol = delta / 10.0
    data = sub.smooth.data(z0)
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
        if sub.p >= 2:
            data.hess = sub.smooth.hess(data.x)
        step = tensor_step(sub, data, sub_tol)
        T = step.point
        data_T = sub.smooth.data(T)
        s = step_subgradient(sub, data, data_T.grad, T)
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

