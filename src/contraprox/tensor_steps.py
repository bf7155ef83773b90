"""Regularized Taylor-model steps and the inner loop that drives them.

One inner iteration minimizes
    Omega_p(g, x; y) + M/(p+1)! * ||y - x||^{p+1} + phi(y)
over y, where g is the contracted smooth part (the cubic baselines run f
itself, contracted with a = A_next = 1 and A_prev = 0) and phi is one list of
B-norm power terms on the power prox (:class:`CompositePart`, ``bregman``):
weight*psi with psi = sigma*d, and gamma times a Bregman divergence, whose
linear part rides with its term.  phi's value and gradient, the order-1 closed
form and the Newton Hessian loop over that list, so the step dispatches on p
alone: a p = 1 step is a closed-form linear solve, and a p = 2 step, cptm's and
the cubic baselines' alike, is damped Newton (:func:`minimize_model_newton`) on
``smooth.data(x)`` and ``smooth.hess(x)``, its Hessian grad^2 g + alpha*B plus
one rank-one term per power term assembled and factored in one F-ordered
buffer; :class:`Subproblem` rejects what neither solves.
:func:`cubic_step_single_center`, the exact single-center p = 2 step, is a
reference no solver calls; the descent reference is in ``tests/step_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .bregman import PowerProx, ProxFunction, power_coefficients
from .metric import Metric
from .objectives import PowerRegularizer, SmoothOracle, SolverError

_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))
_syr, = scipy.linalg.get_blas_funcs(("syr",), (np.empty((1, 1)),))


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
    """phi(y) = weight*psi(y) + gamma * divergence(anchor; y), as one list of power terms.

    ``terms`` holds (name, c, d, anchor, d(anchor), grad d(anchor)) for each term
    c*(d(y) - d(anchor) - <grad d(anchor), y - anchor>) with c > 0: psi = sigma*d
    first, as c = weight*sigma and no anchor (plain c*d), then the divergence with
    c = gamma.  A psi that is neither zero nor a :class:`PowerRegularizer` raises.
    """

    def __init__(self, psi, weight, gamma, prox: ProxFunction | None, anchor):
        if gamma < 0 or weight < 0:
            raise ValueError("weight and gamma must be nonnegative")
        if gamma > 0 and prox is None:
            raise ValueError("a positive gamma needs a prox function")
        self.psi, self.weight, self.gamma, self.prox = psi, float(weight), float(gamma), prox
        self.anchor = None if anchor is None else np.asarray(anchor, dtype=float)
        self.terms = []
        if self.weight > 0 and not psi.is_zero:
            if not isinstance(psi, PowerRegularizer):
                raise ValueError(f"psi is a {type(psi).__name__}, not zero or a PowerRegularizer")
            self.terms.append(("psi", self.weight * psi.sigma, psi.prox, None, 0.0, None))
        if self.gamma > 0:
            self.terms.append(("the divergence term", self.gamma, prox, self.anchor,
                               prox.value(self.anchor), prox.gradient(self.anchor)))

    def value(self, y):
        out = 0.0
        for _, c, d, anchor, d_anchor, grad_anchor in self.terms:
            v = d.value(y)
            if anchor is not None:
                v = v - d_anchor - float(grad_anchor @ (y - anchor))
            out += c * v
        return out

    def evaluate(self, y):
        """(phi(y), grad phi(y), terms) of an array y; the value is :meth:`value`'s bitwise.

        Each term c*||y - center||^{q+1}/(q+1) comes as (c, q, r, Bw), w = y - center.
        """
        val, grad, terms = 0.0, np.zeros_like(y), []
        for _, c, d, anchor, d_anchor, grad_anchor in self.terms:
            r, Bw, v, g = d.at(y)
            if anchor is not None:
                v, g = v - d_anchor - float(grad_anchor @ (y - anchor)), g - grad_anchor
            val, grad = val + c * v, grad + c * g
            terms.append((c, d.order, r, Bw))
        return val, grad, terms

    def affine_terms(self):
        """(total curvature coefficient, B-weighted center combination) of grad phi.

        Only valid when every term has order 1; grad phi(y) = coeff*B*y - B*combo,
        where a term's center is its anchor, or else its prox center.
        """
        coeff, combo = 0.0, 0.0
        for _, c, d, anchor, _, _ in self.terms:
            coeff += c
            combo += c * (d.center if anchor is None else anchor)  # a fresh array after one term
        return coeff, combo


@dataclass
class Subproblem:
    """One regularized inner subproblem h = g + phi with its step constant M.

    The contracting solver sets M = p * L_p(g), which keeps the step
    subproblem convex at every order; the cubic baselines run g = f with a
    fixed M.  Building one raises ``ValueError`` unless p is 1 or 2 and each
    of phi's terms is built on a :class:`PowerProx` on ``metric``, of order 1
    when p = 1 (a psi no step solves was rejected by :class:`CompositePart`).
    """

    p: int
    metric: Metric
    smooth: ContractedSmooth
    composite: CompositePart
    M: float

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError("only orders 1 and 2 are runnable")
        for part, _, d, *_ in self.composite.terms:
            if not (isinstance(d, PowerProx) and d.metric is self.metric):
                raise ValueError(f"{part} is not built on a PowerProx on the step's metric")
            if self.p == 1 and d.order != 1:
                raise ValueError(f"{part} has order {d.order}; an order-1 step needs 1")

    def h_value_from(self, data: SmoothData):
        return data.value + self.composite.value(data.x)

    def h_grad_from(self, data: SmoothData):
        return data.grad + self.composite.evaluate(data.x)[1]


def model_objective(sub: Subproblem, base: SmoothData, y, phi_base=0.0):
    """(value relative to the step base, gradient, terms) of the step objective at y.

    The value omits the model's base constant and ``phi_base`` (phi at the
    step base, for callers that compare values) so that line searches compare
    quantities of the size of the actual progress, not of A*f.  ``terms`` are
    the power terms as :meth:`CompositePart.evaluate` gives them, regularizer first.
    """
    y = np.asarray(y, dtype=float)
    u = y - base.x
    r, Bu, c = sub.metric.norm(u), sub.metric.apply(u), sub.M / math.factorial(sub.p)
    mval, mgrad = base.model_increment(y)
    phi, phi_grad, terms = sub.composite.evaluate(y)
    val = mval + sub.M / math.factorial(sub.p + 1) * r ** (sub.p + 1) + phi - phi_base
    # c * r^0 is c exactly, so p = 1 gives step_subgradient's M * B u bitwise
    grad = mgrad + c * r ** (sub.p - 1) * Bu + phi_grad
    return val, grad, [(c, sub.p, r, Bu)] + terms


def assemble_step_hessian(H, sub: Subproblem, base: SmoothData, terms):
    """Write base.hess + sum_j c_j (alpha_j B + beta_j (Bw_j)(Bw_j)^T) into H, upper part.

    (sum_j c_j alpha_j) B^T + base.hess^T fills the F-ordered H in two contiguous
    passes (both are symmetric and C-ordered); a BLAS syr adds each rank-one term.
    """
    coef = [(c, *power_coefficients(r, q), Bw) for c, q, r, Bw in terms]
    np.multiply(sub.metric.matrix.T, sum(c * alpha for c, alpha, _, _ in coef), out=H)
    H += base.hess.T
    for c, _, beta, Bw in coef:
        if beta:
            _syr(c * beta, Bw, a=H, overwrite_a=True)


def cholesky_solve(H, g):
    """H^{-1} g as ``cho_solve(cho_factor(H), g)`` computes it, by potrf/potrs directly.

    Reads H's upper triangle.  An F-ordered H is factored in place (a failed
    factorization leaves a partial factor); a C-ordered H is copied, not changed.
    """
    H = np.asarray_chkfinite(H)
    c, info = _potrf(H, lower=False, clean=False, overwrite_a=not H.flags.c_contiguous)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info == 0:
        x, info = _potrs(np.asarray_chkfinite(c), np.asarray_chkfinite(g), lower=False)
    if info:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
    return x


def minimize_model_newton(sub: Subproblem, base: SmoothData, y0, tol, cap=200):
    """Damped Newton on the step objective, to dual gradient norm <= tol.

    Each point is evaluated once: its norms and B-products serve value,
    gradient and Hessian, the model Hessian plus a multiple of B plus at most
    three rank-one terms (Bw)(Bw)^T, assembled in one F-ordered buffer and
    factored in place by :func:`cholesky_solve` (jittered when it fails).
    Backtracks on the increment value with a round-off allowance, and takes a
    full step that halves the residual without a measurable decrease; three
    iterations without a better residual (a round-off floor) end the solve at
    the best point, as a failed line search does.  Returns (y, residual, iters).
    """
    y = np.asarray(y0, dtype=float).copy()
    phi_base = sub.composite.value(base.x)
    val, grad, terms = model_objective(sub, base, y, phi_base)
    H = np.empty((y.size, y.size), order="F")
    best_y, best_res, stalled = y, math.inf, 0
    for it in range(cap):
        res = sub.metric.dual_norm(grad)
        stalled = 0 if res < best_res else stalled + 1
        if res < best_res:
            best_y, best_res = y, res
        if res <= tol:
            return y, res, it
        if stalled == 3:
            return best_y, best_res, it
        assemble_step_hessian(H, sub, base, terms)
        jitter = 0.0
        for _ in range(8):
            try:
                step = -cholesky_solve(H, grad)
                break
            except scipy.linalg.LinAlgError:
                # the failed factorization overwrote H, so assemble it afresh
                assemble_step_hessian(H, sub, base, terms)
                jitter = max(10.0 * jitter, 1e-12 * (1.0 + abs(float(np.trace(H)))))
                H[np.diag_indices_from(H)] += jitter
        else:
            raise SolverError("step Hessian could not be factorized")
        slope = float(grad @ step)
        if slope >= 0.0:  # numerically non-descent; fall back to steepest
            step = -sub.metric.solve(grad)
            slope = float(grad @ step)
        t = 1.0
        noise = 1e-14 * (abs(val) + 1.0)
        for _ in range(60):
            y_trial = y + t * step
            val_t, grad_t, terms_t = model_objective(sub, base, y_trial, phi_base)
            # near the minimizer the decrease falls below the round-off of phi's
            # Bregman term, a difference of far larger numbers; a full step that
            # halves the residual is then taken on the residual alone
            if (val_t <= val + 1e-4 * t * slope + noise
                    or (t == 1.0 and sub.metric.dual_norm(grad_t) <= 0.5 * res)):
                break
            t *= 0.5
        else:
            return best_y, best_res, it
        y, val, grad, terms = y_trial, val_t, grad_t, terms_t
    raise SolverError(f"step Newton sub-minimizer exceeded {cap} iterations "
                      f"(residual {sub.metric.dual_norm(grad):.3e}, tol {tol:.3e})")


def _closed_form_order1(sub: Subproblem, base: SmoothData):
    # M*B(T-x) + grad g(x) + [affine grad phi](T) = 0  =>  one B-solve
    coeff, combo = sub.composite.affine_terms()
    denom = sub.M + coeff
    if denom <= 0:
        raise ValueError("step subproblem is unbounded: M and phi curvature are both zero")
    return (sub.M * base.x - sub.metric.solve(base.grad) + combo) / denom


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
    return StepResult(*minimize_model_newton(sub, base, base.x, inner_tol))


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
    reg_grad = sub.M * sub.metric.apply(u) if sub.p == 1 else \
        (sub.M / math.factorial(sub.p)) * sub.metric.norm(u) ** (sub.p - 1) * sub.metric.apply(u)
    return grad_g_at_T - model_grad - reg_grad


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
    h_prev = sub.h_value_from(data)
    if s0_norm <= delta:
        return InnerResult(np.asarray(z0, float).copy(), s0, s0_norm, 0, h_final=h_prev)
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

