"""Regularized Taylor-model steps and the inner loop that drives them.

One inner iteration minimizes
    Omega_p(g, x; y) + M/(p+1)! * ||y - x||^{p+1} + phi(y)
over y, where g is the contracted smooth part (the cubic baselines run f
itself, contracted with a = A_next = 1 and A_prev = 0) and phi is one list of
B-norm power terms on the power prox (``bregman``): weight*psi with
psi = sigma*d, and gamma times a Bregman divergence, whose linear part rides
with its term.  :class:`Subproblem` holds g, phi and M and rejects what no step
solves; phi, the Newton Hessian and, once per subproblem, the order-1 closed
form's coefficients loop over phi's list, so the step dispatches on p alone: a
p = 1 step is a closed-form linear solve, and a p = 2 step, cptm's and the
cubic baselines' alike, is damped Newton (:func:`minimize_model_newton`) on
``smooth.data(x)`` and ``smooth.hess(x)`` from phi's evaluation at x, its
Hessian grad^2 g + alpha*B plus one rank-one term per power term assembled in
one F-ordered buffer.  A step returns (point T, residual, iterations, at),
``at`` its own evaluation at T, from which :func:`model_steps`, the one step
loop, reads h(T), ||T - x|| and the certified subgradient and starts the next
step, so no point is evaluated twice: cptm's inner solve (:func:`inner_loop`)
and cn both iterate it.  cn and acn warm-start each Newton at the radius
||T - x|| their last two steps predict; cptm's steps start cold.
:func:`cubic_step_single_center`, the exact single-center p = 2 step, is a
reference no solver calls; the descent reference is in ``tests/step_reference.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bregman import PowerProx, ProxFunction, power_coefficients
from .metric import Metric, cholesky_solve
from .objectives import PowerRegularizer, SmoothOracle, SolverError

_syr, = scipy.linalg.get_blas_funcs(("syr",), (np.empty((1, 1)),))
NEWTON_CAP = 200    # damped Newton iterations allowed for one step


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
            return float(self.grad.dot(u)), self.grad.copy()
        hu = self.hess.dot(u)
        return float(self.grad.dot(u)) + 0.5 * float(u.dot(hu)), self.grad + hu


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
        v, g = self.oracle.taylor_data(self.map_point(x), 1)
        if not (math.isfinite(v) and np.isfinite(g).all()):
            raise SolverError(f"the oracle returned a non-finite value or gradient (f = {v!r})")
        return SmoothData(np.asarray(x, float).copy(), self.A_next * v, self.a * g)

    def hess(self, x):
        H = (self.a * self.scale) * self.oracle.hess(self.map_point(x))
        if not np.isfinite(H).all():
            raise SolverError("the oracle returned a non-finite Hessian")
        return H


class Subproblem:
    """One regularized inner subproblem h = g + phi with its step constant M.

    phi(y) = weight*psi(y) + gamma * divergence(anchor; y) is one list of power
    terms: ``terms`` holds (name, c, d, anchor, d(anchor), grad d(anchor)) for
    each term c*(d(y) - d(anchor) - <grad d(anchor), y - anchor>) with c > 0,
    psi = sigma*d first, as c = weight*sigma and no anchor (plain c*d), then the
    divergence with c = gamma, whose ``anchor`` argument is the linearization
    (v, d(v), grad d(v)) of ``prox.linearization``.  At order 1 the affine
    gradient of phi is summed once, into ``affine`` (see :meth:`affine_terms`).
    The contracting solver sets M = p * L_p(g),
    which keeps the step subproblem convex at every order; the cubic baselines
    run g = f with a fixed M.  Building one raises ``ValueError`` unless psi is
    zero or a :class:`PowerRegularizer`, p is 1 or 2 and each term is built on
    a :class:`PowerProx` on ``metric``, of order 1 when p = 1.
    """

    def __init__(self, p, metric: Metric, smooth: ContractedSmooth, M, psi, weight,
                 gamma=0.0, prox: ProxFunction | None = None, anchor=None):
        if gamma < 0 or weight < 0:
            raise ValueError("weight and gamma must be nonnegative")
        if gamma > 0 and prox is None:
            raise ValueError("a positive gamma needs a prox function")
        self.terms = []
        if weight > 0 and not psi.is_zero:
            if not isinstance(psi, PowerRegularizer):
                raise ValueError(f"psi is a {type(psi).__name__}, not zero or a PowerRegularizer")
            self.terms.append(("psi", float(weight) * psi.sigma, psi.prox, None, 0.0, None))
        if gamma > 0:
            v, d_v, grad_v = anchor
            self.terms.append(("the divergence term", float(gamma), prox, v, d_v, grad_v))
        if p not in (1, 2):
            raise ValueError("only orders 1 and 2 are runnable")
        for part, _, d, *_ in self.terms:
            if not (isinstance(d, PowerProx) and d.metric is metric):
                raise ValueError(f"{part} is not built on a PowerProx on the step's metric")
            if p == 1 and d.order != 1:
                raise ValueError(f"{part} has order {d.order}; an order-1 step needs 1")
        self.p, self.metric, self.smooth, self.M = p, metric, smooth, M
        self.affine = self.affine_terms() if p == 1 else None

    def phi_value(self, y):
        """phi(y) alone, bitwise :meth:`phi`'s value."""
        out = 0.0
        for _, c, d, anchor, d_anchor, grad_anchor in self.terms:
            v = d.value(y)
            if anchor is not None:
                v = v - d_anchor - float(grad_anchor.dot(y - anchor))
            out += c * v
        return out

    def phi(self, y):
        """(phi(y), grad phi(y), terms) of an array y.

        Each term c*||y - center||^{q+1}/(q+1) comes as (c, q, r, Bw), w = y - center.
        """
        val, grad, terms = 0.0, np.zeros_like(y), []
        for _, c, d, anchor, d_anchor, grad_anchor in self.terms:
            r, Bw, v, g = d.at(y)
            if anchor is not None:
                v, g = v - d_anchor - float(grad_anchor.dot(y - anchor)), g - grad_anchor
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


def model_objective(sub: Subproblem, base: SmoothData, y, phi_base):
    """(value relative to the step base, gradient, terms, at) of the step objective at y.

    The value omits the model's base constant and ``phi_base`` (phi at the
    step base) so that line searches compare quantities of the size of the
    actual progress, not of A*f.  ``terms`` are the power terms as
    :meth:`Subproblem.phi` gives them, regularizer first, and ``at`` is
    (:meth:`Subproblem.phi` at y, model gradient, regularizer gradient,
    ||y - base.x||), the gradient being the sum of the three gradients.
    """
    y = np.asarray(y, dtype=float)
    u = y - base.x
    r, Bu, c = sub.metric.norm(u), sub.metric.apply(u), sub.M / math.factorial(sub.p)
    mval, mgrad = base.model_increment(y)
    phi = sub.phi(y)
    val = mval + sub.M / math.factorial(sub.p + 1) * r ** (sub.p + 1) + phi[0] - phi_base
    reg_grad = c * r ** (sub.p - 1) * Bu
    return val, mgrad + reg_grad + phi[1], [(c, sub.p, r, Bu)] + phi[2], (phi, mgrad, reg_grad, r)


def assemble_step_hessian(H, sub: Subproblem, base: SmoothData, terms, shift):
    """Write base.hess + (shift + sum_j c_j alpha_j) B + sum_j c_j beta_j (Bw_j)(Bw_j)^T
    into H, upper part.

    (shift + sum_j c_j alpha_j) B^T + base.hess^T fills the F-ordered H in two
    contiguous passes (both are symmetric and C-ordered); a BLAS syr adds each
    rank-one term.  A shift of 0.0 leaves every bit of H as without it.  Returns H.
    """
    coef = [(c, *power_coefficients(r, q), Bw) for c, q, r, Bw in terms]
    np.multiply(sub.metric.matrix.T, shift + sum(c * alpha for c, alpha, _, _ in coef), out=H)
    H += base.hess.T
    for c, _, beta, Bw in coef:
        if beta:
            _syr(c * beta, Bw, a=H, overwrite_a=True)
    return H


def minimize_model_newton(sub: Subproblem, base: SmoothData, base_phi, tol, radius_hint):
    """Damped Newton on the step objective from ``base.x``, to dual gradient norm <= tol.

    The start is built from ``base_phi``, phi's evaluation at base.x as
    :meth:`Subproblem.phi` gives it, to bitwise what :func:`model_objective`
    gives there: at u = 0 the value is 0, the model gradient grad g(x) + H*0,
    and the regularizer's gradient and Hessian vanish, so a first step from there
    would see no cubic curvature.  ``radius_hint``, a guess r of ||T - x||, adds
    the regularizer's curvature at r, M/p! r^{p-1} B, to the first Hessian only:
    the exact single-center cubic step solves (H + M/2 r* B) u = -g at its own
    radius r* (Cartis, Gould & Toint 2011, section 6), and a hint of 0.0 gives
    bitwise the cold step.  Every later point is evaluated once: its norms and
    B-products serve value, gradient and Hessian,
    the model Hessian plus a multiple of B plus at most three rank-one terms
    (Bw)(Bw)^T, assembled in one F-ordered buffer and factored in place by
    :func:`cholesky_solve`, which reassembles it for a jittered retry.
    Backtracks on the increment value with a round-off allowance, and takes a
    full step that halves the residual without a measurable decrease; three
    iterations without a better residual (a round-off floor) end the solve at
    the best point, as a failed line search does.  Returns (y, residual, iters,
    at), ``at`` being :func:`model_objective`'s at y.
    """
    phi_base, phi_grad, terms = base_phi
    y, val, model_grad = base.x.copy(), 0.0, base.grad + 0.0
    grad, at = model_grad + phi_grad, (base_phi, model_grad, np.zeros_like(model_grad), 0.0)
    H = np.empty((y.size, y.size), order="F")
    best_y, best_res, best_at, stalled = y, math.inf, at, 0
    shift = sub.M / math.factorial(sub.p) * power_coefficients(radius_hint, sub.p)[0]
    for it in range(NEWTON_CAP):
        res = sub.metric.dual_norm(grad)
        stalled = 0 if res < best_res else stalled + 1
        if res < best_res:
            best_y, best_res, best_at = y, res, at
        if res <= tol:
            return y, res, it, at
        if stalled == 3:
            return best_y, best_res, it, best_at
        assemble = functools.partial(assemble_step_hessian, H, sub, base, terms, shift)
        try:
            step = -cholesky_solve(assemble(), grad, refill=assemble)
        except scipy.linalg.LinAlgError:
            raise SolverError("step Hessian could not be factorized") from None
        shift = 0.0
        slope = float(grad.dot(step))
        if slope >= 0.0:  # numerically non-descent; fall back to steepest
            step = -sub.metric.solve(grad)
            slope = float(grad.dot(step))
        t = 1.0
        noise = 1e-14 * (abs(val) + 1.0)
        for _ in range(60):
            y_trial = y + t * step
            val_t, grad_t, terms_t, at_t = model_objective(sub, base, y_trial, phi_base)
            # near the minimizer the decrease falls below the round-off of phi's
            # Bregman term, a difference of far larger numbers; a full step that
            # halves the residual is then taken on the residual alone
            if (val_t <= val + 1e-4 * t * slope + noise
                    or (t == 1.0 and sub.metric.dual_norm(grad_t) <= 0.5 * res)):
                break
            t *= 0.5
        else:
            return best_y, best_res, it, best_at
        y, val, grad, terms, at = y_trial, val_t, grad_t, terms_t, at_t
    raise SolverError(f"step Newton sub-minimizer exceeded {NEWTON_CAP} iterations "
                      f"(residual {sub.metric.dual_norm(grad):.3e}, tol {tol:.3e})")


def _closed_form_order1(sub: Subproblem, base: SmoothData):
    # M*B(T-x) + grad g(x) + [affine grad phi](T) = 0  =>  one B-solve
    coeff, combo = sub.affine
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
    the benchmark tracer's ``SPAN_TARGETS`` names it.  It imports brentq itself,
    so ``import contraprox`` loads no ``scipy.optimize``; ``import scipy.optimize``
    here would make ``scipy`` local and break the ``scipy.linalg`` calls.
    """
    from scipy.optimize import brentq
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
        r = brentq(radius_gap, r_lo, r_hi, xtol=1e-280, rtol=8.9e-16)
        u = -(c / (lam + 0.5 * M * r))
    step = scipy.linalg.solve_triangular(metric.chol().T, V @ u, lower=False) \
        if not metric.is_identity else V @ u
    return base.x + step


def tensor_step(sub: Subproblem, base: SmoothData, base_phi, inner_tol, radius_hint):
    """Minimize the order-p regularized model around ``base``.

    A p = 1 step is a closed-form linear solve.  A p = 2 step runs damped
    Newton (:func:`minimize_model_newton`) from ``base_phi``, phi's evaluation
    at base.x, until the step objective's dual gradient norm is at most
    ``inner_tol``, its first iteration warm-started by ``radius_hint``, a finite
    guess r >= 0 of ||T - base.x|| (0.0 is the cold start; see
    :func:`extrapolated_radius`).  The model is ``base``'s, so ``base.hess``
    must be set exactly when p = 2; a subproblem neither can solve was already
    rejected when it was built (see :class:`Subproblem`).  Returns (T, sub-minimizer
    residual, Newton iterations, at), (T, 0.0, 0, at) at p = 1, ``at`` being
    :func:`model_objective`'s at T, but for phi's gradient and terms at p = 1,
    which are None.
    """
    if not inner_tol > 0:
        raise ValueError("inner_tol must be positive")
    if not 0.0 <= radius_hint < math.inf:
        raise ValueError(f"radius_hint must be finite and nonnegative, not {radius_hint!r}")
    if (base.hess is not None) != (sub.p == 2):
        raise ValueError("an order-2 step needs Hessian data, and only an order-2 step")
    if sub.p == 2:
        return minimize_model_newton(sub, base, base_phi, inner_tol, radius_hint)
    T = _closed_form_order1(sub, base)
    u = T - base.x
    # M * B u is model_objective's regularizer gradient at p = 1: c * r^0 is c exactly;
    # the next closed form needs nothing of phi at its base, so phi's value is all it gets
    return T, 0.0, 0, ((sub.phi_value(T), None, None), base.grad, sub.M * sub.metric.apply(u),
                       sub.metric.norm(u))


def extrapolated_radius(last, before):
    """The radius guess r_{k-1}^2 / r_{k-2} of step k from the two steps before it.

    ``last`` and ``before`` are r_{k-1} and r_{k-2}, 0.0 where there is none;
    without r_{k-2} (or where the ratio overflows) the guess is r_{k-1}, so the
    first step and a step after a zero step start cold.  On lse-p2's seed-0
    instance sets the plain r_{k-1} saved cn and acn about two thirds of the
    factorizations this trend saves.
    """
    hint = last * last / before if before > 0.0 else last
    return hint if hint < math.inf else last


class InnerLoopError(SolverError):
    """The inner loop hit its step cap before a delta-small subgradient."""


def model_steps(sub: Subproblem, z0, tol, warm):
    """Regularized model steps on h = g + phi from z0, each solved to ``tol``.

    Yields (data, h, certified norm, row): (data, h(z0), ||grad h(z0)||_*, None)
    at z0, then per step z -> T (data at T, h(T), ||s||_* + residual, row), row
    being ``trace.STEP_FIELDS`` after k: (t, h(z), h(T), ||T - z||, ||s||_*,
    residual, <s, z - T>).  The step's optimality condition makes
    s = grad g(T) - grad Omega_p(g, z; T) - M/p! ||T-z||^{p-1} B(T-z), from the
    step's own evaluation at T, a subgradient of h at T for an exact step;
    adding the residual keeps the norm a certificate for an inexact one.  Each
    point costs one first-order query and one evaluation of phi, z0's here and
    each T's by the step that ends there, which the next step starts from; each
    step at order p >= 2 costs one Hessian at its base, taken only when the
    consumer asks for that step.

    With ``warm`` (cn), each step's Newton starts at the radius that
    :func:`extrapolated_radius` predicts from the steps before it.  cptm's inner
    steps run cold: phi's divergence term already gives the Newton curvature at
    the base, and on lse-p2 seed 0 a hint raised cptm-p2's Newton iterations
    from 2,106 to 2,463.
    """
    data = sub.smooth.data(z0)
    phi = sub.phi(data.x)
    h = data.value + phi[0]
    yield data, h, sub.metric.dual_norm(data.grad + phi[1]), None
    last = before = 0.0
    for t in itertools.count(1):
        if sub.p >= 2:
            data.hess = sub.smooth.hess(data.x)
        hint = extrapolated_radius(last, before) if warm else 0.0
        T, residual, _, (phi_T, model_grad, reg_grad, step_norm) = tensor_step(sub, data, phi,
                                                                                tol, hint)
        data_T = sub.smooth.data(T)
        s = data_T.grad - model_grad - reg_grad
        s_dual = sub.metric.dual_norm(s)
        h_T = data_T.value + phi_T[0]
        yield (data_T, h_T, s_dual + residual,
               (t, h, h_T, step_norm, s_dual, residual, float(s.dot(data.x - T))))
        data, h, phi = data_T, h_T, phi_T
        before, last = last, step_norm


def inner_loop(sub: Subproblem, z0, delta, cap):
    """:func:`model_steps` from z0, each to delta/10, until its norm is at most delta.

    Returns (point, certified norm, rows of the steps taken), so the exit point
    and a start point that already meets delta are never charged a Hessian.
    Raises :class:`InnerLoopError` after ``cap`` steps without one, which in a
    correctly configured run means the Lipschitz estimate is wrong.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    steps = []
    for data, _, s_norm, row in model_steps(sub, z0, delta / 10.0, False):
        if row is not None:
            steps.append(row)
        if s_norm <= delta:
            return data.x, s_norm, steps
        if len(steps) >= cap:
            raise InnerLoopError(
                f"inner loop hit its cap of {cap} steps (last certified norm "
                f"{s_norm:.3e}, target {delta:.3e}); check the Lipschitz estimate")
