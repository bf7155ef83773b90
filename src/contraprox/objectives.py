"""Composite objectives F = f + psi with counted oracle access.

Two experiment families ship: a quadratic with a sigmoid-shaped spectrum whose
condition ratio is set exactly, and a log-sum-exp objective measured in the
norm induced by B = sum_i a_i a_i^T.  Both are generated deterministically
from a seed and carry a JSON-serializable descriptor so any run can be rebuilt
bit-for-bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .bregman import ProxFunction, power_hessian
from .metric import Metric, cholesky_solve

REFERENCE_TOL = 1e-12    # dual gradient norm of every cached reference optimum
REFERENCE_CAP = 200      # damped Newton iterations allowed for one reference solve


class SolverError(RuntimeError):
    """A solver failed to reach its target within its iteration budget."""


@dataclass
class OracleCounters:
    value: int = 0
    grad: int = 0
    hess: int = 0
    matvec: int = 0


class SmoothOracle:
    """Counted access to f, grad f and (optionally) hess f.

    ``lipschitz[p]`` is the Lipschitz estimate of the p-th derivative in the
    instance's norm.  ``taylor_data(x, 1)`` is the first-order query a model
    step makes, value and gradient in one call, so a point queried once is
    charged once; it serves order 1 only.  ``hess(x)`` is the Hessian alone,
    for a caller that already holds the first-order data at x.  Every order-2
    caller (cptm's inner loop, cn and acn) builds the Hessian that way, lazily,
    only at the points its steps start from.
    """

    dim: int
    lipschitz: dict

    def __init__(self):
        self.counters = OracleCounters()

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)

    def hess(self, x):
        raise NotImplementedError

    def taylor_data(self, x, order):
        """(f(x), grad f(x)); ``order`` must be 1."""
        if order != 1:
            raise ValueError(f"taylor_data serves order 1 only, not {order!r}")
        return self.value_and_grad(x)


class QuadraticOracle(SmoothOracle):
    """f(x) = 1/2 <Ax, x> - <b, x> with L_1 = ``lam_max``, the largest eigenvalue of A;
    every application of A bumps the matvec counter."""

    def __init__(self, A, b, lam_max):
        super().__init__()
        self.matrix = np.asarray(A, dtype=float)
        self.rhs = np.asarray(b, dtype=float)
        self.dim = self.rhs.shape[0]
        # the quadratic has an exactly constant Hessian, so order 2 is free
        self.lipschitz = {1: lam_max, 2: 0.0}

    def value(self, x):
        self.counters.value += 1
        self.counters.matvec += 1
        return 0.5 * float(x.dot(self.matrix.dot(x))) - float(self.rhs.dot(x))

    def grad(self, x):
        self.counters.grad += 1
        self.counters.matvec += 1
        return self.matrix.dot(x) - self.rhs

    def value_and_grad(self, x):
        self.counters.value += 1
        self.counters.grad += 1
        self.counters.matvec += 1
        ax = self.matrix.dot(x)
        return 0.5 * float(x.dot(ax)) - float(self.rhs.dot(x)), ax - self.rhs

    def hess(self, x):
        self.counters.hess += 1
        return self.matrix


class LogSumExpOracle(SmoothOracle):
    """f(x) = mu * log(sum_i exp((<a_i, x> - b_i)/mu)) with an analytic Hessian."""

    def __init__(self, A, b, mu, lipschitz_order2):
        super().__init__()
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.data = np.asarray(A, dtype=float)
        self.shift = np.asarray(b, dtype=float)
        self.mu = float(mu)
        self.dim = self.data.shape[1]
        # 1/mu bounds the Hessian in the B = A^T A norm; L_2 is configurable
        # (2/mu^2 is a certified bound, 1.0 mirrors the practical setting)
        self.lipschitz = {1: 1.0 / self.mu, 2: float(lipschitz_order2)}
        # (x, pi, g) of the last taylor_data query, for hess at the same x
        self._last = None

    def _weights(self, x):
        u = (self.data @ x - self.shift) / self.mu
        umax = u.max()
        w = np.exp(u - umax)
        s = w.sum()
        return umax, w / s, s

    def value(self, x):
        self.counters.value += 1
        umax, _, s = self._weights(x)
        return self.mu * (umax + math.log(s))

    def grad(self, x):
        self.counters.grad += 1
        _, pi, _ = self._weights(x)
        return self.data.T @ pi

    def value_and_grad(self, x):
        self.counters.value += 1
        self.counters.grad += 1
        umax, pi, s = self._weights(x)
        return self.mu * (umax + math.log(s)), self.data.T @ pi

    def _hessian(self, pi, g):
        # W^T W with W = diag(sqrt(pi)) A goes to BLAS syrk: half the flops of
        # the gemm form A^T diag(pi) A, and an exactly symmetric result
        W = self.data * np.sqrt(pi)[:, None]
        return (W.T @ W - np.outer(g, g)) / self.mu

    def hess(self, x):
        self.counters.hess += 1
        if self._last is not None and np.array_equal(self._last[0], x):
            return self._hessian(*self._last[1:])
        _, pi, _ = self._weights(x)
        return self._hessian(pi, self.data.T @ pi)

    def taylor_data(self, x, order):
        """(f(x), grad f(x)), kept for a Hessian at x; ``order`` must be 1."""
        if order != 1:
            raise ValueError(f"taylor_data serves order 1 only, not {order!r}")
        umax, pi, s = self._weights(x)
        self.counters.value += 1
        self.counters.grad += 1
        g = self.data.T @ pi
        self._last = (np.array(x, dtype=float), pi, g.copy())
        return self.mu * (umax + math.log(s)), g


class ZeroComponent:
    """psi = 0: plain convexity (modulus 0) and no prox."""

    modulus, prox, is_zero = 0.0, None, True

    def __init__(self, dim):
        self.dim = dim

    def value(self, x):
        return 0.0

    def subgrad(self, x):
        return np.zeros(self.dim)

    def hess(self, x):
        return np.zeros((self.dim, self.dim))


class PowerRegularizer:
    """psi = sigma * d for a prox function d; certified modulus sigma relative to d.

    Scaling a prox by sigma scales its divergence by sigma, so the
    strong-convexity inequality relative to d holds with equality.
    """

    is_zero = False

    def __init__(self, sigma, prox: ProxFunction):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.prox = prox
        self.modulus = self.sigma

    def value(self, x):
        return self.sigma * self.prox.value(x)

    def subgrad(self, x):
        return self.sigma * self.prox.gradient(x)

    def hess(self, x):  # the reference Newton's; a step takes psi as a power term
        u = np.asarray(x, float) - self.prox.center
        return self.sigma * power_hessian(self.prox.metric, u, self.prox.order)


def power_regularizer_component(sigma, prox):
    """Simple component psi = sigma*d with its certified modulus attached."""
    return PowerRegularizer(sigma, prox)


@dataclass
class CompositeObjective:
    """Oracle bundle for F = f + psi plus the geometry the solvers use."""

    smooth: SmoothOracle
    simple: ZeroComponent | PowerRegularizer
    metric: Metric
    fstar: float | None = None
    xstar: np.ndarray | None = None
    descriptor: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.smooth.dim

    @property
    def counters(self):
        return self.smooth.counters

    def value(self, x):
        return self.smooth.value(x) + self.simple.value(x)

    def grad(self, x):
        return self.smooth.grad(x) + self.simple.subgrad(x)

    def fresh(self):
        """Shallow copy with zeroed counters; data arrays stay shared."""
        smooth = copy.copy(self.smooth)
        smooth.counters = OracleCounters()
        return CompositeObjective(smooth, self.simple, self.metric,
                                  self.fstar, self.xstar, dict(self.descriptor))

    def with_simple(self, simple):
        """A fresh copy with psi replaced, and no f* or x*: both move with psi, and a
        run stops on F(x_k) - f* <= eps, so ``attach_reference`` must add them."""
        return CompositeObjective(self.smooth, simple, self.metric,
                                  descriptor=self.descriptor).fresh()


def sigmoid_spectrum(n, alpha):
    """Eigenvalues 1/(1 + exp(alpha*(n+1-2i)/(n-1))), i = 1..n (increasing)."""
    if n < 2:
        raise ValueError("n must be >= 2 (the spectrum formula divides by n-1)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    i = np.arange(1, n + 1)
    return 1.0 / (1.0 + np.exp(alpha * (n + 1 - 2 * i) / (n - 1)))


def alpha_for_condition_ratio(q):
    """alpha in [1e-12, 80] whose spectrum ratio, (1 + e^-alpha)/(1 + e^alpha) = e^-alpha, is q."""
    if not math.exp(-80.0) < q < math.exp(-1e-12):
        raise ValueError(f"condition ratio q must lie in ({math.exp(-80.0):.3g}, "
                         f"{math.exp(-1e-12)!r}), not {q!r}")
    return -math.log(q)


def quadratic_instance(n, alpha, seed):
    """Quadratic test problem with sigmoid spectrum and a random orthogonal basis.

    f(x) = 1/2 <Ax,x> - <b,x> with A = Q diag(lam) Q^T, psi = 0, B = I, and the
    closed-form optimum attached.  Q comes from a QR factorization of a seeded
    Gaussian matrix.  The right-hand side plants a seeded uniform solution
    (b = A x*), which keeps the energy of the slow eigenmodes bounded; drawing
    b directly would concentrate nearly all of the initial residual on the
    smallest eigenvalues and erase the methods' characteristic orderings.
    """
    lam = sigmoid_spectrum(n, alpha)
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    xstar = rng.uniform(-1.0, 1.0, n)
    b = A @ xstar
    fstar = 0.5 * float(xstar @ (A @ xstar)) - float(b @ xstar)
    smooth = QuadraticOracle(A, b, lam_max=float(lam[-1]))
    descriptor = {
        "problem": "quadratic", "n": int(n), "alpha": float(alpha), "seed": int(seed),
        "lambda_min": float(lam[0]), "lambda_max": float(lam[-1]),
        "condition_ratio": float(lam[0] / lam[-1]), "fstar": fstar,
    }
    return CompositeObjective(smooth, ZeroComponent(n), Metric.identity(n),
                              fstar=fstar, xstar=xstar, descriptor=descriptor)


def lse_instance(n, mu, seed, lipschitz_order2):
    """Log-sum-exp test problem, m = 6n, coefficients seeded uniform on [-1, 1].

    The primal norm is taken from B = sum_i a_i a_i^T (regularized by 1e-10*I
    if rank-deficient), which puts the Hessian bound at 1/mu exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be positive")
    m = 6 * n
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (m, n))
    b = rng.uniform(-1.0, 1.0, m)
    B = A.T @ A
    try:
        metric = Metric(B)
        regularized = False
    except ValueError:
        metric = Metric(B + 1e-10 * np.eye(n))
        regularized = True
    smooth = LogSumExpOracle(A, b, mu, lipschitz_order2=lipschitz_order2)
    descriptor = {
        "problem": "lse", "n": int(n), "m": int(m), "mu": float(mu), "seed": int(seed),
        "lipschitz_order2": float(lipschitz_order2), "metric_regularized": regularized,
    }
    return CompositeObjective(smooth, ZeroComponent(n), metric, descriptor=descriptor)


def _newton_reference(obj):
    """Damped Newton on F to dual gradient norm <= REFERENCE_TOL (second-order oracles);
    each SolverError, the one at REFERENCE_CAP iterations too, names the norm reached."""
    x = np.zeros(obj.dim)
    fval = obj.value(x)
    for _ in range(REFERENCE_CAP):
        g = obj.grad(x)
        if obj.metric.dual_norm(g) <= REFERENCE_TOL:
            return x, fval
        try:
            step = -cholesky_solve(obj.smooth.hess(x) + obj.simple.hess(x), g)
        except np.linalg.LinAlgError:
            raise SolverError(f"reference Newton could not factor the Hessian at dual "
                              f"gradient norm {obj.metric.dual_norm(g):.3e}") from None
        t = 1.0
        slope = float(g @ step)
        noise = 1e-14 * (abs(fval) + 1.0)
        for _ in range(60):
            trial = obj.value(x + t * step)
            if trial <= fval + 1e-4 * t * slope + noise:
                break
            t *= 0.5
        else:
            raise SolverError(f"reference Newton line search failed at dual gradient norm "
                              f"{obj.metric.dual_norm(g):.3e} (tol {REFERENCE_TOL})")
        x = x + t * step
        fval = trial
    raise SolverError(f"reference Newton exceeded {REFERENCE_CAP} iterations at dual gradient "
                      f"norm {obj.metric.dual_norm(obj.grad(x)):.3e} (tol {REFERENCE_TOL})")


def reference_optimum(obj):
    """Most accurate available solve of the instance: (xhat, F(xhat)).

    Quadratic-plus-order-1-psi instances use a closed-form linear solve;
    everything else runs a damped Newton until the dual gradient norm is
    at most REFERENCE_TOL.
    """
    smooth = obj.smooth
    simple = obj.simple
    if (isinstance(smooth, QuadraticOracle) and isinstance(simple, PowerRegularizer)
            and simple.prox.order == 1):
        B = simple.prox.metric.matrix
        c = simple.prox.center
        H = smooth.matrix + simple.sigma * B
        x = np.linalg.solve(H, smooth.rhs + simple.sigma * (B @ c))
        fx = 0.5 * float(x @ smooth.matrix @ x) - float(smooth.rhs @ x)
        return x, fx + simple.value(x)
    work = obj.fresh()
    return _newton_reference(work)


def attach_reference(obj):
    """Compute and cache (xstar, fstar) on the instance and its descriptor, to REFERENCE_TOL."""
    if obj.fstar is None or obj.xstar is None:
        x, f = reference_optimum(obj)
        obj.xstar = x
        obj.fstar = f
        obj.descriptor["fstar"] = f
    return obj
