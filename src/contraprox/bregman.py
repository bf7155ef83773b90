"""Distance-generating functions and their Bregman divergences.

The power prox d(x) = ||x - x0||^{p+1}/(p+1), uniformly convex of degree p+1
with constant 2^{1-p} for the metric's Euclidean norm, is the one family the tensor
steps solve (their closed form and Newton Hessian are this family's), so a
step subproblem built on any other prox is rejected when it is built.  Its
Hessian has one formula, the (alpha, beta) of :func:`power_coefficients`.
"""

from __future__ import annotations

import numpy as np

from .metric import Metric


class ProxFunction:
    """Differentiable strictly convex distance generator.

    Subclasses provide ``value`` and ``gradient``; the divergence is derived
    here.  ``uniform_constant`` is the constant sigma with
    divergence(x; y) >= sigma/(p+1) * ||x-y||^{p+1}.
    """

    order: int
    center: np.ndarray
    metric: Metric
    uniform_constant: float

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def divergence(self, x, y):
        """Bregman divergence centered at x: d(y) - d(x) - <grad d(x), y - x>.

        Nonnegative by convexity; tiny negative round-off is clipped to 0.  x and
        y must have ``center``'s shape, else ``ValueError``.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != self.center.shape or y.shape != self.center.shape:
            raise ValueError(f"divergence needs points of shape {self.center.shape}, "
                             f"not {x.shape} and {y.shape}")
        return divergence_from(self.linearization(x), y, self.value(y))

    def linearization(self, x):
        """(x, d(x), grad d(x)): what a divergence centered at x needs of d there."""
        return x, self.value(x), self.gradient(x)


class PowerProx(ProxFunction):
    """d(x) = ||x - center||^{p+1} / (p+1) in the metric's norm."""

    def __init__(self, order, center, metric):
        if order < 1:
            raise ValueError("order must be an integer >= 1")
        self.order = int(order)
        self.center = np.asarray(center, dtype=float)
        self.metric = metric
        if self.center.shape != (metric.dim,):
            raise ValueError("center dimension does not match the metric")
        self.uniform_constant = 2.0 ** (1 - self.order)

    def value(self, x):
        r = self.metric.norm(np.asarray(x, float) - self.center)
        return r ** (self.order + 1) / (self.order + 1)

    def gradient(self, x):
        u = np.asarray(x, dtype=float) - self.center
        # order 1 short-circuits so ||u||^0 never evaluates as 0^0 at the center
        if self.order == 1:
            return self.metric.apply(u)
        r = self.metric.norm(u)
        return r ** (self.order - 1) * self.metric.apply(u)

    def at(self, x):
        """(r, Bw, value, gradient) at x, w = x - center: one norm and one metric product."""
        w = np.asarray(x, dtype=float) - self.center
        r, Bw, q = self.metric.norm(w), self.metric.apply(w), self.order
        return r, Bw, r ** (q + 1) / (q + 1), Bw if q == 1 else r ** (q - 1) * Bw

    def linearization(self, x):
        """(x, d(x), grad d(x)) from one :meth:`at`, bitwise ``value`` and ``gradient``."""
        return (x, *self.at(x)[2:])


def divergence_from(linearization, y, d_y):
    """d(y) - d(x) - <grad d(x), y - x> from (x, d(x), grad d(x)) and d(y).

    Nonnegative by convexity; tiny negative round-off is clipped to 0, and a
    value below -1e-8 (|d(x)| + |d(y)| + 1) raises ``ArithmeticError``.
    """
    x, d_x, grad_x = linearization
    val = d_y - d_x - float(grad_x.dot(y - x))
    if val < 0.0:
        if val < -1e-8 * (abs(d_x) + abs(d_y) + 1.0):
            raise ArithmeticError(f"divergence came out negative ({val}); prox not convex?")
        val = 0.0
    return val


def power_coefficients(r, p):
    """(alpha, beta) with Hessian alpha*I + beta*u u^T of ||u||^{p+1}/(p+1), r = ||u||.

    alpha = r^{p-1} and beta = (p-1) r^{p-3}: (1, 0) at p = 1, (0, 0) at r = 0.
    """
    if p == 1:
        return 1.0, 0.0
    if r == 0.0:
        return 0.0, 0.0
    return r ** (p - 1), (p - 1) * r ** (p - 3)


def power_hessian(metric, u, p):
    """Dense Hessian of ||u||^{p+1}/(p+1) in the metric norm, by :func:`power_coefficients`."""
    alpha, beta = power_coefficients(metric.norm(u), p)
    u = metric.apply(u)
    return alpha * np.eye(u.size) + beta * np.outer(u, u)
