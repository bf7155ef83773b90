"""Distance-generating functions and their Bregman divergences.

The shipped family is the power prox d(x) = ||x - x0||^{p+1}/(p+1), uniformly
convex of degree p+1 with constant 2^{1-p} for the B-induced norm.  Anything
exposing (value, gradient, order, uniform-convexity constant) works in its
place; see :class:`CustomProx`.
"""

from __future__ import annotations

import numpy as np

from .metric import Metric, pairing


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

        Nonnegative by convexity; tiny negative round-off is clipped to 0.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        val = self.value(y) - self.value(x) - pairing(self.gradient(x), y - x)
        if val < 0.0:
            scale = abs(self.value(x)) + abs(self.value(y)) + 1.0
            if val < -1e-8 * scale:
                raise ArithmeticError(f"divergence came out negative ({val}); prox not convex?")
            val = 0.0
        return val


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


def power_hessian(metric, u, p):
    """Hessian of ||u||^{p+1}/(p+1) in the metric's norm.

    r^{p-1} B + (p-1) r^{p-3} (Bu)(Bu)^T with r = ||u||; it is B at p = 1 and
    vanishes at u = 0 for p >= 2.
    """
    B = metric.matrix
    if p == 1:
        return B
    r = metric.norm(u)
    if r == 0.0:
        return np.zeros_like(B)
    Bu = metric.apply(u)
    return r ** (p - 1) * B + (p - 1) * r ** (p - 3) * np.outer(Bu, Bu)


class CustomProx(ProxFunction):
    """Adapter for any (value, gradient, sigma) triple, e.g. entropy-like proxes."""

    def __init__(self, value_fn, gradient_fn, order, uniform_constant, center, metric):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self.order = int(order)
        self.uniform_constant = float(uniform_constant)
        self.center = np.asarray(center, dtype=float)
        self.metric = metric

    def value(self, x):
        return float(self._value_fn(np.asarray(x, float)))

    def gradient(self, x):
        return np.asarray(self._gradient_fn(np.asarray(x, float)), dtype=float)

