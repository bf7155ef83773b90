"""Contracting proximal outer loop with certified inexact inner solves.

Each outer iteration minimizes the contracted objective
    h_{k+1}(x) = A_{k+1} f((a_{k+1} x + A_k x_k)/A_{k+1}) + a_{k+1} psi(x)
               + gamma_k * divergence(v_k; x)
to a subgradient of dual norm at most delta_{k+1}, then moves along the
segment [x_k, v_{k+1}].  Coefficient schedules, inner-accuracy schedules, the
runtime certificate bound and the order-dependence formulas all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bregman import ProxFunction
from .objectives import CompositeObjective
from .tensor_steps import CompositePart, ContractedSmooth, Subproblem, inner_loop
from .trace import drive


@dataclass
class OuterState:
    """Full state of the outer loop after k iterations."""

    k: int
    A: float
    gamma: float
    x: np.ndarray
    v: np.ndarray


class SublinearSchedule:
    """a_{k+1} = c (p+1) (k+1)^p, so A_k grows like c*k^{p+1}."""

    kind = "sublinear"

    def __init__(self, c, p):
        if not c > 0:
            raise ValueError("c must be positive")
        self.c = float(c)
        self.p = int(p)

    def next_a(self, k, A):
        return self.c * (self.p + 1) * (k + 1) ** self.p

    def lower(self, k):
        return self.c * k ** (self.p + 1)

    def upper(self, k):
        return self.c * (k + 1) ** (self.p + 1)

    def describe(self):
        return {"kind": self.kind, "c": self.c, "p": self.p}


class GeometricSchedule:
    """a_{k+1} = omega/(1-omega) * A_k after a sublinear first coefficient."""

    kind = "geometric"

    def __init__(self, omega, c, p):
        if not 0.0 < omega <= 0.5:
            raise ValueError("omega must lie in (0, 1/2]")
        if not c > 0:
            raise ValueError("c must be positive")
        self.omega = float(omega)
        self.c = float(c)
        self.p = int(p)

    def next_a(self, k, A):
        if k == 0:
            return self.c * (self.p + 1)
        return self.omega / (1.0 - self.omega) * A

    def describe(self):
        return {"kind": self.kind, "omega": self.omega, "c": self.c, "p": self.p}


def schedule_constant(p, gamma0, lipschitz):
    """The growth constant c = p! gamma0 / (2^{p-1} (p+1)^{p+2} L_p(f))."""
    return math.factorial(p) * gamma0 / (2.0 ** (p - 1) * (p + 1) ** (p + 2) * lipschitz)


def schedule_convex(p, gamma0, lipschitz):
    """Sublinear coefficient schedule keeping the inner condition ratio at most 1."""
    if not (gamma0 > 0 and lipschitz > 0):
        raise ValueError("gamma0 and the Lipschitz constant must be positive")
    return SublinearSchedule(schedule_constant(p, gamma0, lipschitz), p)


def contraction_rate(p, sigma, lipschitz):
    """omega = min{ (sigma p! / (L_p (p+1) 2^{p-1}))^{1/(p+1)}, 1/2 }."""
    return min((sigma * math.factorial(p) / (lipschitz * (p + 1) * 2.0 ** (p - 1)))
               ** (1.0 / (p + 1)), 0.5)


def schedule_strongly_convex(p, sigma, lipschitz, gamma0=1.0):
    """Geometric coefficient schedule for psi strongly convex relative to d."""
    if not sigma > 0:
        raise ValueError("sigma must be positive for the geometric schedule")
    omega = contraction_rate(p, sigma, lipschitz)
    return GeometricSchedule(omega, schedule_constant(p, gamma0, lipschitz), p)


class ConstantDelta:
    kind = "constant"

    def __init__(self, delta):
        if not delta > 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    def resolve(self, run):
        return lambda k: self.delta

    def describe(self):
        return {"kind": self.kind, "delta": self.delta}


class PowerDelta:
    """delta_k = c / k^s with s > 1, so the accuracy series stays summable."""

    kind = "power"

    def __init__(self, c=1.0, s=2.0):
        if not c > 0:
            raise ValueError("c must be positive")
        if not s > 1:
            raise ValueError("s must exceed 1 for a summable accuracy series")
        self.c = float(c)
        self.s = float(s)

    def resolve(self, run):
        return lambda k: self.c / k ** self.s

    def describe(self):
        return {"kind": self.kind, "c": self.c, "s": self.s}


class TheoremConvexDelta:
    """The fixed accuracy that certifies the target residual in the convex case."""

    kind = "theorem_convex"

    def __init__(self, eps):
        if not eps > 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def resolve(self, run):
        delta = convex_inner_accuracy(run["p"], run["gamma0"], run["lipschitz"], self.eps)
        return lambda k: delta

    def describe(self):
        return {"kind": self.kind, "eps": self.eps}


class TheoremStronglyConvexDelta:
    kind = "theorem_strongly_convex"

    def __init__(self, eps):
        if not eps > 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def resolve(self, run):
        delta = strongly_convex_inner_accuracy(
            run["p"], run["gamma0"], run["lipschitz"], run["omega"], self.eps)
        return lambda k: delta

    def describe(self):
        return {"kind": self.kind, "eps": self.eps}


def contraction_point(a, A_prev, v, x_prev):
    """x_{k+1} = (a v + A_prev x_prev) / (A_prev + a)."""
    if a <= 0:
        raise ValueError("a must be positive")
    return (a * np.asarray(v, float) + A_prev * np.asarray(x_prev, float)) / (A_prev + a)


def inexact_certificate_bound(p, gamma0, sigma_simple, bregman0, sigma_uniform,
                              deltas, A_values):
    """Certified upper bound on the residual-plus-divergence sum after k steps.

    ``deltas[i]`` is the dual norm certified at iteration i+1 and
    ``A_values[i]`` the corresponding A_{i+1}; gamma_i is reconstructed from
    its telescoped form gamma0 + sigma_simple * A_i.
    """
    deltas = np.asarray(deltas, dtype=float)
    A_values = np.asarray(A_values, dtype=float)
    if deltas.shape != A_values.shape:
        raise ValueError("deltas and A_values must have matching lengths")
    gammas = gamma0 + sigma_simple * A_values
    acc = float(np.sum(deltas / gammas ** (1.0 / (p + 1))))
    head = (gamma0 * bregman0) ** (p / (p + 1.0))
    tail = ((p + 1.0) / sigma_uniform) ** (1.0 / (p + 1)) * acc
    return (head + tail) ** ((p + 1.0) / p)


def convex_inner_accuracy(p, gamma0, lipschitz, eps):
    """Inner accuracy certifying an eps-residual under the sublinear schedule."""
    return ((math.factorial(p) * eps / lipschitz) ** (p / (p + 1.0))
            * gamma0 / (2.0 ** p * (p + 1) ** (p + 1)))


def complexity_convex(p, gamma0, lipschitz, bregman0, eps):
    """(delta, K, oracle bound) for the convex case at target residual eps."""
    if min(p, gamma0, lipschitz, bregman0, eps) <= 0:
        raise ValueError("all arguments must be positive")
    delta = convex_inner_accuracy(p, gamma0, lipschitz, eps)
    K = math.floor(1.0 + 2.0 ** (1.0 / p) * (
        2.0 ** (p - 1) * (p + 1) ** (p + 2) * lipschitz * bregman0
        / (eps * math.factorial(p))) ** (1.0 / (p + 1)))
    nk = K * (3.0 + (p + 1.0) / p * math.log(
        4.0 * (1.0 + 1.0 / gamma0) * (p + 1) ** (1.0 / p) * K ** p))
    return delta, K, nk


def strongly_convex_inner_accuracy(p, gamma0, lipschitz, omega, eps):
    return ((math.factorial(p) * eps / lipschitz) ** (p / (p + 1.0))
            * gamma0 * p * omega
            / (2.0 ** p * (p + 1) ** (((p + 1) ** 2 + 1.0) / (p + 1))))


def strongly_convex_log_term(p, lipschitz, bregman0, omega, eps):
    return math.log(max(
        (p + 1.0) ** p / omega ** (p + 1),
        lipschitz * bregman0 * (p + 1) ** (p + 1) * 2.0 ** (p + 1.0 / p)
        / (math.factorial(p) * eps)))


def geometric_iteration_count(omega, log_term):
    """K = floor(2 + log_term / omega), the geometric-phase iteration budget."""
    return math.floor(2.0 + log_term / omega)


def complexity_strongly_convex(p, gamma0, lipschitz, sigma, bregman0, eps):
    """(delta, K, oracle bound) for psi strongly convex relative to d."""
    if min(p, gamma0, lipschitz, bregman0, eps) <= 0 or sigma <= 0:
        raise ValueError("all arguments must be positive")
    omega = contraction_rate(p, sigma, lipschitz)
    delta = strongly_convex_inner_accuracy(p, gamma0, lipschitz, omega, eps)
    lterm = strongly_convex_log_term(p, lipschitz, bregman0, omega, eps)
    K = geometric_iteration_count(omega, lterm)
    e = math.e
    nk = K * (3.0 + (1.0 + e / ((e - 1.0) * p)) * (1.0 + lterm) + math.log(
        max(1.0, (4.0 * sigma * math.factorial(p) / ((p + 1) * lipschitz)) ** (1.0 / p))
        * (1.0 + 1.0 / gamma0)
        * (p + 1.0) ** ((p + 2.0) / p) / p ** ((p + 1.0) / p)
        * 2.0 ** ((2.0 * p * p + p + 4.0) / p)))
    return delta, K, nk


def order_dependence(p):
    """(delta(p), K(p)) with the ratio L/eps, the initial divergence and gamma0
    all normalized to one; shows how the inner accuracy and the iteration count
    react to the method's order."""
    delta = math.factorial(p) ** (p / (p + 1.0)) / (2.0 ** p * (p + 1) ** (p + 1))
    K = 1.0 + 2.0 ** (1.0 / p) * (
        2.0 ** (p - 1) * (p + 1) ** (p + 2) / math.factorial(p)) ** (1.0 / (p + 1))
    return delta, K


def inner_condition_ratio(p, lipschitz_g, gamma_next, sigma_uniform):
    """ell/mu, the condition ratio that prices one inner solve."""
    ell = ((p + 1) * lipschitz_g / math.factorial(p)) ** (1.0 / p)
    mu = (gamma_next * sigma_uniform) ** (1.0 / p)
    return ell / mu


def inner_iteration_bound(p, lipschitz_g, gamma, gamma_next, sigma_uniform, delta,
                          residual_term, div):
    """Sufficient inner-step count for a delta-small subgradient (log clamped at 0).

    ``residual_term`` is A_k (F(x_k) - f*) and ``div`` the divergence from v_k
    to x*; with gamma_k they bound the inner problem's initial gap D.
    """
    ell = ((p + 1) * lipschitz_g / math.factorial(p)) ** (1.0 / p)
    mu = (gamma_next * sigma_uniform) ** (1.0 / p)
    D = residual_term + gamma * div + (ell / mu) ** p * div
    if D <= 0 or delta <= 0:
        return 2.0
    log_arg = ell * D / delta ** ((p + 1.0) / p)
    term = math.log(log_arg) if log_arg > 1.0 else 0.0
    return 2.0 + max(1.0, ell / mu) * (p + 1.0) / p * term


INNER_FLOOR = 200    # per-iteration inner cap when the sufficient-step bound is not computable
INNER_SLACK = 4.0    # inner cap, and the validator's inner budget, as a multiple of that bound


@dataclass
class RunCaps:
    outer: int = 1000
    inner: int | None = None        # explicit override of the per-iteration cap


def _resolve_inner_cap(caps, p, lipschitz_g, gamma, gamma_next, sigma_uniform,
                       delta, prox, v, residual_term, xstar):
    if caps.inner is not None:
        return caps.inner
    if xstar is None or not math.isfinite(residual_term):
        return INNER_FLOOR
    bound = inner_iteration_bound(p, lipschitz_g, gamma, gamma_next, sigma_uniform, delta,
                                  residual_term, prox.divergence(v, xstar))
    return max(int(math.ceil(INNER_SLACK * bound)), 8)


def contracting_step(state: OuterState, obj: CompositeObjective, prox: ProxFunction,
                     a_next, delta, caps=None, residual=math.nan):
    """One outer iteration: inexact prox step on the contracted objective.

    The subproblem is solved by :func:`inner_loop`.  ``residual`` is
    F(x_k) - f* at the state's x_k; given it and the instance's x*, the inner
    cap is a multiple of the sufficient inner-step count, and otherwise
    ``caps.inner`` or ``INNER_FLOOR``.  Returns the advanced state together
    with the inner result (certified subgradient, iteration count and the
    subproblem's Lipschitz constant).
    """
    if a_next <= 0:
        raise ValueError("a_next must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    caps = caps or RunCaps()
    A_next = state.A + a_next
    p = prox.order
    smooth = ContractedSmooth(obj.smooth, a_next, A_next, state.x, state.A)
    composite = CompositePart(obj.simple, a_next, state.gamma, prox, state.v)
    lipschitz_g = smooth.lipschitz(p)
    gamma_next = state.gamma + a_next * obj.simple.modulus
    sub = Subproblem(p=p, metric=obj.metric, smooth=smooth, composite=composite,
                     M=p * lipschitz_g)
    cap = _resolve_inner_cap(caps, p, lipschitz_g, state.gamma, gamma_next,
                             prox.uniform_constant, delta, prox, state.v,
                             state.A * residual, obj.xstar)
    result = inner_loop(sub, state.v, delta, cap)
    result.lipschitz_g = lipschitz_g
    x_next = contraction_point(a_next, state.A, result.point, state.x)
    new_state = OuterState(state.k + 1, A_next, gamma_next, x_next, result.point)
    return new_state, result


def run_contracting_proximal(obj: CompositeObjective, prox: ProxFunction, schedule,
                             delta_schedule, eps=None, caps=None, *, gamma0=1.0,
                             bregman0_bound=None):
    """Full outer loop from the prox center; returns a :class:`RunTrace` with
    one record per iteration.

    The run is recorded, stopped and capped by :func:`trace.drive` with cap
    ``caps.outer``.  Without a known optimum its stop norm is the certified
    residual bound/A_k, computable when ``bregman0_bound`` (an upper bound
    on the initial divergence to the optimum) is given; otherwise it is NaN
    and only the cap ends the run.  With ``eps=None`` the run executes
    ``caps.outer`` iterations, the usual mode for certificate batteries.
    """
    caps = caps or RunCaps()
    obj = obj.fresh()
    p = prox.order
    if schedule.p != p:
        raise ValueError("schedule order does not match the prox order")
    if obj.simple.prox is not None and obj.simple.prox.order != p:
        raise ValueError("psi's declared prox order does not match the run's order")
    x0 = prox.center.copy()
    lipschitz = obj.smooth.lipschitz[p]
    omega = getattr(schedule, "omega", None)
    delta_fn = delta_schedule.resolve(
        {"p": p, "gamma0": gamma0, "lipschitz": lipschitz, "omega": omega})
    sigma_simple = obj.simple.modulus
    sigma_uniform = prox.uniform_constant
    fstar = obj.fstar
    xstar = obj.xstar

    def divergence_to_xstar(v):
        return prox.divergence(v, xstar) if xstar is not None else math.nan

    def iterates():
        state = OuterState(0, 0.0, gamma0, x0.copy(), x0.copy())
        f = obj.value(x0)
        yield f, lambda: math.nan, {
            "A": 0.0, "gamma": gamma0, "a": 0.0,
            "bregman_vstar": divergence_to_xstar(x0), "x": state.x, "v": state.v}
        achieved = []
        A_seq = []

        def certified_residual():
            if bregman0_bound is None:
                return math.nan
            return inexact_certificate_bound(p, gamma0, sigma_simple, bregman0_bound,
                                             sigma_uniform, achieved, A_seq) / A_seq[-1]

        while True:
            a_next = schedule.next_a(state.k, state.A)
            delta = delta_fn(state.k + 1)
            residual = f - fstar if fstar is not None else math.nan
            new, result = contracting_step(state, obj, prox, a_next, delta, caps, residual)
            f = obj.value(new.x)
            achieved.append(result.s_norm)
            A_seq.append(new.A)
            lipschitz_g = result.lipschitz_g
            yield f, certified_residual, {
                "A": new.A, "gamma": new.gamma, "a": a_next, "delta_requested": delta,
                "s_norm": result.s_norm, "t_inner": result.iterations,
                "bregman_step": prox.divergence(state.v, new.v),
                "bregman_vstar": divergence_to_xstar(new.v),
                "x": new.x, "v": new.v, "inner_steps": result.steps,
                "lipschitz_g": lipschitz_g, "M": p * lipschitz_g,
                "ell_mu": inner_condition_ratio(p, lipschitz_g, new.gamma, sigma_uniform)}
            state = new

    header = {
        "method": f"cptm-p{p}", "p": p, "gamma0": gamma0, "lipschitz": lipschitz,
        "sigma_simple": sigma_simple, "sigma_uniform": sigma_uniform,
        "schedule": schedule.describe(), "delta_schedule": delta_schedule.describe(),
        "x0": x0.tolist(),
    }
    return drive(obj, header, eps, caps.outer, iterates())
