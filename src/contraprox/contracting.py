"""Contracting proximal outer loop with certified inexact inner solves.

Each outer iteration minimizes the contracted objective
    h_{k+1}(x) = A_{k+1} f((a_{k+1} x + A_k x_k)/A_{k+1}) + a_{k+1} psi(x)
               + gamma_k * divergence(v_k; x)
to a subgradient of dual norm at most delta_{k+1}, then moves along the
segment [x_k, v_{k+1}].  :func:`run_contracting_proximal` is the one outer-loop
body.  The inner accuracy is one rule in k, parsed by :func:`delta_rule` from
the text ``const:<v>``, ``power:<c>,<s>`` (c / k^s) or ``theorem`` (the fixed
accuracy of the convex or uniformly convex theorem for a target eps).  Each
inner solve is capped at INNER_SLACK times the sufficient inner-step count,
the inner budget the validator checks.  Coefficient schedules, the runtime
certificate bound and the order-dependence formulas also live here.
"""

from __future__ import annotations

import math

import numpy as np

from .bregman import ProxFunction, divergence_from
from .objectives import CompositeObjective, SolverError
from .tensor_steps import ContractedSmooth, Subproblem, inner_loop
from .trace import drive


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


def schedule_strongly_convex(p, sigma, lipschitz, gamma0):
    """Geometric coefficient schedule for psi strongly convex relative to d."""
    if not sigma > 0:
        raise ValueError("sigma must be positive for the geometric schedule")
    if not (gamma0 > 0 and lipschitz > 0):
        raise ValueError("gamma0 and the Lipschitz constant must be positive")
    omega = contraction_rate(p, sigma, lipschitz)
    return GeometricSchedule(omega, schedule_constant(p, gamma0, lipschitz), p)


def _positive_finite(value, name):
    try:
        value = float(value)
    except TypeError:    # None, say: refused below as it is
        pass
    if not (isinstance(value, float) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, not {value!r}")
    return value


def delta_rule(text, p, gamma0, lipschitz, omega, eps):
    """Parse an inner-accuracy text into ``(k -> delta_k, description)``.

    ``const:<v>`` is delta_k = v and ``power:<c>,<s>`` is delta_k = c / k^s,
    with s > 1 so the accuracy series stays summable.  ``theorem`` is the
    fixed accuracy that certifies the target residual ``eps``: the uniformly
    convex formula when the coefficient schedule has a contraction rate
    ``omega``, the convex one when ``omega`` is None.  Every number must be
    finite.
    """
    if text.startswith("const:"):
        delta = _positive_finite(text[len("const:"):], "delta")
        return (lambda k: delta), {"kind": "constant", "delta": delta}
    if text.startswith("power:"):
        parts = text[len("power:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"bad power schedule {text!r}, expected power:<c>,<s>")
        c, s = _positive_finite(parts[0], "c"), float(parts[1])
        if not 1.0 < s < math.inf:
            raise ValueError(f"s must be finite and exceed 1 for a summable accuracy "
                             f"series, not {s!r}")
        return (lambda k: c / k ** s), {"kind": "power", "c": c, "s": s}
    if text == "theorem":
        eps = _positive_finite(eps, "eps")
        if omega is None:
            delta = convex_inner_accuracy(p, gamma0, lipschitz, eps)
            return (lambda k: delta), {"kind": "theorem_convex", "eps": eps}
        delta = strongly_convex_inner_accuracy(p, gamma0, lipschitz, omega, eps)
        return (lambda k: delta), {"kind": "theorem_strongly_convex", "eps": eps}
    raise ValueError(f"unknown delta schedule {text!r}")


def contraction_point(a, A_prev, v, x_prev):
    """x_{k+1} = (a v + A_prev x_prev) / (A_prev + a)."""
    if a <= 0:
        raise ValueError("a must be positive")
    return (a * np.asarray(v, float) + A_prev * np.asarray(x_prev, float)) / (A_prev + a)


def inexact_certificate_bounds(p, gamma0, sigma_simple, bregman0, sigma_uniform,
                               deltas, A_values):
    """Certified upper bound on the residual-plus-divergence sum after every prefix.

    ``deltas[i]`` is the dual norm certified at iteration i+1 and
    ``A_values[i]`` the corresponding A_{i+1}.  Entry k of the result is the
    bound after k steps, so entry 0 is the head term gamma0 * bregman0.  The
    summands are delta_i / gamma_i^{1/(p+1)} with gamma_i = gamma0 + sigma_simple*A_i.
    """
    deltas = np.asarray(deltas, dtype=float)
    A_values = np.asarray(A_values, dtype=float)
    if deltas.shape != A_values.shape:
        raise ValueError("deltas and A_values must have matching lengths")
    terms = deltas / (gamma0 + sigma_simple * A_values) ** (1.0 / (p + 1))
    acc = np.cumsum(np.append(0.0, terms))
    head = (gamma0 * bregman0) ** (p / (p + 1.0))
    return (head + ((p + 1.0) / sigma_uniform) ** (1.0 / (p + 1)) * acc) ** ((p + 1.0) / p)


def convex_inner_accuracy(p, gamma0, lipschitz, eps):
    """Inner accuracy certifying an eps-residual under the sublinear schedule."""
    return ((math.factorial(p) * eps / lipschitz) ** (p / (p + 1.0))
            * gamma0 / (2.0 ** p * (p + 1) ** (p + 1)))


def strongly_convex_inner_accuracy(p, gamma0, lipschitz, omega, eps):
    return ((math.factorial(p) * eps / lipschitz) ** (p / (p + 1.0))
            * gamma0 * p * omega
            / (2.0 ** p * (p + 1) ** (((p + 1) ** 2 + 1.0) / (p + 1))))


def order_dependence(p):
    """(delta(p), K(p)) of the convex theorem, K not floored, with the ratio
    L/eps, the initial divergence and gamma0 all normalized to one; shows how
    the inner accuracy and the iteration count react to the method's order."""
    K = 1.0 + 2.0 ** (1.0 / p) * (
        2.0 ** (p - 1) * (p + 1) ** (p + 2) / math.factorial(p)) ** (1.0 / (p + 1))
    return convex_inner_accuracy(p, 1.0, 1.0, 1.0), K


def contracted_lipschitz(p, a, A_next, lipschitz):
    """L_p(g) = a^{p+1} / A_next^p * L_p(f), the constant of the contracted smooth part
    of step k+1; inf where a power leaves the float range or A_next is 0."""
    try:
        return a ** (p + 1) / A_next ** p * lipschitz
    except (OverflowError, ZeroDivisionError):
        return math.inf


def ell_mu(p, lipschitz_g, gamma_next, sigma_uniform):
    """(ell, mu): the inner problem's smoothness and uniform convexity as p-th roots, whose
    ratio prices one inner solve; (NaN, 1) unless L_p(g) and gamma_next * sigma are positive."""
    if not (lipschitz_g > 0 and gamma_next * sigma_uniform > 0):
        return math.nan, 1.0
    return (((p + 1) * lipschitz_g / math.factorial(p)) ** (1.0 / p),
            (gamma_next * sigma_uniform) ** (1.0 / p))


def inner_iteration_bound(p, lipschitz_g, gamma, gamma_next, sigma_uniform, delta,
                          residual_term, div):
    """Sufficient inner-step count for a delta-small subgradient (log clamped at 0).

    ``residual_term`` is A_k (F(x_k) - f*) and ``div`` the divergence from v_k
    to x*; with gamma_k they bound the inner problem's initial gap D.  The
    count is inf where delta^{(p+1)/p} underflows to 0 or the log argument
    overflows; Python floats keep numpy scalars from warning instead.
    """
    ell, mu = ell_mu(p, lipschitz_g, gamma_next, sigma_uniform)
    D = float(residual_term + gamma * div + (ell / mu) ** p * div)
    if D <= 0 or delta <= 0:
        return 2.0
    try:
        power = float(delta) ** ((p + 1.0) / p)
    except OverflowError:    # the log argument is below 1
        return 2.0
    if power == 0.0:    # underflow: no finite count certifies delta
        return math.inf
    log_arg = ell * D / power
    term = math.log(log_arg) if log_arg > 1.0 else 0.0
    return 2.0 + max(1.0, ell / mu) * (p + 1.0) / p * term


INNER_SLACK = 4.0    # inner cap, and the validator's inner budget, in inner_iteration_bound units


def run_contracting_proximal(obj: CompositeObjective, prox: ProxFunction, schedule,
                             delta_schedule, eps, *, cap_outer, gamma0):
    """Full outer loop from the prox center; returns a :class:`RunTrace` with
    one record per iteration.

    ``delta_schedule`` is the accuracy text of :func:`delta_rule`
    (``const:<v>``, ``power:<c>,<s>`` or ``theorem``).  Step k+1 minimizes
    h_{k+1} with :func:`inner_loop` from v_k, in at most INNER_SLACK times
    the sufficient inner-step count from the state at k, rounded down: the
    validator's inner budget, so a run this cap lets finish passes that
    check.  A delta_{k+1} that leaves the count infinite raises ``ValueError``.

    The prox is evaluated once per iteration, by ``prox.linearization`` at
    v_k, and once per run at x*; ``bregman_step`` D(v_{k-1}; v_k),
    ``bregman_vstar`` D(v_k; x*) and the divergence term of step k+1 all
    come from those values through :func:`bregman.divergence_from`.

    The run is recorded, stopped and capped by :func:`trace.drive` with cap
    ``cap_outer``: it needs the instance's f* and x* and a finite eps > 0,
    and stops on F(x_k) - f* <= eps.
    """
    obj = obj.fresh()
    p = prox.order
    if schedule.p != p:
        raise ValueError("schedule order does not match the prox order")
    if obj.simple.prox is not None and obj.simple.prox.order != p:
        raise ValueError("psi's declared prox order does not match the run's order")
    x0 = prox.center.copy()
    lipschitz = obj.smooth.lipschitz[p]
    delta_fn, delta_description = delta_rule(delta_schedule, p, gamma0, lipschitz,
                                             getattr(schedule, "omega", None), eps)
    sigma_simple = obj.simple.modulus
    sigma_uniform = prox.uniform_constant
    fstar = obj.fstar
    xstar = obj.xstar

    def iterates():
        k, A, gamma, x, v = 0, 0.0, gamma0, x0.copy(), x0.copy()
        f = obj.value(x0)
        d_star, anchor = prox.value(xstar), prox.linearization(v)
        div = divergence_from(anchor, xstar, d_star)    # D(v_k; x*)
        yield f, {"A": 0.0, "gamma": gamma0, "a": 0.0, "bregman_vstar": div, "x": x, "v": v}
        while True:
            a = schedule.next_a(k, A)
            delta = delta_fn(k + 1)
            A_next = A + a
            smooth = ContractedSmooth(obj.smooth, a, A_next, x, A)
            lipschitz_g = contracted_lipschitz(p, a, A_next, lipschitz)
            if lipschitz_g == math.inf:
                raise SolverError(f"the contracted L_{p} overflows at a = {a:.3e}")
            gamma_next = gamma + a * sigma_simple
            sub = Subproblem(p, obj.metric, smooth, p * lipschitz_g, obj.simple, a, gamma, prox,
                             anchor)
            budget = INNER_SLACK * inner_iteration_bound(
                p, lipschitz_g, gamma, gamma_next, sigma_uniform, delta, A * (f - fstar), div)
            if not math.isfinite(budget):
                raise ValueError(f"delta_{k + 1} = {delta!r} leaves no finite inner budget "
                                 f"({budget}); the accuracy is too small to certify")
            point, s_norm, steps = inner_loop(sub, v, delta, int(budget))
            x = contraction_point(a, A, point, x)
            k, A, gamma, v = k + 1, A_next, gamma_next, point
            f = obj.value(x)
            anchor_prev, anchor = anchor, prox.linearization(v)
            div = divergence_from(anchor, xstar, d_star)
            yield f, {
                "A": A, "gamma": gamma, "a": a, "delta_requested": delta,
                "s_norm": s_norm, "t_inner": len(steps),
                "bregman_step": divergence_from(anchor_prev, v, anchor[1]),
                "bregman_vstar": div,
                "x": x, "v": v, "steps": steps}

    header = {
        "method": f"cptm-p{p}", "p": p, "gamma0": gamma0, "lipschitz": lipschitz,
        "sigma_simple": sigma_simple, "sigma_uniform": sigma_uniform,
        "schedule": schedule.describe(), "delta_schedule": delta_description,
        "x0": x0.tolist(),
    }
    return drive(obj, header, eps, cap_outer, iterates())
