import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from contraprox import contracting, tensor_steps
from contraprox.baselines import _cubic_subproblem
from contraprox.bench import BENCH_LSE_LIPSCHITZ2, build_instance, run_method
from contraprox.bregman import PowerProx, ProxFunction, power_hessian
from contraprox.contracting import (PowerDelta, SublinearSchedule,
                                    run_contracting_proximal, schedule_convex)
from contraprox.metric import Metric
from contraprox.objectives import (CompositeObjective, LogSumExpOracle,
                                   PowerRegularizer, QuadraticOracle,
                                   ZeroComponent, lse_instance, quadratic_instance)
from contraprox.tensor_steps import (CompositePart, ContractedSmooth,
                                     InnerLoopError, SmoothData, Subproblem,
                                     assemble_step_hessian, cholesky_solve,
                                     cubic_step_single_center,
                                     inner_loop, minimize_model_newton,
                                     model_objective, step_subgradient, tensor_step)
from contraprox.validate import validate_trace
from tests.step_reference import minimize_model_descent


def _quadratic_oracle(rng, n, lam_min=0.2, lam_max=1.0):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(lam_min, lam_max, n)
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    return QuadraticOracle(A, rng.standard_normal(n), lam_max=lam_max)


def _empty_composite(n):
    return CompositePart(ZeroComponent(n), 0.0, 0.0, None, None)


def _plain(oracle):
    """f itself: the part contracted with a = A_next = 1 and A_prev = 0."""
    return ContractedSmooth(oracle, 1.0, 1.0, np.zeros(oracle.dim), 0.0)


def _data(smooth, x, p):
    """First-order data at x, with the Hessian when p = 2."""
    data = smooth.data(x)
    if p == 2:
        data.hess = smooth.hess(x)
    return data


class TestTaylorModel:
    def test_zero_displacement(self):
        rng = np.random.default_rng(0)
        obj = lse_instance(5, 1.0, 0)
        smooth = _plain(obj.smooth)
        x = rng.standard_normal(5)
        for p in (1, 2):
            data = _data(smooth, x, p)
            increment, g = data.model_increment(x)
            v = data.value + increment
            assert v == pytest.approx(data.value, rel=1e-14)
            np.testing.assert_allclose(g, data.grad, rtol=1e-14)

    def test_quadratic_is_its_own_order2_model(self):
        rng = np.random.default_rng(1)
        oracle = _quadratic_oracle(rng, 6)
        smooth = _plain(oracle)
        x = rng.standard_normal(6)
        data = _data(smooth, x, 2)
        for _ in range(5):
            y = rng.standard_normal(6)
            increment, g = data.model_increment(y)
            v = data.value + increment
            assert v == pytest.approx(oracle.value(y), rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(g, oracle.grad(y), rtol=1e-10, atol=1e-12)

    def test_remainder_bound_on_lse(self):
        # |f(y) - model(y)| <= L_p/(p+1)! * ||y-x||^{p+1} with certified constants
        mu = 0.8
        obj = lse_instance(6, mu, 3, lipschitz_order2=2.0 / mu ** 2)
        smooth = _plain(obj.smooth)
        metric = obj.metric
        rng = np.random.default_rng(4)
        for p in (1, 2):
            L = smooth.lipschitz(p)
            for _ in range(20):
                x = rng.standard_normal(6) * 0.5
                y = x + rng.standard_normal(6) * 0.5
                data = _data(smooth, x, p)
                err = abs(obj.smooth.value(y) - (data.value + data.model_increment(y)[0]))
                bound = L / math.factorial(p + 1) * metric.norm(y - x) ** (p + 1)
                assert err <= bound * (1 + 1e-9) + 1e-12

    def test_gradient_remainder_bound_on_lse(self):
        mu = 0.8
        obj = lse_instance(6, mu, 5, lipschitz_order2=2.0 / mu ** 2)
        smooth = _plain(obj.smooth)
        metric = obj.metric
        rng = np.random.default_rng(6)
        for p in (1, 2):
            L = smooth.lipschitz(p)
            for _ in range(20):
                x = rng.standard_normal(6) * 0.5
                y = x + rng.standard_normal(6) * 0.5
                diff = obj.smooth.grad(y) - _data(smooth, x, p).model_increment(y)[1]
                bound = L / math.factorial(p) * metric.norm(y - x) ** p
                assert metric.dual_norm(diff) <= bound * (1 + 1e-9) + 1e-12


class TestTensorStep:
    def test_one_dimensional_gradient_step(self):
        # g(y)=y^2/2, x=1, M=1, p=1, no composite part: T = 1 - g'(1)/M = 0
        oracle = QuadraticOracle(np.array([[1.0]]), np.zeros(1), lam_max=1.0)
        sub = Subproblem(p=1, metric=Metric.identity(1),
                         smooth=_plain(oracle), composite=_empty_composite(1), M=1.0)
        base = sub.smooth.data(np.array([1.0]))
        res = tensor_step(sub, base, 1e-12)
        assert res.point[0] == pytest.approx(0.0, abs=1e-14)
        assert res.sub_residual == 0.0

    def test_linear_smooth_with_divergence_term(self):
        # g linear (M=0), phi = gamma * order-1 divergence: T = v - B^{-1} grad / gamma
        rng = np.random.default_rng(7)
        n = 4
        G = rng.standard_normal((n, n))
        metric = Metric(G @ G.T + n * np.eye(n))
        c = rng.standard_normal(n)
        oracle = QuadraticOracle(np.zeros((n, n)), -c, lam_max=0.0)
        gamma, v = 2.5, rng.standard_normal(n)
        prox = PowerProx(1, np.zeros(n), metric)
        sub = Subproblem(p=1, metric=metric, smooth=_plain(oracle),
                         composite=CompositePart(ZeroComponent(n), 0.0, gamma, prox, v),
                         M=0.0)
        base = sub.smooth.data(rng.standard_normal(n))
        res = tensor_step(sub, base, 1e-12)
        np.testing.assert_allclose(res.point, v - metric.solve(c) / gamma,
                                   rtol=1e-10, atol=1e-12)

    def test_cubic_dual_matches_iterative_minimizers(self):
        rng = np.random.default_rng(8)
        n = 5
        oracle = _quadratic_oracle(rng, n)
        metric = Metric.identity(n)
        sub = Subproblem(p=2, metric=metric, smooth=_plain(oracle),
                         composite=_empty_composite(n), M=1.5)
        x = rng.standard_normal(n)
        base = _data(sub.smooth, x, 2)
        direct = cubic_step_single_center(base, 1.5, metric)
        newton, _, _ = minimize_model_newton(sub, base, x, 1e-13)
        descent, _, _ = minimize_model_descent(sub, base, x, 1e-11)
        np.testing.assert_allclose(newton, direct, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(descent, direct, rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("M", [0.1, 1.5, 10.0])
    def test_single_center_step_matches_secular_reference_in_b_metric(self, M):
        rng = np.random.default_rng(10)
        n = 6
        oracle = _quadratic_oracle(rng, n)
        G = rng.standard_normal((n, n))
        metric = Metric(G @ G.T + 0.5 * np.eye(n))
        sub = Subproblem(p=2, metric=metric, smooth=_plain(oracle),
                         composite=_empty_composite(n), M=M)
        base = _data(sub.smooth, rng.standard_normal(n), 2)
        step = tensor_step(sub, base, 1e-13)
        assert step.sub_iterations >= 1 and step.sub_residual <= 1e-13
        np.testing.assert_allclose(step.point, cubic_step_single_center(base, M, metric),
                                   rtol=1e-9, atol=1e-12)

    def test_cubic_baseline_step_runs_newton(self):
        # cn and acn step through the damped Newton solver (at cn's inner
        # tolerance for eps = 1e-7), not the secular reference, which takes
        # no sub-iterations
        obj = build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
        sub = _cubic_subproblem(obj.fresh())
        base = _data(sub.smooth, np.zeros(20), 2)
        inner_tol = 1e-9
        step = tensor_step(sub, base, inner_tol)
        assert step.sub_iterations >= 1
        assert step.sub_residual <= inner_tol

    @pytest.mark.parametrize("p, with_hess", [(1, True), (2, False)])
    def test_hessian_data_must_match_the_order(self, p, with_hess):
        rng = np.random.default_rng(11)
        sub = Subproblem(p=p, metric=Metric.identity(4), smooth=_plain(_quadratic_oracle(rng, 4)),
                         composite=_empty_composite(4), M=1.0)
        base = _data(sub.smooth, rng.standard_normal(4), 2 if with_hess else 1)
        with pytest.raises(ValueError, match="order-2 step"):
            tensor_step(sub, base, 1e-10)

    def test_closed_form_order1_matches_iterative(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            n = 4
            oracle = _quadratic_oracle(rng, n)
            metric = Metric.identity(n)
            prox = PowerProx(1, np.zeros(n), metric)
            gamma = 1.0 + rng.uniform(0, 1)
            v = rng.standard_normal(n)
            sub = Subproblem(p=1, metric=metric, smooth=_plain(oracle),
                             composite=CompositePart(ZeroComponent(n), 0.0, gamma,
                                                     prox, v),
                             M=1.0)
            x = rng.standard_normal(n)
            base = sub.smooth.data(x)
            closed = tensor_step(sub, base, 1e-13).point
            iterative, _, _ = minimize_model_descent(sub, base, x, 1e-12)
            np.testing.assert_allclose(iterative, closed, rtol=1e-9, atol=1e-9)


class _DiagonalProx(ProxFunction):
    """d(x) = 1/2 x^T D x with D = diag(linspace(1, 5, n)): a valid order-1 prox
    with constant 1, but not the power prox the steps solve."""

    order = 1
    uniform_constant = 1.0

    def __init__(self, metric):
        self.metric = metric
        self.center = np.zeros(metric.dim)
        self.diag = np.linspace(1.0, 5.0, metric.dim)

    def value(self, x):
        return 0.5 * float(x @ (self.diag * x))

    def gradient(self, x):
        return self.diag * x


class _AbsComponent:
    """psi(x) = ||x||_1, a simple component no step can solve."""

    is_zero = False

    def value(self, x):
        return float(np.abs(x).sum())

    def subgrad(self, x):
        return np.sign(x)


class TestUnsolvableSubproblemsAreRejected:
    def test_custom_prox_run_fails_before_any_step(self, monkeypatch):
        # the steps ignored this prox: one closed-form step from x = 0 left a
        # first-order residual of 5.30, and the run reported convergence
        obj = quadratic_instance(10, 3.0, 0)
        steps = []
        monkeypatch.setattr(contracting, "inner_loop", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="divergence term is not built on a PowerProx"):
            run_contracting_proximal(obj, _DiagonalProx(obj.metric),
                                     schedule_convex(1, 1.0, obj.smooth.lipschitz[1]),
                                     PowerDelta(1, 2), eps=1e-7)
        assert steps == []

    @pytest.mark.parametrize("case, message", [
        ("prox on another metric", "divergence term is not built on a PowerProx"),
        ("order-2 divergence at p = 1", "divergence term has order 2"),
        ("order-2 psi at p = 1", "psi has order 2"),
        ("psi prox on another metric", "psi is not built on a PowerProx"),
        ("psi not a power regularizer", "psi is a _AbsComponent"),
        ("order 3", "only orders 1 and 2"),
    ])
    def test_subproblem_is_rejected_when_built(self, case, message):
        n = 4
        metric = Metric.identity(n)
        other = Metric.identity(n)
        prox, psi, p = PowerProx(1, np.zeros(n), metric), ZeroComponent(n), 1
        if case == "prox on another metric":
            prox = PowerProx(1, np.zeros(n), other)
        elif case == "order-2 divergence at p = 1":
            prox = PowerProx(2, np.zeros(n), metric)
        elif case == "order-2 psi at p = 1":
            psi = PowerRegularizer(1.0, PowerProx(2, np.zeros(n), metric))
        elif case == "psi prox on another metric":
            psi = PowerRegularizer(1.0, PowerProx(1, np.zeros(n), other))
        elif case == "psi not a power regularizer":
            psi = _AbsComponent()
        else:
            p = 3
        smooth = _plain(_quadratic_oracle(np.random.default_rng(0), n))
        with pytest.raises(ValueError, match=message):
            Subproblem(p=p, metric=metric, smooth=smooth,
                       composite=CompositePart(psi, 1.0, 1.0, prox, np.ones(n)), M=1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       weight=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       sigma=st.floats(1e-3, 1e3), M=st.floats(1e-3, 1e3))
def test_order1_step_is_stationary_for_its_objective(n, seed, gamma, weight, sigma, M):
    # random power-prox subproblems: metric, contraction, anchor and centers
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    metric = Metric(G @ G.T + 0.1 * np.eye(n))
    smooth = ContractedSmooth(_quadratic_oracle(rng, n), rng.uniform(0.1, 2.0),
                              rng.uniform(2.0, 5.0), rng.standard_normal(n),
                              rng.uniform(0.0, 2.0))
    psi = PowerRegularizer(sigma, PowerProx(1, rng.standard_normal(n), metric))
    composite = CompositePart(psi, weight, gamma, PowerProx(1, rng.standard_normal(n), metric),
                              rng.standard_normal(n))
    sub = Subproblem(p=1, metric=metric, smooth=smooth, composite=composite, M=M)
    base = smooth.data(rng.standard_normal(n))
    T = tensor_step(sub, base, 1e-12).point
    _, grad, _ = model_objective(sub, base, T)
    # the gradient is the sum of these three; its scale is theirs
    pieces = (base.grad, M * metric.apply(T - base.x), composite.evaluate(T)[1])
    scale = sum(metric.dual_norm(piece) for piece in pieces)
    assert metric.dual_norm(grad) <= 1e-9 * scale


_PHI = dict(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
            gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
            weight=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), sigma=st.floats(1e-3, 1e3))


def _random_phi(n, seed, gamma, weight, sigma, div_order, psi_order):
    """phi on a random SPD metric, with random centers and anchor, and a random point."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    metric = Metric(G @ G.T + 0.1 * np.eye(n))
    psi = PowerRegularizer(sigma, PowerProx(psi_order, rng.standard_normal(n), metric))
    prox = PowerProx(div_order, rng.standard_normal(n), metric)
    return CompositePart(psi, weight, gamma, prox, rng.standard_normal(n)), rng.standard_normal(n)


def _phi_scale(composite, y):
    """Sum over the terms of c times the size of each piece of its value."""
    scale = 0.0
    for _, c, d, anchor, d_anchor, grad_anchor in composite.terms:
        linear = 0.0 if anchor is None else np.abs(grad_anchor).sum() * np.abs(y - anchor).max()
        scale += c * (abs(d.value(y)) + abs(d_anchor) + linear)
    return scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(div_order=st.integers(1, 2), psi_order=st.integers(1, 2), **_PHI)
def test_phi_terms_follow_the_inputs(n, seed, gamma, weight, sigma, div_order, psi_order):
    composite, y = _random_phi(n, seed, gamma, weight, sigma, div_order, psi_order)
    # psi first, then the divergence term; a zero coefficient leaves its term out
    assert [(name, c) for name, c, *_ in composite.terms] == (
        [("psi", weight * sigma)] if weight > 0 else []) + (
        [("the divergence term", gamma)] if gamma > 0 else [])
    value, _, terms = composite.evaluate(y)
    assert composite.value(y) == value
    assert [(c, q) for c, q, _, _ in terms] == [(c, d.order) for _, c, d, *_ in composite.terms]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(div_order=st.integers(1, 2), psi_order=st.integers(1, 2), **_PHI)
def test_phi_gradient_matches_central_differences(n, seed, gamma, weight, sigma, div_order,
                                                 psi_order):
    composite, y = _random_phi(n, seed, gamma, weight, sigma, div_order, psi_order)
    grad = composite.evaluate(y)[1]
    h = 1e-6
    fd = np.array([(composite.value(y + h * e) - composite.value(y - h * e)) / (2 * h)
                   for e in np.eye(n)])
    assert np.abs(fd - grad).max() <= 1e-6 * (1.0 + np.abs(grad).max() + _phi_scale(composite, y))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_PHI)
def test_order1_phi_gradient_is_affine(n, seed, gamma, weight, sigma):
    composite, y = _random_phi(n, seed, gamma, weight, sigma, 1, 1)
    coeff, combo = composite.affine_terms()
    B = composite.psi.prox.metric.matrix
    assert coeff == sum(c for _, c, *_ in composite.terms)
    affine = B @ (coeff * y - combo)
    scale = np.abs(B).max() * (coeff * np.abs(y).max() + np.abs(combo).max())
    assert np.abs(composite.evaluate(y)[1] - affine).max() <= 1e-12 * (1.0 + scale)


class TestStepSubgradient:
    def _subproblem(self, rng, n=4, gamma=2.0):
        oracle = _quadratic_oracle(rng, n)
        metric = Metric.identity(n)
        prox = PowerProx(1, np.zeros(n), metric)
        v = rng.standard_normal(n)
        sub = Subproblem(p=1, metric=metric, smooth=_plain(oracle),
                         composite=CompositePart(ZeroComponent(n), 0.0, gamma, prox, v),
                         M=1.0)
        return sub

    def test_small_norm_at_exact_minimizer(self):
        rng = np.random.default_rng(10)
        sub = self._subproblem(rng)
        x = rng.standard_normal(4)
        base = sub.smooth.data(x)
        res = tensor_step(sub, base, 1e-13)
        data_T = sub.smooth.data(res.point)
        s = step_subgradient(sub, base, data_T.grad, res.point)
        # the step solved its subproblem exactly, so s equals grad h(T)
        direct = sub.h_grad_from(data_T)
        np.testing.assert_allclose(s, direct, rtol=1e-10, atol=1e-10)

    def test_two_evaluations_agree_on_quadratic(self):
        rng = np.random.default_rng(11)
        sub = self._subproblem(rng)
        x = rng.standard_normal(4)
        base = sub.smooth.data(x)
        # even away from the exact step the decomposition matches grad h up to
        # the step regularizer's residual structure at the true minimizer
        res = tensor_step(sub, base, 1e-13)
        data_T = sub.smooth.data(res.point)
        s = step_subgradient(sub, base, data_T.grad, res.point)
        assert sub.metric.dual_norm(s - sub.h_grad_from(data_T)) <= 1e-10


class TestInnerLoop:
    def _strongly_convex_subproblem(self, rng, n=5, gamma_factor=2.0):
        oracle = _quadratic_oracle(rng, n, lam_min=0.1, lam_max=1.0)
        metric = Metric.identity(n)
        prox = PowerProx(1, np.zeros(n), metric)
        gamma = gamma_factor * 1.0
        v = rng.standard_normal(n)
        return Subproblem(p=1, metric=metric, smooth=_plain(oracle),
                          composite=CompositePart(ZeroComponent(n), 0.0, gamma,
                                                  prox, v),
                          M=1.0)

    def test_stationary_start_returns_immediately(self):
        rng = np.random.default_rng(12)
        sub = self._strongly_convex_subproblem(rng)
        base = sub.smooth.data(np.zeros(5))
        z0 = tensor_step(sub, base, 1e-13).point
        # one more polish step puts the subgradient well under a loose delta
        res = inner_loop(sub, z0, 1.0, cap=10)
        if res.iterations:
            res = inner_loop(sub, res.point, 1.0, cap=10)
        assert res.iterations == 0
        np.testing.assert_array_equal(res.point, res.point)

    def test_geometric_gradient_decrease(self):
        # certified rate: per-step ratio of gradient norms at most e^{-alpha*/2}
        rng = np.random.default_rng(13)
        sub = self._strongly_convex_subproblem(rng, gamma_factor=2.0)
        alpha_star = min(1.0, sub.composite.gamma / (2.0 * sub.smooth.lipschitz(1)))
        bound = math.exp(-alpha_star * 0.5)
        res = inner_loop(sub, rng.standard_normal(5) * 3, 1e-9, cap=200)
        norms = [step.s_dual for step in res.steps]
        assert len(norms) >= 3
        for a, b in zip(norms, norms[1:]):
            assert b <= bound * a * (1 + 1e-9)

    def test_monotone_descent_every_step(self):
        rng = np.random.default_rng(14)
        sub = self._strongly_convex_subproblem(rng)
        res = inner_loop(sub, rng.standard_normal(5) * 2, 1e-8, cap=200)
        for step in res.steps:
            assert step.h_after <= step.h_before + 1e-12 * max(1.0, abs(step.h_before))

    def test_gradient_progress_inequality(self):
        rng = np.random.default_rng(15)
        sub = self._strongly_convex_subproblem(rng)
        res = inner_loop(sub, rng.standard_normal(5) * 2, 1e-8, cap=200)
        coef = (math.factorial(1) / (2.0 * sub.smooth.lipschitz(1))) ** 1.0
        for step in res.steps:
            rhs = coef * step.s_dual ** 2
            assert step.decrease_pairing >= rhs - 1e-10 * max(1.0, rhs)

    def test_certified_norm_meets_delta(self):
        rng = np.random.default_rng(16)
        sub = self._strongly_convex_subproblem(rng)
        res = inner_loop(sub, rng.standard_normal(5), 1e-7, cap=200)
        assert res.s_norm <= 1e-7

    def test_cap_exceeded_raises_with_diagnostic(self):
        rng = np.random.default_rng(17)
        sub = self._strongly_convex_subproblem(rng)
        with pytest.raises(InnerLoopError) as err:
            inner_loop(sub, rng.standard_normal(5) * 10, 1e-13, cap=1)
        assert err.value.last_norm > 1e-13

    def test_envelope_bound_order1(self):
        # gradient norms stay under the certified envelope built from h(z0)-h*
        rng = np.random.default_rng(18)
        sub = self._strongly_convex_subproblem(rng)
        z0 = rng.standard_normal(5) * 2
        # exact minimum of the quadratic h by linear algebra
        A = sub.smooth.oracle.matrix
        b = sub.smooth.oracle.rhs
        gamma = sub.composite.gamma
        v = sub.composite.anchor
        zstar = np.linalg.solve(A + gamma * np.eye(5), b + gamma * v)
        data0 = sub.smooth.data(z0)
        h0 = sub.h_value_from(data0)
        hstar = sub.h_value_from(sub.smooth.data(zstar))
        res = inner_loop(sub, z0, 1e-10, cap=500)
        alpha_star = min(1.0, sub.composite.gamma / (2.0 * sub.smooth.lipschitz(1)))
        lead = 2.0 * sub.smooth.lipschitz(1)
        for t in range(len(res.steps) - 1):
            lhs = res.steps[t + 1].s_dual ** 2
            rhs = math.exp(-t * alpha_star * 0.5) * lead * (h0 - hstar)
            assert lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("problem", ["lse", "quadratic"])
def test_trivially_contracted_part_is_the_oracle_bitwise(problem):
    # a = A_next = 1 and A_prev = 0: the cubic baselines' smooth part is f itself
    if problem == "lse":
        oracle = lse_instance(20, 1.0, 0).smooth
    else:
        oracle = _quadratic_oracle(np.random.default_rng(24), 20)
    smooth = _plain(oracle)
    x = np.random.default_rng(25).standard_normal(20)
    data = smooth.data(x)
    value, grad = oracle.value_and_grad(x)
    assert data.value == value
    assert np.array_equal(data.grad, grad) and np.array_equal(data.x, x)
    assert np.array_equal(smooth.hess(x), oracle.hess(x))
    assert smooth.lipschitz(2) == oracle.lipschitz[2]


class TestInnerLoopOrder2:
    def _lse_subproblem(self, rng, n=6, mu=1.0):
        obj = lse_instance(n, mu, 21, lipschitz_order2=2.0 / mu ** 2)
        x_prev = rng.standard_normal(n) * 0.2
        a, A_prev = 0.5, 1.0
        smooth = ContractedSmooth(obj.smooth, a, A_prev + a, x_prev, A_prev)
        prox = PowerProx(2, np.zeros(n), obj.metric)
        gamma = 1.0
        v = rng.standard_normal(n) * 0.3
        L_g = smooth.lipschitz(2)
        return Subproblem(p=2, metric=obj.metric, smooth=smooth,
                          composite=CompositePart(ZeroComponent(n), a, gamma, prox, v),
                          M=2 * L_g)

    def test_monotone_and_progress_order2(self):
        rng = np.random.default_rng(19)
        sub = self._lse_subproblem(rng)
        res = inner_loop(sub, rng.standard_normal(6) * 0.3, 1e-9, cap=300)
        assert res.iterations >= 1
        coef = (math.factorial(2) / (3.0 * sub.smooth.lipschitz(2))) ** 0.5
        for step in res.steps:
            scale = max(abs(step.h_before), 1.0)
            assert step.h_after <= step.h_before + 1e-12 * scale
            rhs = coef * step.s_dual ** 1.5
            allowance = step.sub_residual * step.step_norm + 1e-10 * max(1.0, rhs)
            assert step.decrease_pairing + allowance >= rhs

    def test_contracted_hessian_is_the_jacobian_of_its_gradient(self):
        rng = np.random.default_rng(23)
        smooth = self._lse_subproblem(rng).smooth
        x = rng.standard_normal(6) * 0.3
        H = smooth.hess(x)
        h = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (smooth.data(x + e).grad - smooth.data(x - e).grad) / (2 * h)
            assert np.allclose(fd, H[:, i], rtol=1e-6, atol=1e-8)
        with pytest.raises(TypeError):
            smooth.data(x, 2)

    def test_envelope_bound_order2(self):
        rng = np.random.default_rng(20)
        sub = self._lse_subproblem(rng)
        z0 = rng.standard_normal(6) * 0.3
        tight = inner_loop(sub, z0, 1e-12, cap=500)
        hstar = tight.h_final
        h0 = sub.h_value_from(sub.smooth.data(z0))
        res = inner_loop(sub, z0, 1e-9, cap=500)
        sigma_h = sub.composite.gamma * 0.5  # degree-3 uniform convexity constant
        L_g = sub.smooth.lipschitz(2)
        alpha_star = min(1.0, (math.factorial(2) * sigma_h / (3.0 * L_g)) ** 0.5)
        lead = (3.0 * L_g / 2.0) ** 0.5
        for t in range(len(res.steps) - 1):
            lhs = res.steps[t + 1].s_dual ** 1.5
            rhs = math.exp(-t * alpha_star * 2.0 / 3.0) * lead * (h0 - hstar)
            assert lhs <= rhs * (1 + 1e-6) + 1e-15


def test_model_objective_consistent_with_pieces():
    rng = np.random.default_rng(22)
    n = 4
    oracle = _quadratic_oracle(rng, n)
    metric = Metric.identity(n)
    prox = PowerProx(2, np.zeros(n), metric)
    sub = Subproblem(p=2, metric=metric, smooth=_plain(oracle),
                     composite=CompositePart(ZeroComponent(n), 0.3, 1.2, prox,
                                             rng.standard_normal(n)),
                     M=2.0)
    x = rng.standard_normal(n)
    base = _data(sub.smooth, x, 2)
    y = rng.standard_normal(n)
    val, grad, _ = model_objective(sub, base, y)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (model_objective(sub, base, y + e)[0]
              - model_objective(sub, base, y - e)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestNewtonSolve:
    @staticmethod
    def _cubic_model(A, b):
        n = len(b)
        sub = Subproblem(p=2, metric=Metric.identity(n),
                         smooth=_plain(QuadraticOracle(A, b, lam_max=1.0)),
                         composite=_empty_composite(n), M=1.0)
        return sub, _data(sub.smooth, np.zeros(n), 2)

    def test_cholesky_solve_equals_scipy(self):
        rng = np.random.default_rng(23)
        for n in range(1, 10):
            for _ in range(5):
                G = rng.standard_normal((n, n))
                H = G @ G.T + 1e-3 * np.eye(n)
                g = rng.standard_normal(n)
                np.testing.assert_array_equal(
                    cholesky_solve(H, g), scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), g))

    def test_nan_hessian_is_rejected(self):
        A = np.diag([2.0, 1.0, 0.5])
        A[0, 1] = A[1, 0] = np.nan
        b = np.ones(3)
        sub = Subproblem(p=2, metric=Metric.identity(3),
                         smooth=_plain(QuadraticOracle(A, b, lam_max=1.0)),
                         composite=_empty_composite(3), M=1.0)
        # the model at 0 of 1/2 <Ax, x> - <b, x>, built directly because
        # smooth.data rejects the NaN gradient an oracle query returns
        model = SmoothData(np.zeros(3), 0.0, -b, A)
        with pytest.raises(ValueError, match="infs or NaNs"):
            minimize_model_newton(sub, model, np.zeros(3), 1e-10)

    def test_indefinite_hessian_takes_the_jitter_path(self, monkeypatch):
        failures = []

        def spy(H, g):
            try:
                return cholesky_solve(H, g)
            except scipy.linalg.LinAlgError:
                failures.append(H)
                raise

        monkeypatch.setattr(tensor_steps, "cholesky_solve", spy)
        sub, model = self._cubic_model(np.diag([2.0, 1.0, -1e-13]), np.array([1.0, -0.5, 0.0]))
        y, res, iters = minimize_model_newton(sub, model, np.zeros(3), 1e-10)
        assert failures and iters >= 1 and res <= 1e-10
        assert model_objective(sub, model, y)[0] < model_objective(sub, model, np.zeros(3))[0]

    def test_jitter_retry_factors_an_intact_matrix(self, monkeypatch):
        # a failed in-place factorization leaves a partial factor in the buffer;
        # the retry must factor H + jitter*I, not that factor plus jitter
        solved = []

        def spy(H, g):
            x = cholesky_solve(H, g)
            solved.append(x)
            return x

        monkeypatch.setattr(tensor_steps, "cholesky_solve", spy)
        A = np.diag([2.0, 1.0, -1e-13])
        sub, model = self._cubic_model(A, np.array([1.0, -0.5, 0.0]))
        minimize_model_newton(sub, model, np.zeros(3), 1e-10)
        # at the base point r = 0, so the step Hessian is A itself
        jitter = 1e-12 * (1.0 + abs(float(np.trace(A))))
        expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A + jitter * np.eye(3)),
                                          model.grad)
        np.testing.assert_array_equal(solved[0], expected)

    def test_cholesky_solve_factors_only_a_fortran_ordered_matrix_in_place(self):
        rng = np.random.default_rng(29)
        G = rng.standard_normal((5, 5))
        H = G @ G.T + np.eye(5)
        g = rng.standard_normal(5)
        kept = H.copy()
        x = cholesky_solve(H, g)
        np.testing.assert_array_equal(H, kept)
        H_f = np.asfortranarray(kept)
        np.testing.assert_array_equal(cholesky_solve(H_f, g), x)
        # H_f now holds the upper factor
        np.testing.assert_array_equal(np.triu(H_f), np.triu(scipy.linalg.cho_factor(kept)[0]))
        indefinite = np.diag([1.0, -1.0])
        with pytest.raises(scipy.linalg.LinAlgError):
            cholesky_solve(indefinite, np.ones(2))
        np.testing.assert_array_equal(indefinite, np.diag([1.0, -1.0]))

    def test_round_off_floor_ends_at_the_best_point(self):
        # the residual cannot fall much below about 4e-18 here: at tol 1e-17 the
        # solve converges, at tol 1e-20 it used to spend its 200-iteration cap
        obj = build_instance("lse", 50, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
        sub = _cubic_subproblem(obj)
        base = _data(sub.smooth, np.zeros(50), 2)
        _, _, converged_after = minimize_model_newton(sub, base, base.x, 1e-17)
        y, res, iters = minimize_model_newton(sub, base, base.x, 1e-20)
        assert converged_after <= 10 and iters <= 25 and res <= 1e-17
        # the best point comes back with its own residual, which callers certify
        assert res == sub.metric.dual_norm(model_objective(sub, base, y)[1])

    @pytest.mark.parametrize("n", [10, 20, 50])
    def test_theorem_delta_runs_past_the_round_off_floor(self, n):
        # near the step's minimizer the decrease falls below the round-off of
        # phi's Bregman term, so Armijo alone took steps of about 1e-7 of the
        # Newton step and spent the 200-iteration cap; at n = 10 the residual
        # stalled at 4.5e-8 against tol 2.0e-8
        obj = build_instance("lse", n, 0, mu=1.0, lipschitz_order2=2.0)
        trace = run_method("cptm-p2", obj, 1e-7, delta_schedule="theorem")
        assert trace.status == "converged"
        if n == 10:
            sched = trace.header["schedule"]
            report = validate_trace(trace, PowerProx(2, np.zeros(n), obj.metric), obj.xstar,
                                    obj.fstar, SublinearSchedule(sched["c"], sched["p"]))
            assert report.ok


def _power_subproblem(rng, n, p, metric, div_order, psi_order, M=1.5):
    """A step subproblem on a quadratic; a divergence or psi order of None leaves it out."""
    smooth = _plain(_quadratic_oracle(rng, n))
    psi, weight = ZeroComponent(n), 0.0
    if psi_order is not None:
        psi = PowerRegularizer(0.7, PowerProx(psi_order, rng.standard_normal(n), metric))
        weight = 1.3
    prox, gamma = None, 0.0
    if div_order is not None:
        prox, gamma = PowerProx(div_order, rng.standard_normal(n), metric), 0.9
    return Subproblem(p=p, metric=metric, smooth=smooth,
                      composite=CompositePart(psi, weight, gamma, prox, rng.standard_normal(n)),
                      M=M)


@pytest.mark.parametrize("spd", [False, True])
@pytest.mark.parametrize("at", ["random", "base", "center"])
@pytest.mark.parametrize("p, div_order, psi_order", [
    (1, None, None), (1, 1, None), (1, None, 1), (1, 1, 1),
    (2, None, None), (2, 1, None), (2, 2, None), (2, None, 1), (2, None, 2), (2, 2, 2)])
def test_assembled_hessian_is_the_dense_sum(spd, at, p, div_order, psi_order):
    rng = np.random.default_rng(31)
    n = 6
    G = rng.standard_normal((n, n))
    metric = Metric(G @ G.T + 0.5 * np.eye(n)) if spd else Metric.identity(n)
    sub = _power_subproblem(rng, n, p, metric, div_order, psi_order)
    base = _data(sub.smooth, rng.standard_normal(n), 2)
    c = sub.composite
    # r = 0 at the base; ||w|| = 0 at a divergence or psi center
    y = {"random": rng.standard_normal(n), "base": base.x,
         "center": c.prox.center if c.gamma > 0 else
         c.psi.prox.center if c.weight > 0 else base.x}[at]
    dense = base.hess + sub.M / math.factorial(p) * power_hessian(metric, y - base.x, p)
    if c.gamma > 0:
        dense = dense + c.gamma * power_hessian(metric, y - c.prox.center, c.prox.order)
    if c.weight > 0:
        dense = dense + c.weight * c.psi.hess(y)
    H = np.empty((n, n), order="F")
    _, grad, terms = model_objective(sub, base, y)
    assemble_step_hessian(H, sub, base, terms)
    scale = np.abs(dense).max()
    assert np.abs(np.triu(H) - np.triu(dense)).max() <= 1e-13 * scale
    step = cholesky_solve(H, grad)
    assert np.linalg.norm(dense @ step - grad) <= 1e-12 * scale * (np.linalg.norm(step) + 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), rank=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       M=st.floats(1e-2, 1e2), gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1e2)),
       div_order=st.integers(1, 2),
       weight=st.one_of(st.just(0.0), st.floats(1e-3, 1e2)), sigma=st.floats(1e-3, 1e2),
       psi_order=st.integers(1, 2))
def test_newton_step_is_stationary_and_descends(n, rank, seed, M, gamma, div_order, weight,
                                                sigma, psi_order):
    # random p = 2 power-prox subproblems: SPD metric, PSD model Hessian, centers
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    metric = Metric(G @ G.T + 0.1 * np.eye(n))
    C = rng.standard_normal((n, min(rank, n)))
    smooth = _plain(QuadraticOracle(C @ C.T, rng.standard_normal(n), lam_max=1.0))
    psi = PowerRegularizer(sigma, PowerProx(psi_order, rng.standard_normal(n), metric))
    composite = CompositePart(psi, weight, gamma, PowerProx(div_order, rng.standard_normal(n),
                                                            metric), rng.standard_normal(n))
    sub = Subproblem(p=2, metric=metric, smooth=smooth, composite=composite, M=M)
    base = _data(smooth, rng.standard_normal(n), 2)
    inner_tol = 1e-9 * (1.0 + metric.dual_norm(base.grad))
    result = tensor_step(sub, base, inner_tol)
    assert result.sub_residual <= inner_tol
    assert model_objective(sub, base, result.point)[0] <= model_objective(sub, base, base.x)[0]
