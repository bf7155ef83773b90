import math
import re
from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from contraprox import contracting
from contraprox import metric as metric_module
from contraprox.baselines import _cubic_subproblem
from contraprox.bench import BENCH_LSE_LIPSCHITZ2, build_instance, run_method
from contraprox.bregman import PowerProx, ProxFunction, power_coefficients, power_hessian
from contraprox.contracting import (SublinearSchedule, contracted_lipschitz,
                                    run_contracting_proximal, schedule_convex)
from contraprox.metric import Metric
from contraprox.objectives import (PowerRegularizer, QuadraticOracle, ZeroComponent,
                                   lse_instance, quadratic_instance)
from contraprox.tensor_steps import (ContractedSmooth, InnerLoopError, SmoothData, Subproblem,
                                     assemble_step_hessian, cholesky_solve,
                                     cubic_step_single_center, extrapolated_radius,
                                     inner_loop, minimize_model_newton,
                                     model_objective, tensor_step)
from contraprox.trace import STEP_FIELDS
from contraprox.validate import validate_trace
from tests.step_reference import minimize_model_descent, reference_newton


def _quadratic_oracle(rng, n, lam_min=0.2, lam_max=1.0):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(lam_min, lam_max, n)
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    return QuadraticOracle(A, rng.standard_normal(n), lam_max=lam_max)


def _plain(oracle):
    """f itself: the part contracted with a = A_next = 1 and A_prev = 0."""
    return ContractedSmooth(oracle, 1.0, 1.0, np.zeros(oracle.dim), 0.0)


def _lipschitz(smooth, p):
    """L_p of a contracted part, from the formula the contracting solver prices it with."""
    return contracted_lipschitz(p, smooth.a, smooth.A_next, smooth.oracle.lipschitz[p])


def _data(smooth, x, p):
    """First-order data at x, with the Hessian when p = 2."""
    data = smooth.data(x)
    if p == 2:
        data.hess = smooth.hess(x)
    return data


def _h(sub, z):
    """h(z) = g(z) + phi(z)."""
    data = sub.smooth.data(z)
    return data.value + sub.phi_value(data.x)


Step = namedtuple("Step", STEP_FIELDS[1:])


def _inner(sub, z0, delta, cap):
    """:func:`inner_loop` with each step row named by its fields."""
    point, s_norm, steps = inner_loop(sub, z0, delta, cap)
    return point, s_norm, [Step(*row) for row in steps]


class TestTaylorModel:
    def test_zero_displacement(self):
        rng = np.random.default_rng(0)
        obj = lse_instance(5, 1.0, 0, 1.0)
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
            L = _lipschitz(smooth, p)
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
            L = _lipschitz(smooth, p)
            for _ in range(20):
                x = rng.standard_normal(6) * 0.5
                y = x + rng.standard_normal(6) * 0.5
                diff = obj.smooth.grad(y) - _data(smooth, x, p).model_increment(y)[1]
                bound = L / math.factorial(p) * metric.norm(y - x) ** p
                assert metric.dual_norm(diff) <= bound * (1 + 1e-9) + 1e-12


class TestTensorStep:
    def test_one_dimensional_gradient_step(self):
        # g(y)=y^2/2, x=1, M=1, p=1, phi = 0: T = 1 - g'(1)/M = 0
        oracle = QuadraticOracle(np.array([[1.0]]), np.zeros(1), lam_max=1.0)
        sub = Subproblem(p=1, metric=Metric.identity(1), smooth=_plain(oracle), M=1.0,
                         psi=ZeroComponent(1), weight=0.0)
        base = sub.smooth.data(np.array([1.0]))
        point, residual, iterations, _ = tensor_step(sub, base, sub.phi(base.x), 1e-12, 0.0)
        assert point[0] == pytest.approx(0.0, abs=1e-14)
        assert residual == 0.0 and iterations == 0

    def test_linear_smooth_with_divergence_term(self):
        # g linear (M=0), phi = gamma * order-1 divergence: T = v - grad / gamma
        rng = np.random.default_rng(7)
        n = 4
        metric = Metric.identity(n)
        c = rng.standard_normal(n)
        oracle = QuadraticOracle(np.zeros((n, n)), -c, lam_max=0.0)
        gamma, v = 2.5, rng.standard_normal(n)
        prox = PowerProx(1, np.zeros(n), metric)
        sub = Subproblem(p=1, metric=metric, smooth=_plain(oracle), M=0.0,
                         psi=ZeroComponent(n), weight=0.0, gamma=gamma, prox=prox,
                         anchor=prox.linearization(v))
        base = sub.smooth.data(rng.standard_normal(n))
        point, _, _, _ = tensor_step(sub, base, sub.phi(base.x), 1e-12, 0.0)
        np.testing.assert_allclose(point, v - c / gamma,
                                   rtol=1e-10, atol=1e-12)

    def test_cubic_dual_matches_iterative_minimizers(self):
        rng = np.random.default_rng(8)
        n = 5
        oracle = _quadratic_oracle(rng, n)
        metric = Metric.identity(n)
        sub = Subproblem(p=2, metric=metric, smooth=_plain(oracle), M=1.5, psi=ZeroComponent(n),
                         weight=0.0)
        x = rng.standard_normal(n)
        base = _data(sub.smooth, x, 2)
        direct = cubic_step_single_center(base, 1.5, metric)
        newton, _, _, _ = minimize_model_newton(sub, base, sub.phi(base.x), 1e-13, 0.0)
        descent, _, _ = minimize_model_descent(sub, base, x, 1e-11)
        np.testing.assert_allclose(newton, direct, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(descent, direct, rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("M", [0.1, 1.5, 10.0])
    def test_single_center_step_matches_secular_reference_on_whitened_lse(self, M):
        # the lse instance is whitened when it is built, so its Hessian is the one in
        # the B = A^T A norm of the paper's coordinates
        rng = np.random.default_rng(10)
        n = 6
        obj = lse_instance(n, 0.5, 4, 1.0)
        metric = obj.metric
        sub = Subproblem(p=2, metric=metric, smooth=_plain(obj.smooth), M=M,
                         psi=ZeroComponent(n), weight=0.0)
        base = _data(sub.smooth, rng.standard_normal(n), 2)
        point, residual, iterations, _ = tensor_step(sub, base, sub.phi(base.x), 1e-13, 0.0)
        assert iterations >= 1 and residual <= 1e-13
        np.testing.assert_allclose(point, cubic_step_single_center(base, M, metric),
                                   rtol=1e-9, atol=1e-12)

    def test_cubic_baseline_step_runs_newton(self):
        # cn and acn step through the damped Newton solver (at cn's inner
        # tolerance for eps = 1e-7), not the secular reference, which takes
        # no sub-iterations
        obj = build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
        sub, inner_tol = _cubic_subproblem(obj.fresh(), 1e-7)
        base = _data(sub.smooth, np.zeros(20), 2)
        _, residual, iterations, _ = tensor_step(sub, base, sub.phi(base.x), inner_tol, 0.0)
        assert iterations >= 1
        assert residual <= inner_tol

    @pytest.mark.parametrize("p, with_hess", [(1, True), (2, False)])
    def test_hessian_data_must_match_the_order(self, p, with_hess):
        rng = np.random.default_rng(11)
        sub = Subproblem(p=p, metric=Metric.identity(4), smooth=_plain(_quadratic_oracle(rng, 4)),
                         M=1.0, psi=ZeroComponent(4), weight=0.0)
        base = _data(sub.smooth, rng.standard_normal(4), 2 if with_hess else 1)
        with pytest.raises(ValueError, match="order-2 step"):
            tensor_step(sub, base, sub.phi(base.x), 1e-10, 0.0)

    def test_closed_form_order1_matches_iterative(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            n = 4
            oracle = _quadratic_oracle(rng, n)
            metric = Metric.identity(n)
            prox = PowerProx(1, np.zeros(n), metric)
            gamma = 1.0 + rng.uniform(0, 1)
            v = rng.standard_normal(n)
            sub = Subproblem(p=1, metric=metric, smooth=_plain(oracle), M=1.0,
                             psi=ZeroComponent(n), weight=0.0, gamma=gamma, prox=prox,
                             anchor=prox.linearization(v))
            x = rng.standard_normal(n)
            base = sub.smooth.data(x)
            closed, _, _, _ = tensor_step(sub, base, sub.phi(base.x), 1e-13, 0.0)
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
                                     "power:1,2", 1e-7, cap_outer=5000, gamma0=1.0)
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
            Subproblem(p=p, metric=metric, smooth=smooth, M=1.0, psi=psi, weight=1.0,
                       gamma=1.0, prox=prox, anchor=prox.linearization(np.ones(n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       weight=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       sigma=st.floats(1e-3, 1e3), M=st.floats(1e-3, 1e3))
def test_order1_step_is_stationary_for_its_objective(n, seed, gamma, weight, sigma, M):
    # random power-prox subproblems: contraction, anchor and centers
    rng = np.random.default_rng(seed)
    metric = Metric.identity(n)
    smooth = ContractedSmooth(_quadratic_oracle(rng, n), rng.uniform(0.1, 2.0),
                              rng.uniform(2.0, 5.0), rng.standard_normal(n),
                              rng.uniform(0.0, 2.0))
    psi = PowerRegularizer(sigma, PowerProx(1, rng.standard_normal(n), metric))
    prox = PowerProx(1, rng.standard_normal(n), metric)
    sub = Subproblem(1, metric, smooth, M, psi, weight, gamma, prox,
                     prox.linearization(rng.standard_normal(n)))
    base = smooth.data(rng.standard_normal(n))
    T, _, _, _ = tensor_step(sub, base, sub.phi(base.x), 1e-12, 0.0)
    _, grad, _, _ = model_objective(sub, base, T, 0.0)
    # the gradient is the sum of these three; its scale is theirs
    pieces = (base.grad, M * metric.apply(T - base.x), sub.phi(T)[1])
    scale = sum(metric.dual_norm(piece) for piece in pieces)
    assert metric.dual_norm(grad) <= 1e-9 * scale


_PHI = dict(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
            gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
            weight=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), sigma=st.floats(1e-3, 1e3))


def _random_phi(n, seed, gamma, weight, sigma, div_order, psi_order):
    """An order-2 subproblem whose phi has random centers and anchor; a random point;
    the metric."""
    rng = np.random.default_rng(seed)
    metric = Metric.identity(n)
    psi = PowerRegularizer(sigma, PowerProx(psi_order, rng.standard_normal(n), metric))
    prox = PowerProx(div_order, rng.standard_normal(n), metric)
    smooth = _plain(QuadraticOracle(np.eye(n), np.zeros(n), lam_max=1.0))
    sub = Subproblem(2, metric, smooth, 1.0, psi, weight, gamma, prox,
                     prox.linearization(rng.standard_normal(n)))
    return sub, rng.standard_normal(n), metric


def _phi_scale(sub, y):
    """Sum over the terms of c times the size of each piece of its value."""
    scale = 0.0
    for _, c, d, anchor, d_anchor, grad_anchor in sub.terms:
        linear = 0.0 if anchor is None else np.abs(grad_anchor).sum() * np.abs(y - anchor).max()
        scale += c * (abs(d.value(y)) + abs(d_anchor) + linear)
    return scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(div_order=st.integers(1, 2), psi_order=st.integers(1, 2), **_PHI)
def test_phi_terms_follow_the_inputs(n, seed, gamma, weight, sigma, div_order, psi_order):
    sub, y, _ = _random_phi(n, seed, gamma, weight, sigma, div_order, psi_order)
    # psi first, then the divergence term; a zero coefficient leaves its term out
    assert [(name, c) for name, c, *_ in sub.terms] == (
        [("psi", weight * sigma)] if weight > 0 else []) + (
        [("the divergence term", gamma)] if gamma > 0 else [])
    value, _, terms = sub.phi(y)
    assert sub.phi_value(y) == value
    assert [(c, q) for c, q, _, _ in terms] == [(c, d.order) for _, c, d, *_ in sub.terms]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(div_order=st.integers(1, 2), psi_order=st.integers(1, 2), **_PHI)
def test_phi_gradient_matches_central_differences(n, seed, gamma, weight, sigma, div_order,
                                                 psi_order):
    sub, y, _ = _random_phi(n, seed, gamma, weight, sigma, div_order, psi_order)
    grad = sub.phi(y)[1]
    h = 1e-6
    fd = np.array([(sub.phi_value(y + h * e) - sub.phi_value(y - h * e)) / (2 * h)
                   for e in np.eye(n)])
    assert np.abs(fd - grad).max() <= 1e-6 * (1.0 + np.abs(grad).max() + _phi_scale(sub, y))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_PHI)
def test_order1_phi_gradient_is_affine(n, seed, gamma, weight, sigma):
    sub, y, _ = _random_phi(n, seed, gamma, weight, sigma, 1, 1)
    coeff, combo = sub.affine_terms()
    assert coeff == sum(c for _, c, *_ in sub.terms)
    affine = coeff * y - combo
    scale = coeff * np.abs(y).max() + np.abs(combo).max()
    assert np.abs(sub.phi(y)[1] - affine).max() <= 1e-12 * (1.0 + scale)


def _bytes(value):
    """The bytes of every number and array in nested tuples and lists, and None's as None."""
    if isinstance(value, (tuple, list)):
        return [_bytes(item) for item in value]
    return None if value is None else np.asarray(value).tobytes()


def _divergence(sub):
    """(gamma, anchor) of phi's divergence term."""
    (_, gamma, _, anchor, *_), = [t for t in sub.terms if t[0] == "the divergence term"]
    return gamma, anchor


def _step_subgradient(sub, base, inner_tol):
    """(T, residual, s, data at T) of one step, s the subgradient inner_loop certifies:
    grad g(T) minus the model and regularizer gradients the step evaluated at T."""
    T, residual, _, (_, model_grad, reg_grad, _) = tensor_step(sub, base, sub.phi(base.x),
                                                               inner_tol, 0.0)
    data_T = sub.smooth.data(T)
    return T, residual, data_T.grad - model_grad - reg_grad, data_T


class TestStepSubgradient:
    def _subproblem(self, rng, n=4, gamma=2.0):
        oracle = _quadratic_oracle(rng, n)
        metric = Metric.identity(n)
        prox = PowerProx(1, np.zeros(n), metric)
        v = rng.standard_normal(n)
        return Subproblem(p=1, metric=metric, smooth=_plain(oracle), M=1.0,
                          psi=ZeroComponent(n), weight=0.0, gamma=gamma, prox=prox,
                          anchor=prox.linearization(v))

    def test_small_norm_at_exact_minimizer(self):
        rng = np.random.default_rng(10)
        sub = self._subproblem(rng)
        x = rng.standard_normal(4)
        base = sub.smooth.data(x)
        T, _, s, data_T = _step_subgradient(sub, base, 1e-13)
        # the step solved its subproblem exactly, so s equals grad h(T)
        direct = data_T.grad + sub.phi(T)[1]
        np.testing.assert_allclose(s, direct, rtol=1e-10, atol=1e-10)

    @staticmethod
    def _assert_certifies_grad_h(sub, base, inner_tol):
        # grad h(T) = s + the step objective's gradient at T, whose dual norm is
        # the residual the step returns: ||s||_* + residual bounds ||grad h(T)||_*,
        # so the s_norm an inner step reports is a valid delta-certificate
        T, residual, s, data_T = _step_subgradient(sub, base, inner_tol)
        dual = sub.metric.dual_norm
        grad_h = dual(data_T.grad + sub.phi(T)[1])
        assert grad_h <= dual(s) + residual + 1e-12 * max(1.0, dual(data_T.grad))

    @pytest.mark.parametrize("inner_tol", [1e-1, 1e-3, 1e-6, 1e-10])
    def test_certificate_bounds_grad_h_for_inexact_order2_steps(self, inner_tol):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n, mu = int(rng.integers(2, 13)), float(rng.choice([1.0, 0.1, 0.03]))
            obj = lse_instance(n, mu, int(rng.integers(1000)), lipschitz_order2=2.0 / mu ** 2)
            a, A_prev = rng.uniform(0.1, 2.0), rng.uniform(0.0, 3.0)
            smooth = ContractedSmooth(obj.smooth, a, A_prev + a, rng.standard_normal(n), A_prev)
            prox = PowerProx(2, np.zeros(n), obj.metric)
            sub = Subproblem(2, obj.metric, smooth, 2 * _lipschitz(smooth, 2), ZeroComponent(n),
                             a, rng.uniform(0.01, 10.0), prox,
                             prox.linearization(rng.standard_normal(n)))
            self._assert_certifies_grad_h(sub, _data(smooth, rng.standard_normal(n), 2),
                                          inner_tol)

    def test_certificate_bounds_grad_h_for_order1_steps(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            metric = Metric.identity(n)
            smooth = ContractedSmooth(_quadratic_oracle(rng, n), rng.uniform(0.1, 2.0),
                                      rng.uniform(2.0, 5.0), rng.standard_normal(n),
                                      rng.uniform(0.0, 2.0))
            psi = PowerRegularizer(rng.uniform(0.01, 1.0),
                                   PowerProx(1, rng.standard_normal(n), metric))
            prox = PowerProx(1, np.zeros(n), metric)
            sub = Subproblem(1, metric, smooth, _lipschitz(smooth, 1), psi, rng.uniform(0.0, 2.0),
                             rng.uniform(0.01, 10.0), prox,
                             prox.linearization(rng.standard_normal(n)))
            self._assert_certifies_grad_h(sub, smooth.data(rng.standard_normal(n)), 1e-12)

    @pytest.mark.parametrize("case", ["cptm-p1", "cptm-p2", "cn", "cn-psi"])
    def test_a_step_returns_a_fresh_evaluation_at_its_result_bitwise(self, case):
        # phi's evaluation at T, the model and regularizer gradients and ||T - base.x|| that a
        # step returns are, bit for bit, what evaluating them anew at T gives;
        # at tol 1e-20 an order-2 solve ends at its best point, not its last
        rng = np.random.default_rng(43)
        n = 6
        if case == "cptm-p1":
            metric = Metric.identity(n)
            smooth = ContractedSmooth(_quadratic_oracle(rng, n), 0.7, 3.0,
                                      rng.standard_normal(n), 2.3)
            psi = PowerRegularizer(0.3, PowerProx(1, rng.standard_normal(n), metric))
            prox = PowerProx(1, np.zeros(n), metric)
            sub = Subproblem(1, metric, smooth, _lipschitz(smooth, 1), psi, 0.7, 1.5, prox,
                             prox.linearization(rng.standard_normal(n)))
        elif case == "cptm-p2":
            obj = lse_instance(n, 0.1, 3, lipschitz_order2=200.0)
            smooth = ContractedSmooth(obj.smooth, 0.7, 3.0, rng.standard_normal(n), 2.3)
            prox = PowerProx(2, np.zeros(n), obj.metric)
            sub = Subproblem(2, obj.metric, smooth, 2 * _lipschitz(smooth, 2), ZeroComponent(n),
                             0.7, 1.5, prox, prox.linearization(rng.standard_normal(n)))
        else:
            obj = (build_instance("lse", 50, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
                   if case == "cn" else build_instance("quadratic", n, 0, q=1e-2, sigma=1e-2))
            sub, n = _cubic_subproblem(obj, 1e-7)[0], obj.dim
        for _ in range(5):
            base = _data(sub.smooth, rng.standard_normal(n), sub.p)
            for tol in (1e-6, 1e-20) if sub.p == 2 else (1e-12,):
                T, _, _, at = tensor_step(sub, base, sub.phi(base.x), tol, 0.0)
                u = T - base.x
                r = sub.metric.norm(u)
                phi_T = sub.phi(T) if sub.p == 2 else (sub.phi_value(T), None, None)
                fresh = (phi_T, base.model_increment(T)[1],
                         sub.M / math.factorial(sub.p) * r ** (sub.p - 1) * sub.metric.apply(u), r)
                assert _bytes(at) == _bytes(fresh)


@pytest.mark.parametrize("case", ["cptm-p2", "cn", "cn-psi"])
def test_a_seeded_newton_is_bitwise_the_one_that_evaluates_its_base(case):
    # a step starts from the phi evaluation handed to it, sub.phi(z0) first and
    # then the previous step's own at T, and still returns, bit for bit, the
    # (T, residual, iterations, at) of the Newton that evaluated the step
    # objective at its base itself; at tol 1e-20 it ends at its best point
    rng = np.random.default_rng(44)
    if case == "cptm-p2":
        n = 8
        obj = lse_instance(n, 0.1, 3, lipschitz_order2=200.0)
        smooth = ContractedSmooth(obj.smooth, 0.7, 3.0, rng.standard_normal(n), 2.3)
        prox = PowerProx(2, np.zeros(n), obj.metric)
        sub = Subproblem(2, obj.metric, smooth, 2 * _lipschitz(smooth, 2), ZeroComponent(n),
                         0.7, 1.5, prox, prox.linearization(rng.standard_normal(n)))
    else:
        obj = (build_instance("lse", 50, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
               if case == "cn" else build_instance("quadratic", 6, 0, q=1e-2, sigma=1e-2))
        sub = _cubic_subproblem(obj, 1e-7)[0]
    assert (len(sub.terms), sub.terms[0][0] if sub.terms else None) == {
        "cptm-p2": (1, "the divergence term"), "cn": (0, None), "cn-psi": (1, "psi")}[case]
    for tol in (1e-6, 1e-20):
        base = _data(sub.smooth, rng.standard_normal(obj.dim), 2)
        phi = sub.phi(base.x)
        for _ in range(4):
            got = minimize_model_newton(sub, base, phi, tol, 0.0)
            assert _bytes(got) == _bytes(reference_newton(sub, base, tol))
            base, phi = _data(sub.smooth, got[0], 2), got[3][0]


def _cubic_lse_step(seed):
    """(subproblem, base, tolerance, exact radius r*) of a cn step on lse n = 20.

    The subproblem is single-center, so :func:`cubic_step_single_center` gives
    its exact step, whose B-norm radius is r*.
    """
    obj = build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
    sub, inner_tol = _cubic_subproblem(obj.fresh(), 1e-7)
    assert sub.terms == []
    base = _data(sub.smooth, np.random.default_rng(seed).standard_normal(20), 2)
    exact = cubic_step_single_center(base, sub.M, sub.metric)
    return sub, base, inner_tol, sub.metric.norm(exact - base.x)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("factor", [0.0, 1.0, 1e3, 1e-3])
def test_a_hinted_step_meets_its_tolerance_and_descends(seed, factor):
    # the hint only shapes the first Newton iteration; from any hint the step
    # still ends at the tolerance and below the step objective at its base
    sub, base, inner_tol, r_exact = _cubic_lse_step(seed)
    assert r_exact > 0
    T, residual, iterations, _ = tensor_step(sub, base, sub.phi(base.x), inner_tol,
                                             factor * r_exact)
    assert residual <= inner_tol
    assert model_objective(sub, base, T, 0.0)[0] <= model_objective(sub, base, base.x, 0.0)[0]
    if factor == 1.0:
        # (H + M/2 r* B)^{-1} g is the exact step: the first solve lands on it
        assert iterations <= 2
        np.testing.assert_allclose(T, cubic_step_single_center(base, sub.M, sub.metric),
                                   rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_zero_hint_is_bitwise_the_cold_step(seed):
    sub, base, inner_tol, _ = _cubic_lse_step(seed)
    got = tensor_step(sub, base, sub.phi(base.x), inner_tol, 0.0)
    assert _bytes(got) == _bytes(reference_newton(sub, base, inner_tol))
    # and the exact radius saves Newton iterations over the cold start
    assert tensor_step(sub, base, sub.phi(base.x), inner_tol,
                       sub.metric.norm(got[0] - base.x))[2] < got[2]


@pytest.mark.parametrize("hint", [-1e-3, -math.inf, math.nan, math.inf])
@pytest.mark.parametrize("p", [1, 2])
def test_a_bad_radius_hint_is_refused(hint, p):
    rng = np.random.default_rng(46)
    sub = Subproblem(p=p, metric=Metric.identity(4), smooth=_plain(_quadratic_oracle(rng, 4)),
                     M=1.0, psi=ZeroComponent(4), weight=0.0)
    base = _data(sub.smooth, rng.standard_normal(4), p)
    with pytest.raises(ValueError, match="radius_hint must be finite and nonnegative"):
        tensor_step(sub, base, sub.phi(base.x), 1e-10, hint)


@pytest.mark.parametrize("last, before, want", [
    (0.0, 0.0, 0.0),          # the first step starts cold
    (0.5, 0.0, 0.5),          # the second step: the one radius there is
    (0.5, 2.0, 0.125),        # r_{k-1}^2 / r_{k-2}
    (0.0, 2.0, 0.0),          # after a zero step: cold
    (3.0, 1.5, 6.0),
    (1e200, 1e-200, 1e200),   # an overflowing ratio falls back to r_{k-1}
])
def test_the_extrapolated_radius(last, before, want):
    assert extrapolated_radius(last, before) == want


def test_an_order1_subproblem_sums_its_affine_terms_once(monkeypatch):
    calls = []
    affine_terms = Subproblem.affine_terms
    monkeypatch.setattr(Subproblem, "affine_terms",
                        lambda sub: calls.append(sub) or affine_terms(sub))
    rng = np.random.default_rng(45)
    n = 5
    metric = Metric.identity(n)
    prox = PowerProx(1, np.zeros(n), metric)
    psi = PowerRegularizer(0.3, PowerProx(1, rng.standard_normal(n), metric))
    smooth = ContractedSmooth(_quadratic_oracle(rng, n), 0.7, 3.0, rng.standard_normal(n), 2.3)
    sub = Subproblem(1, metric, smooth, _lipschitz(smooth, 1), psi, 0.7, 1.5, prox,
                     prox.linearization(rng.standard_normal(n)))
    _, _, steps = inner_loop(sub, rng.standard_normal(n), 1e-10, 1000)
    assert len(steps) >= 3 and calls == [sub]


class TestInnerLoop:
    def _strongly_convex_subproblem(self, rng, n=5, gamma_factor=2.0):
        oracle = _quadratic_oracle(rng, n, lam_min=0.1, lam_max=1.0)
        metric = Metric.identity(n)
        prox = PowerProx(1, np.zeros(n), metric)
        gamma = gamma_factor * 1.0
        v = rng.standard_normal(n)
        return Subproblem(p=1, metric=metric, smooth=_plain(oracle), M=1.0,
                          psi=ZeroComponent(n), weight=0.0, gamma=gamma, prox=prox,
                          anchor=prox.linearization(v))

    def test_stationary_start_returns_immediately(self):
        rng = np.random.default_rng(12)
        sub = self._strongly_convex_subproblem(rng)
        base = sub.smooth.data(np.zeros(5))
        start, _, _, _ = tensor_step(sub, base, sub.phi(base.x), 1e-13, 0.0)
        # one more polish step puts the subgradient well under a loose delta
        point, _, steps = inner_loop(sub, start, 1.0, cap=10)
        if steps:
            start = point
            point, _, steps = inner_loop(sub, start, 1.0, cap=10)
        assert steps == []
        np.testing.assert_array_equal(point, start)

    def test_geometric_gradient_decrease(self):
        # certified rate: per-step ratio of gradient norms at most e^{-alpha*/2}
        rng = np.random.default_rng(13)
        sub = self._strongly_convex_subproblem(rng, gamma_factor=2.0)
        alpha_star = min(1.0, _divergence(sub)[0] / (2.0 * _lipschitz(sub.smooth, 1)))
        bound = math.exp(-alpha_star * 0.5)
        _, _, steps = _inner(sub, rng.standard_normal(5) * 3, 1e-9, cap=200)
        norms = [step.s_dual for step in steps]
        assert len(norms) >= 3
        for a, b in zip(norms, norms[1:]):
            assert b <= bound * a * (1 + 1e-9)

    def test_monotone_descent_every_step(self):
        rng = np.random.default_rng(14)
        sub = self._strongly_convex_subproblem(rng)
        _, _, steps = _inner(sub, rng.standard_normal(5) * 2, 1e-8, cap=200)
        assert [step.t for step in steps] == list(range(1, len(steps) + 1))
        for step in steps:
            assert step.h_after <= step.h_before + 1e-12 * max(1.0, abs(step.h_before))

    def test_gradient_progress_inequality(self):
        rng = np.random.default_rng(15)
        sub = self._strongly_convex_subproblem(rng)
        _, _, steps = _inner(sub, rng.standard_normal(5) * 2, 1e-8, cap=200)
        coef = (math.factorial(1) / (2.0 * _lipschitz(sub.smooth, 1))) ** 1.0
        for step in steps:
            rhs = coef * step.s_dual ** 2
            assert step.decrease_pairing >= rhs - 1e-10 * max(1.0, rhs)

    def test_certified_norm_meets_delta(self):
        rng = np.random.default_rng(16)
        sub = self._strongly_convex_subproblem(rng)
        _, s_norm, steps = _inner(sub, rng.standard_normal(5), 1e-7, cap=200)
        assert s_norm <= 1e-7
        # the last step's certified norm is its s_dual plus its residual
        assert s_norm == steps[-1].s_dual + steps[-1].sub_residual

    def test_cap_exceeded_raises_with_diagnostic(self):
        rng = np.random.default_rng(17)
        sub = self._strongly_convex_subproblem(rng)
        with pytest.raises(InnerLoopError, match="cap of 1 steps") as err:
            inner_loop(sub, rng.standard_normal(5) * 10, 1e-13, cap=1)
        last_norm = re.search(r"last certified norm (\S+),", str(err.value)).group(1)
        assert float(last_norm) > 1e-13

    def test_envelope_bound_order1(self):
        # gradient norms stay under the certified envelope built from h(z0)-h*
        rng = np.random.default_rng(18)
        sub = self._strongly_convex_subproblem(rng)
        z0 = rng.standard_normal(5) * 2
        # exact minimum of the quadratic h by linear algebra
        A = sub.smooth.oracle.matrix
        b = sub.smooth.oracle.rhs
        gamma, v = _divergence(sub)
        zstar = np.linalg.solve(A + gamma * np.eye(5), b + gamma * v)
        h0, hstar = _h(sub, z0), _h(sub, zstar)
        _, _, steps = _inner(sub, z0, 1e-10, cap=500)
        alpha_star = min(1.0, _divergence(sub)[0] / (2.0 * _lipschitz(sub.smooth, 1)))
        lead = 2.0 * _lipschitz(sub.smooth, 1)
        for t in range(len(steps) - 1):
            lhs = steps[t + 1].s_dual ** 2
            rhs = math.exp(-t * alpha_star * 0.5) * lead * (h0 - hstar)
            assert lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("problem", ["lse", "quadratic"])
def test_trivially_contracted_part_is_the_oracle_bitwise(problem):
    # a = A_next = 1 and A_prev = 0: the cubic baselines' smooth part is f itself
    if problem == "lse":
        oracle = lse_instance(20, 1.0, 0, 1.0).smooth
    else:
        oracle = _quadratic_oracle(np.random.default_rng(24), 20)
    smooth = _plain(oracle)
    x = np.random.default_rng(25).standard_normal(20)
    data = smooth.data(x)
    value, grad = oracle.value_and_grad(x)
    assert data.value == value
    assert np.array_equal(data.grad, grad) and np.array_equal(data.x, x)
    assert np.array_equal(smooth.hess(x), oracle.hess(x))
    assert _lipschitz(smooth, 2) == oracle.lipschitz[2]


class TestInnerLoopOrder2:
    def _lse_subproblem(self, rng, n=6, mu=1.0):
        obj = lse_instance(n, mu, 21, lipschitz_order2=2.0 / mu ** 2)
        x_prev = rng.standard_normal(n) * 0.2
        a, A_prev = 0.5, 1.0
        smooth = ContractedSmooth(obj.smooth, a, A_prev + a, x_prev, A_prev)
        prox = PowerProx(2, np.zeros(n), obj.metric)
        gamma = 1.0
        v = rng.standard_normal(n) * 0.3
        L_g = _lipschitz(smooth, 2)
        return Subproblem(p=2, metric=obj.metric, smooth=smooth, M=2 * L_g,
                          psi=ZeroComponent(n), weight=a, gamma=gamma, prox=prox,
                          anchor=prox.linearization(v))

    def test_monotone_and_progress_order2(self):
        rng = np.random.default_rng(19)
        sub = self._lse_subproblem(rng)
        _, _, steps = _inner(sub, rng.standard_normal(6) * 0.3, 1e-9, cap=300)
        assert len(steps) >= 1
        coef = (math.factorial(2) / (3.0 * _lipschitz(sub.smooth, 2))) ** 0.5
        for step in steps:
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
        hstar = _h(sub, inner_loop(sub, z0, 1e-12, cap=500)[0])
        h0 = _h(sub, z0)
        _, _, steps = _inner(sub, z0, 1e-9, cap=500)
        sigma_h = _divergence(sub)[0] * 0.5  # degree-3 uniform convexity constant
        L_g = _lipschitz(sub.smooth, 2)
        alpha_star = min(1.0, (math.factorial(2) * sigma_h / (3.0 * L_g)) ** 0.5)
        lead = (3.0 * L_g / 2.0) ** 0.5
        for t in range(len(steps) - 1):
            lhs = steps[t + 1].s_dual ** 1.5
            rhs = math.exp(-t * alpha_star * 2.0 / 3.0) * lead * (h0 - hstar)
            assert lhs <= rhs * (1 + 1e-6) + 1e-15


def test_model_objective_consistent_with_pieces():
    rng = np.random.default_rng(22)
    n = 4
    oracle = _quadratic_oracle(rng, n)
    metric = Metric.identity(n)
    prox = PowerProx(2, np.zeros(n), metric)
    sub = Subproblem(p=2, metric=metric, smooth=_plain(oracle), M=2.0, psi=ZeroComponent(n),
                     weight=0.3, gamma=1.2, prox=prox,
                     anchor=prox.linearization(rng.standard_normal(n)))
    x = rng.standard_normal(n)
    base = _data(sub.smooth, x, 2)
    y = rng.standard_normal(n)
    val, grad, _, _ = model_objective(sub, base, y, 0.0)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (model_objective(sub, base, y + e, 0.0)[0]
              - model_objective(sub, base, y - e, 0.0)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestNewtonSolve:
    @staticmethod
    def _cubic_model(A, b):
        n = len(b)
        sub = Subproblem(p=2, metric=Metric.identity(n),
                         smooth=_plain(QuadraticOracle(A, b, lam_max=1.0)), M=1.0,
                         psi=ZeroComponent(n), weight=0.0)
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
                         smooth=_plain(QuadraticOracle(A, b, lam_max=1.0)), M=1.0,
                         psi=ZeroComponent(3), weight=0.0)
        # the model at 0 of 1/2 <Ax, x> - <b, x>, built directly because
        # smooth.data rejects the NaN gradient an oracle query returns
        model = SmoothData(np.zeros(3), 0.0, -b, A)
        with pytest.raises(ValueError, match="infs or NaNs"):
            minimize_model_newton(sub, model, sub.phi(model.x), 1e-10, 0.0)

    @staticmethod
    def _factorizations(monkeypatch):
        """(matrix as passed, info) of each potrf call of ``metric.cholesky_solve``."""
        calls, potrf = [], metric_module._potrf

        def spy(a, **kwargs):
            as_passed = np.array(a)
            c, info = potrf(a, **kwargs)
            calls.append((as_passed, info))
            return c, info

        monkeypatch.setattr(metric_module, "_potrf", spy)
        return calls

    def test_indefinite_hessian_takes_the_jitter_path(self, monkeypatch):
        calls = self._factorizations(monkeypatch)
        sub, model = self._cubic_model(np.diag([2.0, 1.0, -1e-13]), np.array([1.0, -0.5, 0.0]))
        y, res, iters, _ = minimize_model_newton(sub, model, sub.phi(model.x), 1e-10, 0.0)
        assert any(info > 0 for _, info in calls) and iters >= 1 and res <= 1e-10
        assert (model_objective(sub, model, y, 0.0)[0]
                < model_objective(sub, model, np.zeros(3), 0.0)[0])

    def test_jitter_retry_factors_an_intact_matrix(self, monkeypatch):
        # a failed in-place factorization leaves a partial factor in the buffer;
        # the retry must factor H + jitter*I, not that factor plus jitter
        calls = self._factorizations(monkeypatch)
        A = np.diag([2.0, 1.0, -1e-13])
        sub, model = self._cubic_model(A, np.array([1.0, -0.5, 0.0]))
        minimize_model_newton(sub, model, sub.phi(model.x), 1e-10, 0.0)
        # at the base point r = 0, so the step Hessian is A itself
        jitter = 1e-12 * (1.0 + abs(float(np.trace(A))) / 3)
        assert calls[0][1] > 0 and calls[1][1] == 0
        np.testing.assert_array_equal(np.triu(calls[1][0]), np.triu(A + jitter * np.eye(3)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_each_jitter_retry_adds_to_the_matrix_as_given(self, monkeypatch, order):
        # an F-ordered H without ``refill`` is kept intact for its retries too
        H0 = np.array([[1.0, 0.5], [0.5, 0.25 - 1e-9]])
        H = np.array(H0, order=order)
        g = np.array([1.0, -2.0])
        calls = self._factorizations(monkeypatch)
        x = cholesky_solve(H, g)
        assert len(calls) >= 3 and calls[-1][1] == 0
        jitter = 1e-12 * (1.0 + abs(float(np.trace(H0))) / 2)
        for factored, _ in calls[1:]:
            np.testing.assert_array_equal(factored, H0 + jitter * np.eye(2))
            jitter *= 10.0
        np.testing.assert_array_equal(
            x, scipy.linalg.cho_solve(scipy.linalg.cho_factor(calls[-1][0]), g))
        if order == "C":
            np.testing.assert_array_equal(H, H0)
        calls.clear()
        with pytest.raises(scipy.linalg.LinAlgError):
            cholesky_solve(np.diag([1.0, -1.0]), g)
        assert len(calls) == 8

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
        sub, _ = _cubic_subproblem(obj, 1e-7)
        base = _data(sub.smooth, np.zeros(50), 2)
        _, _, converged_after, _ = minimize_model_newton(sub, base, sub.phi(base.x), 1e-17, 0.0)
        y, res, iters, _ = minimize_model_newton(sub, base, sub.phi(base.x), 1e-20, 0.0)
        assert converged_after <= 10 and iters <= 25 and res <= 1e-17
        # the best point comes back with its own residual, which callers certify
        assert res == sub.metric.dual_norm(model_objective(sub, base, y, 0.0)[1])

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


def _power_subproblem(rng, n, p, metric, div_order, psi_order, M=1.5, oracle=None):
    """A step subproblem on ``oracle``, by default a random quadratic, and the
    (psi, weight, gamma, prox) of its phi; a divergence or psi order of None leaves
    it out."""
    smooth = _plain(oracle or _quadratic_oracle(rng, n))
    psi, weight = ZeroComponent(n), 0.0
    if psi_order is not None:
        psi = PowerRegularizer(0.7, PowerProx(psi_order, rng.standard_normal(n), metric))
        weight = 1.3
    prox, gamma = None, 0.0
    if div_order is not None:
        prox, gamma = PowerProx(div_order, rng.standard_normal(n), metric), 0.9
    anchor = rng.standard_normal(n)
    return Subproblem(p, metric, smooth, M, psi, weight, gamma, prox,
                      prox and prox.linearization(anchor)), (psi, weight, gamma, prox)


@pytest.mark.parametrize("smooth", ["quadratic", "whitened-lse"])
@pytest.mark.parametrize("at", ["random", "base", "center"])
@pytest.mark.parametrize("p, div_order, psi_order", [
    (1, None, None), (1, 1, None), (1, None, 1), (1, 1, 1),
    (2, None, None), (2, 1, None), (2, 2, None), (2, None, 1), (2, None, 2), (2, 2, 2)])
def test_assembled_hessian_is_the_dense_sum(smooth, at, p, div_order, psi_order):
    rng = np.random.default_rng(31)
    n = 6
    obj = lse_instance(n, 0.5, 2, 1.0) if smooth == "whitened-lse" else None
    metric = obj.metric if obj else Metric.identity(n)
    sub, (psi, weight, gamma, prox) = _power_subproblem(rng, n, p, metric, div_order, psi_order,
                                                        oracle=obj and obj.smooth)
    base = _data(sub.smooth, rng.standard_normal(n), 2)
    # r = 0 at the base; ||w|| = 0 at a divergence or psi center
    y = {"random": rng.standard_normal(n), "base": base.x,
         "center": prox.center if gamma > 0 else
         psi.prox.center if weight > 0 else base.x}[at]
    dense = base.hess + sub.M / math.factorial(p) * power_hessian(metric, y - base.x, p)
    if gamma > 0:
        dense = dense + gamma * power_hessian(metric, y - prox.center, prox.order)
    if weight > 0:
        dense = dense + weight * psi.hess(y)
    H = np.empty((n, n), order="F")
    _, grad, terms, _ = model_objective(sub, base, y, 0.0)
    assemble_step_hessian(H, sub, base, terms, 0.0)
    scale = np.abs(dense).max()
    assert np.abs(np.triu(H) - np.triu(dense)).max() <= 1e-13 * scale
    step = cholesky_solve(H, grad)
    assert np.linalg.norm(dense @ step - grad) <= 1e-12 * scale * (np.linalg.norm(step) + 1.0)


@pytest.mark.parametrize("shift", [0.0, 0.25])
@pytest.mark.parametrize("rank_one", [True, False])
def test_diagonal_fill_is_bitwise_the_identity_product(rank_one, shift):
    # the coefficient on the diagonal gives every bit of coef * I^T + base.hess^T,
    # the fill of an identity metric matrix, signed zeros of the Hessian included:
    # without rank-one terms (order-1 phi, y at the base) a -0.0 entry reads +0.0
    rng = np.random.default_rng(32)
    n = 6
    order = 2 if rank_one else 1
    sub, _ = _power_subproblem(rng, n, 2, Metric.identity(n), order, order)
    base = _data(sub.smooth, rng.standard_normal(n), 2)
    base.hess = base.hess.copy()
    base.hess[0, 1] = base.hess[1, 0] = -0.0
    y = rng.standard_normal(n) if rank_one else base.x
    terms = model_objective(sub, base, y, 0.0)[2]
    H = assemble_step_hessian(np.empty((n, n), order="F"), sub, base, terms, shift)
    coef = [(c, *power_coefficients(r, q), w) for c, q, r, w in terms]
    want = np.empty((n, n), order="F")
    np.multiply(np.eye(n).T, shift + sum(c * alpha for c, alpha, _, _ in coef), out=want)
    want += base.hess.T
    syr, = scipy.linalg.get_blas_funcs(("syr",), (want,))
    for c, _, beta, w in coef:
        if beta:
            syr(c * beta, w, a=want, overwrite_a=True)
    assert any(beta for _, _, beta, _ in coef) == rank_one
    assert np.triu(H).tobytes() == np.triu(want).tobytes()
    assert rank_one or not np.signbit(H[0, 1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), rank=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       M=st.floats(1e-2, 1e2), gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1e2)),
       div_order=st.integers(1, 2),
       weight=st.one_of(st.just(0.0), st.floats(1e-3, 1e2)), sigma=st.floats(1e-3, 1e2),
       psi_order=st.integers(1, 2))
def test_newton_step_is_stationary_and_descends(n, rank, seed, M, gamma, div_order, weight,
                                                sigma, psi_order):
    # random p = 2 power-prox subproblems: PSD model Hessian, centers
    rng = np.random.default_rng(seed)
    metric = Metric.identity(n)
    C = rng.standard_normal((n, min(rank, n)))
    smooth = _plain(QuadraticOracle(C @ C.T, rng.standard_normal(n), lam_max=1.0))
    psi = PowerRegularizer(sigma, PowerProx(psi_order, rng.standard_normal(n), metric))
    prox = PowerProx(div_order, rng.standard_normal(n), metric)
    sub = Subproblem(2, metric, smooth, M, psi, weight, gamma, prox,
                     prox.linearization(rng.standard_normal(n)))
    base = _data(smooth, rng.standard_normal(n), 2)
    inner_tol = 1e-9 * (1.0 + metric.dual_norm(base.grad))
    point, residual, _, _ = tensor_step(sub, base, sub.phi(base.x), inner_tol, 0.0)
    assert residual <= inner_tol
    assert model_objective(sub, base, point, 0.0)[0] <= model_objective(sub, base, base.x, 0.0)[0]
