import math

import numpy as np
import pytest

from contraprox.bench import build_instance, run_method
from contraprox.bregman import PowerProx
from contraprox.contracting import (ConstantDelta, GeometricSchedule,
                                    OuterState, PowerDelta,
                                    RunCaps, SublinearSchedule,
                                    TheoremConvexDelta, complexity_convex,
                                    complexity_strongly_convex,
                                    contracting_step, contraction_point,
                                    contraction_rate, convex_inner_accuracy,
                                    geometric_iteration_count,
                                    inexact_certificate_bound, order_dependence,
                                    run_contracting_proximal, schedule_convex,
                                    schedule_strongly_convex)
from contraprox.metric import Metric
from contraprox.objectives import (CompositeObjective, PowerRegularizer,
                                   QuadraticOracle, SolverError, ZeroComponent,
                                   attach_reference, lse_instance,
                                   quadratic_instance, reference_optimum)
from contraprox.tensor_steps import InnerLoopError


def _one_dim_objective():
    smooth = QuadraticOracle(np.array([[1.0]]), np.zeros(1), lam_max=1.0)
    return CompositeObjective(smooth, ZeroComponent(1), Metric.identity(1),
                              fstar=0.0, xstar=np.zeros(1))


class TestContractionPoint:
    def test_zero_history_returns_v(self):
        v, x = np.array([2.0, 3.0]), np.array([9.0, 9.0])
        np.testing.assert_allclose(contraction_point(1.5, 0.0, v, x), v)

    def test_equal_weights_give_midpoint(self):
        v, x = np.array([2.0]), np.array([4.0])
        assert contraction_point(1.0, 1.0, v, x)[0] == pytest.approx(3.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, A = rng.uniform(0.1, 2), rng.uniform(0, 5)
            v, x = rng.standard_normal(3), rng.standard_normal(3)
            expected = (a * v + A * x) / (A + a)
            np.testing.assert_allclose(contraction_point(a, A, v, x), expected)


class TestOneDimensionalHandExample:
    """f(x) = x^2/2, start at 1, one exact step with a_1 = 1, gamma0 = 1."""

    def test_step_lands_at_half(self):
        obj = _one_dim_objective()
        prox = PowerProx(1, np.array([1.0]), obj.metric)
        state = OuterState(0, 0.0, 1.0, np.array([1.0]), np.array([1.0]))
        new, res = contracting_step(state, obj.fresh(), prox, 1.0, 1e-13)
        assert new.v[0] == pytest.approx(0.5, abs=1e-12)
        assert new.x[0] == pytest.approx(0.5, abs=1e-12)
        assert new.A == 1.0 and new.gamma == 1.0

    def test_certificate_value_after_one_step(self):
        # A_1 (F(x_1)-F*) + gamma_1 D(v_1;x*) + gamma_1 D(v_0;v_1) = 0.375 <= 0.5
        obj = _one_dim_objective()
        prox = PowerProx(1, np.array([1.0]), obj.metric)
        state = OuterState(0, 0.0, 1.0, np.array([1.0]), np.array([1.0]))
        new, res = contracting_step(state, obj.fresh(), prox, 1.0, 1e-13)
        xstar = np.zeros(1)
        lhs = (new.A * (0.5 * new.x[0] ** 2 - 0.0)
               + new.gamma * prox.divergence(new.v, xstar)
               + new.gamma * prox.divergence(state.v, new.v))
        rhs = 1.0 * prox.divergence(np.array([1.0]), xstar)
        assert lhs == pytest.approx(0.375, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert lhs <= rhs

    def test_zero_modulus_keeps_gamma(self):
        obj = _one_dim_objective()
        prox = PowerProx(1, np.array([1.0]), obj.metric)
        state = OuterState(0, 0.0, 1.0, np.array([1.0]), np.array([1.0]))
        new, _ = contracting_step(state, obj.fresh(), prox, 1.0, 1e-13)
        assert new.gamma == state.gamma

    def test_first_step_ignores_x0(self):
        obj = _one_dim_objective()
        prox = PowerProx(1, np.array([1.0]), obj.metric)
        state = OuterState(0, 0.0, 1.0, np.array([123.0]), np.array([1.0]))
        new, _ = contracting_step(state, obj.fresh(), prox, 1.0, 1e-13)
        assert new.x[0] == pytest.approx(new.v[0], abs=1e-14)


class TestSchedules:
    def test_convex_constants_order2(self):
        sched = schedule_convex(2, 1.0, 1.0)
        assert sched.c == pytest.approx(1.0 / 81.0, rel=1e-14)
        assert sched.next_a(0, 0.0) == pytest.approx(1.0 / 27.0, rel=1e-14)

    def test_convex_constants_order1(self):
        sched = schedule_convex(1, 1.0, 1.0)
        assert sched.c == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert sched.next_a(0, 0.0) == pytest.approx(1.0 / 4.0, rel=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sublinear_growth_bounds(self, p):
        sched = schedule_convex(p, 1.3, 0.7)
        A = 0.0
        for k in range(50):
            A += sched.next_a(k, A)
            assert sched.lower(k + 1) * (1 - 1e-12) <= A <= sched.upper(k + 1) * (1 + 1e-12)

    def test_contraction_rate_formula(self):
        assert contraction_rate(2, 1.0, 1.0) == pytest.approx(0.5)
        assert contraction_rate(1, 1.0, 1.0) == pytest.approx(0.5)
        # below the cap the root formula applies
        w = contraction_rate(1, 0.01, 1.0)
        assert w == pytest.approx((0.01 / 2.0) ** 0.5, rel=1e-12)

    def test_geometric_first_coefficient(self):
        sched = schedule_strongly_convex(1, 0.5, 1.0, gamma0=1.0)
        c = schedule_convex(1, 1.0, 1.0).c
        assert sched.next_a(0, 0.0) == pytest.approx(2 * c, rel=1e-14)
        A1 = sched.next_a(0, 0.0)
        a2 = sched.next_a(1, A1)
        w = sched.omega
        assert a2 == pytest.approx(w / (1 - w) * A1, rel=1e-14)

    def test_geometric_exponential_bounds(self):
        sched = schedule_strongly_convex(1, 0.2, 1.0)
        w = sched.omega
        A = 0.0
        A_values = []
        for k in range(200):
            A += sched.next_a(k, A)
            A_values.append(A)
        A1 = A_values[0]
        e = math.e
        for k, A in enumerate(A_values, start=1):
            assert A >= A1 * math.exp(w * (k - 1)) * (1 - 1e-12)
            assert A <= A1 * math.exp(w * e / (e - 1) * (k - 1)) * (1 + 1e-12)


class TestCertificateBound:
    def test_zero_accuracies_reduce_to_initial_divergence(self):
        val = inexact_certificate_bound(2, 1.5, 0.0, 3.0, 0.5,
                                        np.zeros(5), np.ones(5))
        assert val == pytest.approx(1.5 * 3.0, rel=1e-12)

    def test_empty_history(self):
        val = inexact_certificate_bound(1, 2.0, 0.0, 1.0, 1.0, [], [])
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_power_accuracy_summation_bound(self):
        # direct summation stays below the closed-form tail bound c*s/(s-1)
        p, gamma0, sigma_u = 1, 1.0, 1.0
        c, s = 0.3, 2.0
        K = 200
        deltas = np.array([c / k ** s for k in range(1, K + 1)])
        A_vals = np.arange(1, K + 1, dtype=float)
        bound = inexact_certificate_bound(p, gamma0, 0.0, 2.0, sigma_u, deltas, A_vals)
        closed = ((gamma0 * 2.0) ** (p / (p + 1))
                  + ((p + 1) / (gamma0 * sigma_u)) ** (1 / (p + 1))
                  * c * s / (s - 1)) ** ((p + 1) / p)
        assert bound <= closed * (1 + 1e-12)

    def test_monotone_in_accuracies(self):
        small = inexact_certificate_bound(1, 1.0, 0.0, 1.0, 1.0, [1e-6] * 3, [1, 2, 3])
        big = inexact_certificate_bound(1, 1.0, 0.0, 1.0, 1.0, [1e-2] * 3, [1, 2, 3])
        assert small < big


class TestComplexityFormulas:
    def test_convex_reference_point(self):
        delta, K, nk = complexity_convex(1, 1.0, 1.0, 1.0, 1.0)
        assert delta == pytest.approx(0.125, abs=1e-12)
        assert K == 6
        assert nk > 0

    def test_order_dependence_reference_row(self):
        delta, K = order_dependence(1)
        assert delta == pytest.approx(0.125, abs=1e-12)
        assert K == pytest.approx(1.0 + 2.0 * math.sqrt(8.0), rel=1e-12)

    def test_accuracy_schedule_halves_per_order(self):
        for p in range(1, 7):
            delta, _ = order_dependence(p)
            assert math.log2(delta) <= -p

    def test_iteration_count_bounded(self):
        for p in range(1, 11):
            _, K = order_dependence(p)
            assert K <= 8.0

    def test_strongly_convex_iteration_assembly(self):
        assert geometric_iteration_count(0.5, 1.0) == 4

    def test_strongly_convex_accuracy_homogeneity(self):
        d1, _, _ = complexity_strongly_convex(1, 1.0, 1.0, 1.0, 1.0, 1e-4)
        d2, _, _ = complexity_strongly_convex(1, 1.0, 1.0, 1.0, 1.0, 2e-4)
        assert d2 / d1 == pytest.approx(2.0 ** 0.5, rel=1e-12)
        d1, _, _ = complexity_strongly_convex(2, 1.0, 1.0, 1.0, 1.0, 1e-4)
        d2, _, _ = complexity_strongly_convex(2, 1.0, 1.0, 1.0, 1.0, 2e-4)
        assert d2 / d1 == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_constant_accuracy_endgame(self):
        # with the theorem's constant accuracy and iteration count, the
        # certificate bound drops below eps * A_k
        p, gamma0, L, eps = 1, 1.0, 1.0, 1e-3
        sched = schedule_convex(p, gamma0, L)
        c = sched.c
        bregman0 = 1.0
        sigma_u = 1.0
        k_min = math.ceil((gamma0 * bregman0 / (c * eps)) ** (1.0 / (p + 1))
                          * 2.0 ** (1.0 / p))
        delta = ((c * eps) ** (p / (p + 1.0)) / 2.0
                 * (gamma0 * sigma_u / (p + 1)) ** (1.0 / (p + 1)))
        A = 0.0
        A_list = []
        for k in range(k_min):
            A += sched.next_a(k, A)
            A_list.append(A)
        bound = inexact_certificate_bound(p, gamma0, 0.0, bregman0, sigma_u,
                                          [delta] * k_min, A_list)
        assert bound <= eps * A_list[-1] * (1 + 1e-12)

    def test_theorem_delta_matches_formula(self):
        sched = TheoremConvexDelta(1e-5)
        fn = sched.resolve({"p": 2, "gamma0": 1.0, "lipschitz": 1.0, "omega": None})
        assert fn(3) == pytest.approx(convex_inner_accuracy(2, 1.0, 1.0, 1e-5), rel=1e-14)


class TestRunContractingProximal:
    def test_exact_regime_residual_envelope(self):
        # with machine-tight inner solves the residual obeys gamma0*D0/A_k
        obj = quadratic_instance(2, 1.0, 0)
        prox = PowerProx(1, np.zeros(2), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        tr = run_contracting_proximal(obj, prox, sched, ConstantDelta(1e-12),
                                      eps=None, caps=RunCaps(outer=60))
        d0 = prox.divergence(np.zeros(2), obj.xstar)
        for rec in tr.records[1:]:
            assert rec.residual <= d0 / rec.A * (1 + 1e-9) + 1e-15

    def test_rate_fit_order1(self):
        obj = quadratic_instance(20, 2.0, 1)
        prox = PowerProx(1, np.zeros(20), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        tr = run_contracting_proximal(obj, prox, sched, ConstantDelta(1e-10),
                                      eps=None, caps=RunCaps(outer=30))
        ks = np.arange(5, 31)
        res = np.array([tr.records[k].residual for k in ks])
        slope = np.polyfit(np.log(ks), np.log(res), 1)[0]
        assert slope <= -1.7

    def test_gamma_telescope_along_run(self):
        obj = quadratic_instance(6, 1.0, 2)
        prox = PowerProx(1, np.zeros(6), obj.metric)
        psi = PowerRegularizer(0.25, prox)
        comp = obj.with_simple(psi)
        attach_reference(comp)
        sched = schedule_strongly_convex(1, 0.25, comp.smooth.lipschitz[1])
        tr = run_contracting_proximal(comp, prox, sched, PowerDelta(1.0, 2.0),
                                      eps=None, caps=RunCaps(outer=40))
        for rec in tr.records:
            assert rec.gamma == pytest.approx(1.0 + 0.25 * rec.A, rel=1e-12)

    def test_outer_cap_with_target_raises(self):
        obj = quadratic_instance(10, 3.0, 3)
        prox = PowerProx(1, np.zeros(10), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        with pytest.raises(SolverError):
            run_contracting_proximal(obj, prox, sched, PowerDelta(1.0, 2.0),
                                     eps=1e-12, caps=RunCaps(outer=3))

    def test_certificate_termination_without_fstar(self):
        obj = quadratic_instance(8, 1.0, 4)
        blind = CompositeObjective(obj.smooth, obj.simple, obj.metric,
                                   fstar=None, xstar=None,
                                   descriptor=dict(obj.descriptor))
        prox = PowerProx(1, np.zeros(8), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        d0 = prox.divergence(np.zeros(8), obj.xstar)
        tr = run_contracting_proximal(blind, prox, sched, ConstantDelta(1e-9),
                                      eps=1e-4, caps=RunCaps(outer=5000),
                                      bregman0_bound=2.0 * d0)
        assert tr.status == "converged"
        true_resid = obj.value(tr.records[-1].x) - obj.fstar
        assert true_resid <= 1e-4

    def test_certificate_stop_is_tested_on_the_cap_row(self):
        obj = quadratic_instance(8, 1.0, 4)
        blind = CompositeObjective(obj.smooth, obj.simple, obj.metric,
                                   fstar=None, xstar=None,
                                   descriptor=dict(obj.descriptor))
        prox = PowerProx(1, np.zeros(8), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        d0 = prox.divergence(np.zeros(8), obj.xstar)

        def run(cap):
            return run_contracting_proximal(blind, prox, sched, ConstantDelta(1e-9),
                                            eps=1e-4, caps=RunCaps(outer=cap),
                                            bregman0_bound=2.0 * d0)

        K = run(5000).iterations
        tr = run(K)
        assert (tr.status, tr.iterations) == ("converged", K)
        with pytest.raises(SolverError, match=f"cptm-p1 exhausted {K - 1} iterations"):
            run(K - 1)

    def test_underestimated_l1_ends_in_an_inner_loop_error(self):
        # steps sized for L1/10 overshoot, so the inner loop's certified norm
        # grows instead of falling, and the run stops at the inner cap (15)
        obj = build_instance("quadratic", 20, 0, q=1e-2)
        f = obj.smooth
        wrong = CompositeObjective(QuadraticOracle(f.matrix, f.rhs, lam_max=f.lipschitz[1] / 10),
                                   obj.simple, obj.metric, obj.fstar, obj.xstar,
                                   dict(obj.descriptor))
        with pytest.raises(InnerLoopError, match="cap of 15 steps.*check the Lipschitz"):
            run_method("cptm-p1", wrong, 1e-7)

    def test_mismatched_schedule_order_rejected(self):
        obj = quadratic_instance(4, 1.0, 0)
        prox = PowerProx(2, np.zeros(4), obj.metric)
        sched = schedule_convex(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            run_contracting_proximal(obj, prox, sched, ConstantDelta(1e-6))

    def test_custom_schedule_quadratic_rule(self):
        # coefficients from a^2 = (a + A)/L make the contracted part's
        # Lipschitz constant exactly gamma0
        obj = quadratic_instance(10, 2.0, 5)
        L = obj.smooth.lipschitz[1]

        class QuadraticEquationSchedule:
            kind, p = "quadratic-equation", 1

            def next_a(self, k, A):
                return (1.0 + math.sqrt(1.0 + 4.0 * L * A)) / (2.0 * L)

            def describe(self):
                return {"kind": self.kind, "p": self.p}

        sched = QuadraticEquationSchedule()
        prox = PowerProx(1, np.zeros(10), obj.metric)
        tr = run_contracting_proximal(obj, prox, sched, PowerDelta(1.0, 2.0),
                                      eps=1e-7, caps=RunCaps(outer=5000))
        assert tr.status == "converged"
        for rec in tr.records[1:]:
            assert rec.lipschitz_g == pytest.approx(1.0, rel=1e-9)
