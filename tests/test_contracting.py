import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraprox import contracting
from contraprox.bench import build_instance, run_method
from contraprox.bregman import PowerProx
from contraprox.contracting import (SublinearSchedule, contraction_point, contraction_rate,
                                    contracted_lipschitz, convex_inner_accuracy, delta_rule,
                                    inexact_certificate_bounds, inner_iteration_bound,
                                    order_dependence,
                                    run_contracting_proximal, schedule_convex,
                                    schedule_strongly_convex,
                                    strongly_convex_inner_accuracy)
from contraprox.metric import Metric
from contraprox.objectives import (CompositeObjective, PowerRegularizer,
                                   QuadraticOracle, SolverError, ZeroComponent,
                                   attach_reference, power_regularizer_component,
                                   quadratic_instance)
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


_COORDS = st.floats(-1e3, 1e3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(a=st.floats(1e-6, 1e6), A_prev=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
       pairs=st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6))
def test_contraction_point_is_the_weighted_mean(a, A_prev, pairs):
    v, x_prev = np.array(pairs).T
    x = contraction_point(a, A_prev, v, x_prev)
    scale = np.maximum(np.abs(v), np.abs(x_prev))
    tol = 1e-12 * scale + 1e-300
    assert np.all(np.minimum(v, x_prev) - tol <= x)
    assert np.all(x <= np.maximum(v, x_prev) + tol)
    # the weights balance: a (v - x) + A_prev (x_prev - x) = 0 up to rounding
    np.testing.assert_allclose(a * (v - x) + A_prev * (x_prev - x), 0.0,
                               atol=1e-12 * (a + A_prev) * scale.max() + 1e-300)


class TestOneDimensionalHandExample:
    """f(x) = x^2/2, start at 1, one exact step with a_1 = 1, gamma0 = 1."""

    @staticmethod
    def one_step():
        obj = _one_dim_objective()
        prox = PowerProx(1, np.array([1.0]), obj.metric)
        # a_1 = c (p + 1) = 1; eps lies between the residuals of row 0 (0.5) and row 1
        # (0.125), so the run stops after its one step
        trace = run_contracting_proximal(obj, prox, SublinearSchedule(0.5, 1), "const:1e-13",
                                         0.25, cap_outer=1, gamma0=1.0)
        assert trace.iterations == 1
        return prox, trace.records[0], trace.records[1]

    def test_step_lands_at_half(self):
        _, _, rec = self.one_step()
        assert rec.v[0] == pytest.approx(0.5, abs=1e-12)
        assert rec.x[0] == pytest.approx(0.5, abs=1e-12)
        assert rec.A == 1.0 and rec.gamma == 1.0

    def test_certificate_value_after_one_step(self):
        # A_1 (F(x_1)-F*) + gamma_1 D(v_1;x*) + gamma_1 D(v_0;v_1) = 0.375 <= 0.5
        prox, start, rec = self.one_step()
        xstar = np.zeros(1)
        lhs = (rec.A * (0.5 * rec.x[0] ** 2 - 0.0)
               + rec.gamma * prox.divergence(rec.v, xstar)
               + rec.gamma * prox.divergence(start.v, rec.v))
        rhs = 1.0 * prox.divergence(np.array([1.0]), xstar)
        assert lhs == pytest.approx(0.375, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert lhs <= rhs

    def test_zero_modulus_keeps_gamma(self):
        _, start, rec = self.one_step()
        assert rec.gamma == start.gamma == 1.0


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

    @pytest.mark.parametrize("lipschitz, gamma0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_strongly_convex_schedule_needs_positive_constants(self, lipschitz, gamma0):
        # L = 0 divided by zero in the contraction rate, L < 0 took a complex power
        with pytest.raises(ValueError, match="Lipschitz constant must be positive"):
            schedule_strongly_convex(1, 1e-3, lipschitz, gamma0)

    def test_order2_run_on_a_quadratic_with_psi_is_refused(self):
        # a quadratic's L_2 is 0, so no geometric order-2 schedule exists
        obj = build_instance("quadratic", 10, 0, q=1e-2)
        prox = PowerProx(1, np.zeros(10), obj.metric)
        obj = obj.with_simple(power_regularizer_component(1e-3, prox))
        with pytest.raises(ValueError, match="Lipschitz constant must be positive"):
            run_method("cptm-p2", obj, 1e-7)

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
        sched = schedule_strongly_convex(1, 0.2, 1.0, 1.0)
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
        val = inexact_certificate_bounds(2, 1.5, 0.0, 3.0, 0.5,
                                         np.zeros(5), np.ones(5))[-1]
        assert val == pytest.approx(1.5 * 3.0, rel=1e-12)

    def test_empty_history(self):
        val = inexact_certificate_bounds(1, 2.0, 0.0, 1.0, 1.0, [], [])[-1]
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_power_accuracy_summation_bound(self):
        # direct summation stays below the closed-form tail bound c*s/(s-1)
        p, gamma0, sigma_u = 1, 1.0, 1.0
        c, s = 0.3, 2.0
        K = 200
        deltas = np.array([c / k ** s for k in range(1, K + 1)])
        A_vals = np.arange(1, K + 1, dtype=float)
        bound = inexact_certificate_bounds(p, gamma0, 0.0, 2.0, sigma_u, deltas, A_vals)[-1]
        closed = ((gamma0 * 2.0) ** (p / (p + 1))
                  + ((p + 1) / (gamma0 * sigma_u)) ** (1 / (p + 1))
                  * c * s / (s - 1)) ** ((p + 1) / p)
        assert bound <= closed * (1 + 1e-12)

    def test_monotone_in_accuracies(self):
        small = inexact_certificate_bounds(1, 1.0, 0.0, 1.0, 1.0, [1e-6] * 3, [1, 2, 3])[-1]
        big = inexact_certificate_bounds(1, 1.0, 0.0, 1.0, 1.0, [1e-2] * 3, [1, 2, 3])[-1]
        assert small < big


def _bound_reference(p, gamma0, sigma_simple, bregman0, sigma_uniform, deltas, A_values):
    """The certificate bound after all given steps, summed directly."""
    gammas = gamma0 + sigma_simple * np.asarray(A_values, dtype=float)
    acc = float(np.sum(np.asarray(deltas, dtype=float) / gammas ** (1.0 / (p + 1))))
    return ((gamma0 * bregman0) ** (p / (p + 1.0))
            + ((p + 1.0) / sigma_uniform) ** (1.0 / (p + 1)) * acc) ** ((p + 1.0) / p)


_HISTORY = dict(p=st.integers(1, 3), gamma0=st.floats(1e-3, 1e3),
                sigma_simple=st.one_of(st.just(0.0), st.floats(1e-4, 1e2)),
                bregman0=st.floats(0.0, 1e3), sigma_uniform=st.floats(1e-2, 1.0),
                steps=st.lists(st.tuples(st.floats(0.0, 1e2), st.floats(1e-3, 1e3),
                                         st.floats(0.0, 1e2)), max_size=40))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(**_HISTORY)
def test_prefix_bounds_are_the_bound_of_each_prefix(p, gamma0, sigma_simple, bregman0,
                                                   sigma_uniform, steps):
    deltas = [d for d, _, _ in steps]
    A_values = np.cumsum([a for _, a, _ in steps])
    head = (p, gamma0, sigma_simple, bregman0, sigma_uniform)
    bounds = inexact_certificate_bounds(*head, deltas, A_values)
    assert bounds.shape == (len(steps) + 1,)
    for k in range(len(steps) + 1):
        assert bounds[k] == pytest.approx(
            inexact_certificate_bounds(*head, deltas[:k], A_values[:k])[-1], rel=1e-12)
        assert bounds[k] == pytest.approx(
            _bound_reference(*head, deltas[:k], A_values[:k]), rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(**_HISTORY)
def test_bound_is_monotone_in_the_accuracies(p, gamma0, sigma_simple, bregman0,
                                             sigma_uniform, steps):
    deltas = np.array([d for d, _, _ in steps])
    larger = deltas + np.array([extra for _, _, extra in steps])
    A_values = np.cumsum([a for _, a, _ in steps])
    head = (p, gamma0, sigma_simple, bregman0, sigma_uniform)
    small = inexact_certificate_bounds(*head, deltas, A_values)
    big = inexact_certificate_bounds(*head, larger, A_values)
    # equal up to the last rounding of the final power where the accuracies barely differ
    assert np.all(big >= small * (1 - 1e-14))


class TestComplexityFormulas:
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

    def test_strongly_convex_accuracy_homogeneity(self):
        # delta scales as eps^{p/(p+1)} at a fixed contraction rate
        for p in (1, 2):
            omega = contraction_rate(p, 1.0, 1.0)
            d1 = strongly_convex_inner_accuracy(p, 1.0, 1.0, omega, 1e-4)
            d2 = strongly_convex_inner_accuracy(p, 1.0, 1.0, omega, 2e-4)
            assert d2 / d1 == pytest.approx(2.0 ** (p / (p + 1.0)), rel=1e-12)

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
        bound = inexact_certificate_bounds(p, gamma0, 0.0, bregman0, sigma_u,
                                            [delta] * k_min, A_list)[-1]
        assert bound <= eps * A_list[-1] * (1 + 1e-12)


class TestDeltaRule:
    @pytest.mark.parametrize("text, omega, header, delta1, delta4", [
        ("const:1e-6", None, '{"kind": "constant", "delta": 1e-06}', 1e-6, 1e-6),
        ("power:0.5,3", None, '{"kind": "power", "c": 0.5, "s": 3.0}', 0.5, 0.5 / 64),
        ("theorem", None, '{"kind": "theorem_convex", "eps": 1.0}', 0.125, 0.125),
        ("theorem", 0.5, '{"kind": "theorem_strongly_convex", "eps": 1.0}',
         0.5 / (2.0 * 2.0 ** 2.5), 0.5 / (2.0 * 2.0 ** 2.5)),
    ])
    def test_rule_and_description(self, text, omega, header, delta1, delta4):
        # p = 1 and gamma0 = L = eps = 1; the description is the header's
        # delta_schedule entry, byte for byte, and delta_k is pinned at k = 1 and 4
        fn, description = delta_rule(text, 1, 1.0, 1.0, omega, 1)
        assert json.dumps(description) == header
        assert fn(1) == pytest.approx(delta1, rel=1e-15)
        assert fn(4) == pytest.approx(delta4, rel=1e-15)

    def test_theorem_values_are_the_accuracy_formulas(self):
        fn, _ = delta_rule("theorem", 2, 1.5, 0.7, None, 1e-5)
        assert fn(3) == convex_inner_accuracy(2, 1.5, 0.7, 1e-5)
        fn, _ = delta_rule("theorem", 2, 1.5, 0.7, 0.2, 1e-5)
        assert fn(3) == strongly_convex_inner_accuracy(2, 1.5, 0.7, 0.2, 1e-5)

    @pytest.mark.parametrize("text, eps", [
        ("const:inf", 1e-7), ("const:nan", 1e-7), ("const:0", 1e-7), ("const:", 1e-7),
        ("power:inf,2", 1e-7), ("power:1,inf", 1e-7), ("power:1,nan", 1e-7),
        ("power:1,1", 1e-7), ("power:-1,2", 1e-7), ("power:1", 1e-7),
        ("theorem", math.inf), ("bogus", 1e-7),
    ])
    def test_bad_text_is_rejected(self, text, eps):
        with pytest.raises(ValueError):
            delta_rule(text, 1, 1.0, 1.0, None, eps)

    def test_bad_text_is_rejected_before_the_run_starts(self, monkeypatch):
        # const:inf ran 5,000 outer iterations before the cap ended it
        def no_drive(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(contracting, "drive", no_drive)
        obj = quadratic_instance(4, 1.0, 0)
        prox = PowerProx(1, np.zeros(4), obj.metric)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            run_contracting_proximal(obj, prox, schedule_convex(1, 1.0, 1.0), "const:inf",
                                     1e-7, cap_outer=5000, gamma0=1.0)


class TestRunContractingProximal:
    def test_exact_regime_residual_envelope(self):
        # with machine-tight inner solves the residual obeys gamma0*D0/A_k
        obj = quadratic_instance(2, 1.0, 0)
        prox = PowerProx(1, np.zeros(2), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        tr = run_contracting_proximal(obj, prox, sched, "const:1e-12", 1e-12,
                                      cap_outer=1000, gamma0=1.0)
        assert tr.iterations >= 60
        d0 = prox.divergence(np.zeros(2), obj.xstar)
        for rec in tr.records[1:]:
            assert rec.residual <= d0 / rec.A * (1 + 1e-9) + 1e-15

    def test_rate_fit_order1(self):
        obj = quadratic_instance(20, 2.0, 1)
        prox = PowerProx(1, np.zeros(20), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        tr = run_contracting_proximal(obj, prox, sched, "const:1e-10", 1e-8,
                                      cap_outer=1000, gamma0=1.0)
        assert tr.iterations >= 30
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
        sched = schedule_strongly_convex(1, 0.25, comp.smooth.lipschitz[1], 1.0)
        tr = run_contracting_proximal(comp, prox, sched, "power:1.0,2.0", 1e-12,
                                      cap_outer=1000, gamma0=1.0)
        assert tr.iterations >= 20
        for rec in tr.records:
            assert rec.gamma == pytest.approx(1.0 + 0.25 * rec.A, rel=1e-12)

    def test_outer_cap_with_target_raises(self):
        obj = quadratic_instance(10, 3.0, 3)
        prox = PowerProx(1, np.zeros(10), obj.metric)
        sched = schedule_convex(1, 1.0, obj.smooth.lipschitz[1])
        with pytest.raises(SolverError):
            run_contracting_proximal(obj, prox, sched, "power:1.0,2.0", 1e-12,
                                     cap_outer=3, gamma0=1.0)

    def test_underestimated_l1_ends_in_an_inner_loop_error(self):
        # steps sized for L1/10 overshoot, so the inner loop's certified norm
        # grows instead of falling, and the run stops at the inner cap (14)
        obj = build_instance("quadratic", 20, 0, q=1e-2)
        f = obj.smooth
        wrong = CompositeObjective(QuadraticOracle(f.matrix, f.rhs, lam_max=f.lipschitz[1] / 10),
                                   obj.simple, obj.metric, obj.fstar, obj.xstar,
                                   dict(obj.descriptor))
        with pytest.raises(InnerLoopError, match="cap of 14 steps.*check the Lipschitz"):
            run_method("cptm-p1", wrong, 1e-7)

    def test_mismatched_schedule_order_rejected(self):
        obj = quadratic_instance(4, 1.0, 0)
        prox = PowerProx(2, np.zeros(4), obj.metric)
        sched = schedule_convex(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            run_contracting_proximal(obj, prox, sched, "const:1e-6", 1e-7,
                                     cap_outer=5000, gamma0=1.0)

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
        tr = run_contracting_proximal(obj, prox, sched, "power:1.0,2.0", 1e-7,
                                      cap_outer=5000, gamma0=1.0)
        assert tr.status == "converged"
        for rec in tr.records[1:]:
            assert contracted_lipschitz(1, rec.a, rec.A, L) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("run", ["cptm-p1-psi", "cptm-p2"])
def test_recorded_divergences_are_prox_divergence_bitwise(run):
    # the run prices D(v_{k-1}; v_k) and D(v_k; x*) from one linearization of d
    # per v_k and one d(x*), through the formula prox.divergence uses
    if run == "cptm-p2":
        obj, method = build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=2.0), "cptm-p2"
    else:
        obj, method = build_instance("quadratic", 20, 0, q=1e-2, sigma=1e-4), "cptm-p1"
    trace = run_method(method, obj, 1e-7)
    prox = PowerProx(trace.header["p"], np.zeros(obj.dim), obj.metric)
    assert trace.iterations >= 20
    assert trace[0].bregman_vstar == prox.divergence(trace[0].v, obj.xstar)
    for prev, rec in zip(trace[:-1], trace[1:]):
        assert rec.bregman_step == prox.divergence(prev.v, rec.v)
        assert rec.bregman_vstar == prox.divergence(rec.v, obj.xstar)


@pytest.mark.parametrize("p", [1, 2])
def test_inner_budget_of_an_extreme_delta(p):
    # delta^{(p+1)/p} underflows to 0 at 1e-250 (a ZeroDivisionError once) and
    # overflows at 1e250 (an OverflowError once): no finite count, and the
    # clamped log's 2
    args = (p, 1.0, 1.0, 2.0, 1.0)
    assert inner_iteration_bound(*args, 1e-250, 1.0, 1.0) == math.inf
    assert inner_iteration_bound(*args, 1e250, 1.0, 1.0) == 2.0
    assert math.isfinite(inner_iteration_bound(*args, 1e-6, 1.0, 1.0))
