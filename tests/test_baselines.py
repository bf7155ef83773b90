import numpy as np
import pytest

from contraprox.baselines import (accelerated_cubic_newton,
                                  accelerated_gradient, classical_ppa,
                                  cubic_newton, gradient_method_ls)
from contraprox.bench import run_method
from contraprox.metric import Metric
from contraprox.objectives import (CompositeObjective, QuadraticOracle,
                                   ZeroComponent, alpha_for_condition_ratio,
                                   attach_reference, lse_instance,
                                   quadratic_instance)


def _one_dim():
    smooth = QuadraticOracle(np.array([[1.0]]), np.zeros(1), lam_max=1.0)
    return CompositeObjective(smooth, ZeroComponent(1), Metric.identity(1),
                              fstar=0.0, xstar=np.zeros(1))


class TestGradientMethod:
    def test_one_dimensional_convergence(self):
        tr = gradient_method_ls(_one_dim(), np.array([1.0]), 1e-10, 200)
        assert tr.status == "converged"
        assert tr.final.residual <= 1e-10

    def test_monotone_descent(self):
        obj = quadratic_instance(20, 2.0, 0)
        tr = gradient_method_ls(obj, np.zeros(20), 1e-7, 10000)
        f = tr.column("F")
        assert np.all(np.diff(f) <= 1e-12 * np.maximum(np.abs(f[:-1]), 1.0))

    def test_geometric_residual_decay_one_dim(self):
        tr = gradient_method_ls(_one_dim(), np.array([1.0]), 1e-12, 200)
        res = tr.column("residual")
        res = res[res > 0]
        assert np.all(res[1:] <= res[:-1] * (1 - 1e-6))

    def test_much_slower_than_agm_when_ill_conditioned(self):
        ratios = []
        for q in (1e-2, 1e-3, 1e-4):
            obj = quadratic_instance(30, alpha_for_condition_ratio(q), 1)
            gm = gradient_method_ls(obj, np.zeros(30), 1e-7, 500000)
            agm = accelerated_gradient(obj, np.zeros(30), 1e-7, 500000)
            ratios.append(gm.iterations / agm.iterations)
        # acceleration shows in how the gap scales, not in a fixed factor at
        # one condition number: gm needs O(kappa) iterations and agm
        # O(sqrt(kappa)), so gm/agm grows like sqrt(kappa).  From kappa_1 =
        # 1e2 to kappa_2 = 1e4 that is sqrt(kappa_2/kappa_1) = 10; half of it
        # leaves room for the constants and for gm's optimistic line search.
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] >= 0.5 * np.sqrt(1e4 / 1e2) * ratios[0]


class TestAcceleratedGradient:
    def test_first_coefficient_is_inverse_lipschitz(self):
        obj = quadratic_instance(10, 1.0, 0)
        tr = accelerated_gradient(obj, np.zeros(10), 1e-7, 10000)
        assert tr.records[1].a == pytest.approx(1.0 / obj.smooth.lipschitz[1], rel=1e-12)

    def test_coefficient_equation_residual(self):
        obj = quadratic_instance(10, 1.5, 2)
        L = obj.smooth.lipschitz[1]
        tr = accelerated_gradient(obj, np.zeros(10), 1e-7, 10000)
        A_prev = 0.0
        for rec in tr.records[1:]:
            assert abs(rec.a ** 2 - (rec.a + A_prev) / L) <= 1e-12 * max(rec.a ** 2, 1.0)
            A_prev = rec.A

    def test_quadratic_growth_of_coefficients(self):
        obj = quadratic_instance(10, 1.0, 3)
        L = obj.smooth.lipschitz[1]
        tr = accelerated_gradient(obj, np.zeros(10), 1e-12, 100)
        A_prev = 0.0
        for k, rec in enumerate(tr.records[1:], start=1):
            if rec.A == rec.A:  # may stop early on convergence
                assert rec.A >= k ** 2 / (4.0 * L) * (1 - 1e-12)
            A_prev = rec.A


class TestClassicalProximalPoint:
    def test_prox_step_matches_closed_form(self):
        obj = quadratic_instance(8, 1.0, 4)
        a = 1.0 / obj.smooth.lipschitz[1]
        tr = classical_ppa(obj, np.zeros(8), 1e-7, 2000)
        # first step: argmin a f(z) + ||z - 0||^2/2 = (I + aA)^{-1}(a b)
        A = obj.smooth.matrix
        closed = np.linalg.solve(np.eye(8) + a * A, a * obj.smooth.rhs)
        x1 = tr.records[1].x
        # inexact solve is within its first-iteration tolerance of the target
        assert np.linalg.norm(x1 - closed) <= 1.0  # delta_1 = 1
        grad_sub = a * (A @ x1 - obj.smooth.rhs) + x1
        assert np.linalg.norm(grad_sub) <= 1.0 + 1e-12

    def test_large_coefficient_single_step_near_optimum(self):
        obj = quadratic_instance(6, 1.0, 5)
        tr = classical_ppa(obj, np.zeros(6), 1e-3, 3000, a_const=1e6)
        # one huge prox step essentially minimizes f
        assert tr.records[1].residual <= 1e-2

    def test_monotone(self):
        obj = quadratic_instance(12, 1.5, 6)
        tr = classical_ppa(obj, np.zeros(12), 1e-7, 5000)
        f = tr.column("F")
        assert np.all(np.diff(f) <= 1e-10 * np.maximum(np.abs(f[:-1]), 1.0))

    def test_cpm_beats_ppa_in_matvecs(self):
        obj = quadratic_instance(40, alpha_for_condition_ratio(1e-2), 7)
        ppa = classical_ppa(obj, np.zeros(40), 1e-7, 100000)
        cpm = run_method("cptm-p1", obj, 1e-7, cap_outer=100000)
        assert cpm.oracle_total("matvec") < ppa.oracle_total("matvec")


class TestCubicNewton:
    def test_few_steps_on_quadratic(self):
        obj = quadratic_instance(10, 1.0, 8)
        tr = cubic_newton(obj, np.zeros(10), 1e-9, 100)
        assert tr.status == "converged"
        assert tr.iterations <= 20

    def test_monotone_descent(self):
        obj = lse_instance(10, 0.5, 9)
        attach_reference(obj)
        tr = cubic_newton(obj, np.zeros(10), 1e-8, 2000)
        f = tr.column("F")
        assert np.all(np.diff(f) <= 1e-11 * np.maximum(np.abs(f[:-1]), 1.0))

    def test_one_second_order_oracle_call_per_iteration(self):
        obj = lse_instance(8, 1.0, 10)
        attach_reference(obj)
        tr = cubic_newton(obj, np.zeros(8), 1e-8, 2000)
        assert tr.oracle_total("oracle_h") == tr.iterations + 1


class TestAcceleratedCubicNewton:
    def test_fast_rate_on_well_conditioned_lse(self):
        obj = lse_instance(20, 1.0, 0)
        attach_reference(obj)
        tr = accelerated_cubic_newton(obj, np.zeros(20), 1e-12, 2000)
        ks = np.arange(5, min(51, tr.iterations))
        res = np.array([tr.records[k].residual for k in ks])
        keep = res > 1e-13
        slope = np.polyfit(np.log(ks[keep]), np.log(res[keep]), 1)[0]
        assert slope <= -2.5

    def test_iterations_between_cptm_and_cubic_newton(self):
        from contraprox.bench import BENCH_LSE_LIPSCHITZ2
        obj = lse_instance(50, 1.0, 0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
        attach_reference(obj)
        cn = cubic_newton(obj, np.zeros(50), 1e-8, 5000)
        acn = accelerated_cubic_newton(obj, np.zeros(50), 1e-8, 5000)
        cptm = run_method("cptm-p2", obj, 1e-8, cap_outer=5000)
        assert cptm.iterations < acn.iterations < cn.iterations

    def test_two_oracle_queries_per_iteration(self):
        obj = lse_instance(8, 1.0, 11)
        attach_reference(obj)
        tr = accelerated_cubic_newton(obj, np.zeros(8), 1e-8, 2000)
        assert tr.oracle_total("oracle_g") == 2 * tr.iterations + 1

    def test_stops_on_gradient_norm_when_optimum_unknown(self):
        obj = lse_instance(8, 1.0, 11)
        assert obj.fstar is None
        tr = accelerated_cubic_newton(obj, np.zeros(8), 1e-8, 2000)
        assert tr.status == "converged"
        assert tr.final.s_norm <= 1e-8
        assert tr.records[-2].s_norm > 1e-8


def test_baselines_share_counter_semantics():
    obj = quadratic_instance(10, 1.0, 12)
    for fn in (gradient_method_ls, accelerated_gradient, classical_ppa):
        tr = fn(obj, np.zeros(10), 1e-6, 50000)
        # cumulative counters recorded per iteration and monotone
        mv = tr.column("matvec")
        assert np.all(np.diff(mv) >= 0)
        assert tr.oracle_total("matvec") == int(mv[-1])


@pytest.mark.parametrize("method", [accelerated_gradient, classical_ppa])
def test_first_order_methods_stop_on_gradient_norm_when_optimum_unknown(method):
    obj = quadratic_instance(10, 1.0, 12)
    fstar = obj.fstar
    obj.fstar = None
    tr = method(obj, np.zeros(10), 1e-6, 3000)
    assert tr.status == "converged"
    x = tr.final.x
    assert obj.smooth.value(x) - fstar <= 2e-12
    if method is classical_ppa:
        # ppa stops on the gradient at x_K itself
        assert np.linalg.norm(obj.smooth.grad(x)) <= 1e-6
    else:
        # agm stops on the gradient at its look-ahead point, recorded as s_norm
        assert tr.final.s_norm <= 1e-6 < tr.records[-2].s_norm
