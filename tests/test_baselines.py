import numpy as np
import pytest

from contraprox import baselines, tensor_steps
from contraprox.baselines import (_cubic_subproblem, accelerated_cubic_newton,
                                  accelerated_gradient, classical_ppa,
                                  cubic_newton, gradient_method_ls)
from contraprox.bench import build_instance, run_method
from contraprox.metric import Metric
from contraprox.objectives import (CompositeObjective, QuadraticOracle,
                                   ZeroComponent, alpha_for_condition_ratio,
                                   attach_reference, lse_instance,
                                   quadratic_instance)
from tests.step_reference import (ReferenceQuadraticOracle, reference_classical_ppa,
                                  reference_cubic_newton, reference_gradient_method_ls)


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
        f = tr.columns()["F"]
        assert np.all(np.diff(f) <= 1e-12 * np.maximum(np.abs(f[:-1]), 1.0))

    def test_geometric_residual_decay_one_dim(self):
        tr = gradient_method_ls(_one_dim(), np.array([1.0]), 1e-12, 200)
        res = tr.columns()["residual"]
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

    def test_monotone(self):
        obj = quadratic_instance(12, 1.5, 6)
        tr = classical_ppa(obj, np.zeros(12), 1e-7, 5000)
        f = tr.columns()["F"]
        assert np.all(np.diff(f) <= 1e-10 * np.maximum(np.abs(f[:-1]), 1.0))

    def test_each_gradient_is_queried_once(self):
        # x_0 gets one value-and-gradient query; after that every gradient is
        # the one closing an inner step, and the next step starts from it
        obj = build_instance("quadratic", 20, 0, q=1e-2)
        tr = classical_ppa(obj, np.zeros(20), 1e-7, 5000)
        t = np.cumsum([rec.t_inner for rec in tr.records])
        assert [rec.counters["oracle_g"] for rec in tr.records] == (1 + t).tolist()

    def test_converges_where_round_off_passed_a_trial_below_its_modulus(self):
        # the line search used to accept L_try < 1 only through its round-off
        # allowance here, and stalled at its inner cap after 24,096 iterations
        obj = build_instance("quadratic", 100, 10002, q=1e-4)
        tr = classical_ppa(obj, np.zeros(100), 1e-7, 200000)
        assert tr.status == "converged" and tr.final.residual <= 1e-7

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
        obj = lse_instance(10, 0.5, 9, 1.0)
        attach_reference(obj)
        tr = cubic_newton(obj, np.zeros(10), 1e-8, 2000)
        f = tr.columns()["F"]
        assert np.all(np.diff(f) <= 1e-11 * np.maximum(np.abs(f[:-1]), 1.0))

    def test_one_second_order_oracle_call_per_iteration(self):
        obj = lse_instance(8, 1.0, 10, 1.0)
        attach_reference(obj)
        tr = cubic_newton(obj, np.zeros(8), 1e-8, 2000)
        # the Hessian is built at a step's base; the stopping iterate gets none
        assert tr.oracle_total("oracle_h") == tr.iterations


class TestAcceleratedCubicNewton:
    def test_fast_rate_on_well_conditioned_lse(self):
        obj = lse_instance(20, 1.0, 0, 1.0)
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
        obj = lse_instance(8, 1.0, 11, 1.0)
        attach_reference(obj)
        tr = accelerated_cubic_newton(obj, np.zeros(8), 1e-8, 2000)
        assert tr.oracle_total("oracle_g") == 2 * tr.iterations + 1


def test_baselines_share_counter_semantics():
    obj = quadratic_instance(10, 1.0, 12)
    for fn in (gradient_method_ls, accelerated_gradient, classical_ppa):
        tr = fn(obj, np.zeros(10), 1e-6, 50000)
        # cumulative counters recorded per iteration and monotone
        mv = tr.columns()["matvec"]
        assert np.all(np.diff(mv) >= 0)
        assert tr.oracle_total("matvec") == int(mv[-1])


@pytest.mark.parametrize("eps, inner_tol", [(1e-7, 1e-9), (1e-12, 1e-13)])
def test_cubic_step_tolerance_is_eps_over_100_floored(eps, inner_tol):
    # the one rule cn and acn take their step tolerance from
    assert _cubic_subproblem(_one_dim(), eps)[1] == inner_tol


def _reference_twin(obj):
    """The instance with its oracle's products written as ``@``."""
    f = obj.smooth
    return CompositeObjective(ReferenceQuadraticOracle(f.matrix, f.rhs, lam_max=f.lipschitz[1]),
                              obj.simple, obj.metric, obj.fstar, obj.xstar,
                              dict(obj.descriptor))


@pytest.mark.parametrize("q", [1e-2, 1e-3])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("method, reference", [
    (gradient_method_ls, reference_gradient_method_ls),
    (classical_ppa, reference_classical_ppa),
])
def test_first_order_baseline_is_bitwise_its_reference(q, seed, method, reference):
    # the line search computes ppa's objective inline and ppa carries it from
    # step to step; neither may move one bit of a trace
    obj = build_instance("quadratic", 20, seed, q=q)
    tr = method(obj, np.zeros(20), 1e-7, 100000)
    ref = reference(_reference_twin(obj), np.zeros(20), 1e-7, 100000)
    assert tr.status == ref.status == "converged"
    assert len(tr.records) == len(ref.records)
    ref_columns = ref.columns()
    for name, column in tr.columns().items():
        assert column.tobytes() == ref_columns[name].tobytes(), name
    for rec, want in zip(tr.records, ref.records):
        assert rec.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("instance", [
    {"problem": "quadratic", "n": 50, "seed": 0, "q": 1e-2},
    {"problem": "quadratic", "n": 50, "seed": 0, "q": 1e-2, "sigma": 1e-4},
    {"problem": "lse", "n": 20, "seed": 0, "mu": 0.1, "lipschitz_order2": 0.005},
], ids=["quadratic", "quadratic-sigma", "lse"])
def test_cubic_newton_is_bitwise_its_reference(instance):
    # cn iterates model_steps, cptm's inner step loop; its F is that loop's h,
    # and no bit of its trace may move from its own loop around tensor_step
    obj = build_instance(**instance)
    x0 = np.zeros(instance["n"])
    tr = cubic_newton(obj, x0, 1e-7, 200000)
    ref = reference_cubic_newton(obj, x0, 1e-7, 200000)
    assert tr.header == ref.header
    assert len(tr.records) == len(ref.records) > 1
    ref_columns = ref.columns()
    for name, column in tr.columns().items():
        assert column.tobytes() == ref_columns[name].tobytes(), name
    for rec, want in zip(tr.records, ref.records):
        assert rec.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("method", [cubic_newton, accelerated_cubic_newton], ids=["cn", "acn"])
def test_the_radius_hint_moves_no_count(method, monkeypatch):
    # cn and acn warm-start each Newton at an extrapolated radius; against a
    # cold copy (every hint 0.0) only the Newton work and the last bits of the
    # iterates may move, never an iteration or an oracle count
    step = tensor_steps.tensor_step
    newton = {False: 0, True: 0}    # Newton iterations, warm and cold

    def run(obj, cold):
        def counted(sub, base, base_phi, inner_tol, radius_hint):
            out = step(sub, base, base_phi, inner_tol, 0.0 if cold else radius_hint)
            newton[cold] += out[2]
            return out

        monkeypatch.setattr(tensor_steps, "tensor_step", counted)
        monkeypatch.setattr(baselines, "tensor_step", counted)
        return method(obj, np.zeros(obj.dim), 1e-7, 200000)

    for n in (20, 50):
        for mu in (1.0, 0.1):
            for seed in (0, 1):
                obj = build_instance("lse", n, seed, mu=mu, lipschitz_order2=0.005)
                warm, cold = run(obj, False), run(obj, True)
                assert warm.status == cold.status == "converged"
                assert warm.iterations == cold.iterations
                warm_columns, cold_columns = warm.columns(), cold.columns()
                for name in ("k", "t_k", "oracle_f", "oracle_g", "oracle_h", "matvec"):
                    assert warm_columns[name].tobytes() == cold_columns[name].tobytes(), name
                dx = max(float(np.abs(a.x - b.x).max()) for a, b in zip(warm, cold))
                assert dx <= 1e-7, (n, mu, seed, dx)
    assert newton[False] < 0.75 * newton[True]
